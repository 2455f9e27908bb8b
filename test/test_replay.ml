(* Record/replay and reverse-debugging suite: a recorded run under
   chaos replays to a bit-identical final state; the divergence detector
   pins the first mismatching event; full checkpoints round-trip every
   device's state; and the stub's [rs]/[rc] verbs land on the exact
   pre-crash instruction via checkpoint restore + deterministic
   re-execution. *)

module Machine = Vmm_hw.Machine
module Isa = Vmm_hw.Isa
module Phys_mem = Vmm_hw.Phys_mem
module Pic = Vmm_hw.Pic
module Pit = Vmm_hw.Pit
module Scsi = Vmm_hw.Scsi
module Nic = Vmm_hw.Nic
module Asm = Vmm_hw.Asm
module Costs = Vmm_hw.Costs
module Command = Vmm_proto.Command
module Reliable = Vmm_proto.Reliable
module Monitor = Core.Monitor
module Stub = Core.Stub
module Snapshot = Core.Snapshot
module Vm_layout = Core.Vm_layout
module Kernel = Vmm_guest.Kernel
module Session = Vmm_debugger.Session
module Chaos = Vmm_fault.Chaos
module Rng = Vmm_sim.Rng
module Stats = Vmm_sim.Stats
module Recorder = Vmm_replay.Recorder
module Trace = Vmm_replay.Trace
module Event = Vmm_replay.Event

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let int64 = Alcotest.int64

(* Fast serial line so debug round-trips stay cheap in simulated time. *)
let test_costs = { Costs.default with Costs.uart_cycles_per_byte = 2000 }

let cyc s = Costs.cycles_of_seconds test_costs s

(* ---------------------------------------------------------------- *)
(* Trace format                                                      *)
(* ---------------------------------------------------------------- *)

let sample_events =
  [
    { Event.cycle = 100L; source = "monitor.virq";
      payload = Event.Irq_inject { line = 3 } };
    { Event.cycle = 200L; source = "pit";
      payload = Event.Timer_fire { count = 7 } };
    { Event.cycle = 300L; source = "scsi.irq";
      payload = Event.Dma_complete { chan = "scsi"; seq = 2 } };
    { Event.cycle = 400L; source = "uart";
      payload = Event.Uart_rx { byte = 0xA5 } };
    { Event.cycle = 500L; source = "nic";
      payload = Event.Nic_rx { len = 64 } };
    { Event.cycle = 600L; source = "chaos.h2t"; payload = Event.Chaos Event.Drop };
    { Event.cycle = 700L; source = "chaos.t2h";
      payload =
        Event.Chaos (Event.Deliver { mask = 0x40; dup = true; delay = 12 }) };
    { Event.cycle = 800L; source = "monitor.watchdog";
      payload = Event.Wedge { pc = 0x1040 } };
    { Event.cycle = 900L; source = "monitor";
      payload = Event.Crash { vector = 13; pc = 0x2000 } };
    { Event.cycle = 1000L; source = "monitor.ckpt";
      payload = Event.Checkpoint { index = 4; retired = 123456L } };
  ]

let test_trace_round_trip () =
  let header = Trace.make_header ~label:"unit-test" ~seed:42L () in
  match Trace.of_string (Trace.to_string header sample_events) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok (h, evs) ->
    check int "version" Trace.current_version h.Trace.version;
    check bool "seed" true (h.Trace.seed = 42L);
    check Alcotest.string "label" "unit-test" h.Trace.label;
    check int "count" (List.length sample_events) (List.length evs);
    List.iter2
      (fun a b -> check bool "event round-trips" true (Event.equal a b))
      sample_events evs

let test_trace_rejects_version_drift () =
  check bool "not a trace" true
    (Result.is_error (Trace.of_string "hello world\n"));
  let doc = Trace.to_string (Trace.make_header ~seed:1L ()) sample_events in
  let needle = "\"version\":" in
  let i =
    let rec find i =
      if i + String.length needle > String.length doc then
        Alcotest.fail "no version field"
      else if String.sub doc i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  let j = i + String.length needle in
  let bumped = String.sub doc 0 j ^ "9" ^ String.sub doc j (String.length doc - j) in
  check bool "version drift refused" true (Result.is_error (Trace.of_string bumped))

(* ---------------------------------------------------------------- *)
(* Record / replay convergence                                       *)
(* ---------------------------------------------------------------- *)

(* One debug campaign under a lossy wire: boot the streaming kernel,
   checkpoint periodically, exchange debugger traffic through an active
   chaos wrap, recover, and read the final-state digest.  With [replay]
   the same campaign consumes the recorded trace instead of the live
   chaos RNG. *)
let drive ?replay ?(profile = false) ?(jit = true) ~seed () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  Vmm_hw.Cpu.set_jit_enabled (Machine.cpu m) jit;
  let recorder = Machine.recorder m in
  (match replay with
   | None -> Recorder.start_record recorder
   | Some events -> Recorder.start_replay recorder events);
  let mon = Monitor.install m in
  if profile then
    Machine.set_profiling m ~period:Vmm_profile.Profiler.default_period;
  Monitor.boot_guest mon
    (Kernel.build (Kernel.default_config ~rate_mbps:50.0))
    ~entry:Kernel.entry;
  Monitor.checkpoint_start ~period_cycles:(cyc 0.005) mon;
  let chaos = Chaos.create ~engine:(Machine.engine m) ~rng:(Rng.create ~seed) () in
  Chaos.set_recorder chaos recorder;
  let session =
    Session.attach
      ~wrap_to_target:(Chaos.wrap ~source:"chaos.h2t" chaos)
      ~wrap_to_host:(Chaos.wrap ~source:"chaos.t2h" chaos)
      m
  in
  Machine.run_seconds m 0.01;
  ignore (Session.read_registers ~timeout_s:1.0 session);
  Chaos.set_profile chaos
    { Chaos.drop_p = 0.02; corrupt_p = 0.02; dup_p = 0.02; delay_p = 0.05;
      max_delay_cycles = 5000 };
  Chaos.set_active chaos true;
  for _ = 1 to 4 do
    ignore (Session.read_registers ~timeout_s:0.5 session);
    Machine.run_seconds m 0.005
  done;
  Chaos.set_active chaos false;
  if not (Session.link_up session) then
    ignore (Session.reconnect ~timeout_s:1.0 session);
  ignore (Session.read_registers ~timeout_s:1.0 session);
  Machine.run_seconds m 0.01;
  let digest = Snapshot.Full.digest (Monitor.checkpoint_now mon) in
  let busy = Stats.busy_cycles (Machine.load m) in
  let divergence =
    match replay with
    | Some _ -> Recorder.finish_replay recorder
    | None -> None
  in
  let events = Recorder.recorded recorder in
  Recorder.stop recorder;
  (events, digest, busy, divergence)

let test_record_replay_converges () =
  let events, digest, busy, _ = drive ~seed:11L () in
  check bool "events recorded" true (List.length events > 0);
  let _, digest', busy', div = drive ~replay:events ~seed:11L () in
  (match div with
   | Some d ->
     Alcotest.failf "replay diverged: %s"
       (Format.asprintf "%a" Recorder.pp_divergence d)
   | None -> ());
  check bool "final-state digest identical" true (digest' = digest);
  check bool "busy-cycle total identical" true (busy' = busy)

let test_record_replay_profiled () =
  (* The continuous profiler only reads pc/cpl, so arming it must not
     perturb the simulation: a profiled run matches the unprofiled run
     event-for-event and digest-for-digest at the same seed, and a
     profiled replay of the profiled recording converges bit-exactly. *)
  let events, digest, busy, _ = drive ~seed:11L () in
  let events_p, digest_p, busy_p, _ = drive ~profile:true ~seed:11L () in
  check int "same event count with profiler armed" (List.length events)
    (List.length events_p);
  List.iter2
    (fun a b -> check bool "same events with profiler armed" true (Event.equal a b))
    events events_p;
  check bool "same digest with profiler armed" true (digest_p = digest);
  check bool "same busy cycles with profiler armed" true (busy_p = busy);
  let _, digest', busy', div = drive ~replay:events_p ~profile:true ~seed:11L () in
  (match div with
   | Some d ->
     Alcotest.failf "profiled replay diverged: %s"
       (Format.asprintf "%a" Recorder.pp_divergence d)
   | None -> ());
  check bool "profiled replay digest identical" true (digest' = digest);
  check bool "profiled replay busy identical" true (busy' = busy)

let test_record_replay_jit_cross_mode () =
  (* The block translator must be invisible to the recorder: a run with
     the JIT off records the same events and lands on the same digest as
     the JIT-on run at the same seed, and a trace recorded with the JIT
     on replays bit-exactly with it off. *)
  let events_on, digest_on, busy_on, _ = drive ~seed:13L () in
  check bool "events recorded" true (List.length events_on > 0);
  let events_off, digest_off, busy_off, _ = drive ~jit:false ~seed:13L () in
  check int "same event count with JIT off" (List.length events_on)
    (List.length events_off);
  List.iter2
    (fun a b -> check bool "same events with JIT off" true (Event.equal a b))
    events_on events_off;
  check bool "same digest with JIT off" true (digest_off = digest_on);
  check bool "same busy cycles with JIT off" true (busy_off = busy_on);
  let _, digest', busy', div =
    drive ~replay:events_on ~jit:false ~seed:13L ()
  in
  (match div with
   | Some d ->
     Alcotest.failf "cross-mode replay diverged: %s"
       (Format.asprintf "%a" Recorder.pp_divergence d)
   | None -> ());
  check bool "cross-mode replay digest identical" true (digest' = digest_on);
  check bool "cross-mode replay busy identical" true (busy' = busy_on)

let test_divergence_detector () =
  let events, _, _, _ = drive ~seed:12L () in
  (* tamper the cycle stamp of one non-chaos event past the warm-up *)
  let idx, orig =
    let rec find i = function
      | [] -> Alcotest.fail "no non-chaos event to tamper"
      | e :: tl ->
        (match e.Event.payload with
         | Event.Chaos _ -> find (i + 1) tl
         | _ when i > 0 -> (i, e)
         | _ -> find (i + 1) tl)
    in
    find 0 events
  in
  let tampered =
    List.mapi
      (fun i e ->
        if i = idx then { e with Event.cycle = Int64.add e.Event.cycle 1L }
        else e)
      events
  in
  let _, _, _, div = drive ~replay:tampered ~seed:12L () in
  match div with
  | None -> Alcotest.fail "tampered trace did not diverge"
  | Some d ->
    check int "first mismatch index" idx d.Recorder.index;
    check bool "cycle names the observed event" true
      (d.Recorder.cycle = orig.Event.cycle);
    check Alcotest.string "source names the observed event" orig.Event.source
      d.Recorder.source;
    (match (d.Recorder.expected, d.Recorder.actual) with
     | Some e, Some a ->
       check bool "expected is the tampered stamp" true
         (e.Event.cycle = Int64.add a.Event.cycle 1L)
     | _ -> Alcotest.fail "divergence lacks expected/actual events")

(* ---------------------------------------------------------------- *)
(* Checkpoint round-trip                                             *)
(* ---------------------------------------------------------------- *)

let test_checkpoint_restore_digest () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  Monitor.boot_guest mon
    (Kernel.build (Kernel.default_config ~rate_mbps:50.0))
    ~entry:Kernel.entry;
  let session = Session.attach m in
  (* run with live SCSI/NIC traffic so device state is non-trivial *)
  Machine.run_seconds m 0.02;
  ignore (Session.read_registers ~timeout_s:1.0 session);
  let ck = Monitor.checkpoint_now mon in
  let d0 = Snapshot.Full.digest ck in
  (* advance guest and devices only: the digest covers the live link's
     sequence numbers, which a restore deliberately leaves untouched *)
  Machine.run_seconds m 0.03;
  let moved = Snapshot.Full.digest (Monitor.checkpoint_now mon) in
  check bool "state advanced between checkpoints" true (moved <> d0);
  Monitor.restore_checkpoint mon ck;
  let d1 = Snapshot.Full.digest (Monitor.checkpoint_now mon) in
  check bool "restore round-trips the digest" true (d1 = d0);
  (* the debug plane survived the restore *)
  check bool "session still answers" true
    (Session.read_registers ~timeout_s:1.0 session <> None)

let test_link_seq_state_round_trip () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  Monitor.boot_guest mon
    (Kernel.build (Kernel.default_config ~rate_mbps:50.0))
    ~entry:Kernel.entry;
  let session = Session.attach m in
  Machine.run_seconds m 0.01;
  ignore (Session.read_registers ~timeout_s:1.0 session);
  ignore (Session.read_memory ~timeout_s:1.0 session ~addr:Kernel.entry ~len:8);
  let ep = Stub.endpoint (Monitor.stub mon) in
  let st = Reliable.seq_state ep in
  check bool "sequenced after traffic" true st.Reliable.sq_sequenced;
  Reliable.restore_seq_state ep st;
  check bool "seq state round-trips" true (Reliable.seq_state ep = st);
  check bool "link still talks after restore" true
    (Session.read_registers ~timeout_s:1.0 session <> None)

(* A warm restart loads the state [boot_guest] left: after runs of
   several lengths the restarted guest digests like the one just booted.
   Only the retired count differs — it keeps counting across restarts. *)
let test_restart_returns_to_boot_state () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  Monitor.boot_guest mon
    (Kernel.build (Kernel.default_config ~rate_mbps:150.0))
    ~entry:Kernel.entry;
  let boot = Monitor.checkpoint_now mon in
  List.iter
    (fun seconds ->
      Machine.run_seconds m seconds;
      let before = Vmm_hw.Cpu.instructions_retired (Machine.cpu m) in
      check bool "restart" true (Monitor.restart_guest mon);
      let after = Monitor.checkpoint_now mon in
      check bool "retired count monotone" true
        (Int64.compare after.Snapshot.Full.retired before >= 0);
      let after =
        { after with Snapshot.Full.retired = boot.Snapshot.Full.retired }
      in
      check bool
        (Printf.sprintf "boot state after %gs" seconds)
        true
        (Snapshot.Full.digest after = Snapshot.Full.digest boot))
    [ 0.0137; 0.02; 0.05 ]

(* Booting again on a used monitor leaves the virtual PIC/PIT and the
   devices as a fresh machine's boot does: no running virtual timer, no
   in-flight DMA from the previous guest. *)
let test_second_boot_matches_fresh_boot () =
  let boot ~run =
    let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
    let mon = Monitor.install m in
    let program = Kernel.build (Kernel.default_config ~rate_mbps:150.0) in
    Monitor.boot_guest mon program ~entry:Kernel.entry;
    if run > 0.0 then begin
      Machine.run_seconds m run;
      Monitor.boot_guest mon program ~entry:Kernel.entry
    end;
    Monitor.checkpoint_now mon
  in
  let fresh = boot ~run:0.0 and again = boot ~run:0.0137 in
  check bool "vpic" true (fresh.Snapshot.Full.vpic = again.Snapshot.Full.vpic);
  check bool "vpit" true (fresh.Snapshot.Full.vpit = again.Snapshot.Full.vpit);
  check bool "scsi" true (fresh.Snapshot.Full.scsi = again.Snapshot.Full.scsi);
  check bool "nic" true (fresh.Snapshot.Full.nic = again.Snapshot.Full.nic)

(* ---------------------------------------------------------------- *)
(* Page-sharing checkpoints                                          *)
(* ---------------------------------------------------------------- *)

(* The digest over a contiguous memory image, as computed before images
   were split into shared pages: the reference the paged digest must
   match byte for byte. *)
let reference_digest (t : Snapshot.Full.t) image =
  let fnv_prime = 0x100000001b3L and fnv_offset = 0xcbf29ce484222325L in
  let mix h byte =
    Int64.mul (Int64.logxor h (Int64.of_int (byte land 0xFF))) fnv_prime
  in
  let mix_int h v =
    let h = ref h in
    for i = 0 to 7 do
      h := mix !h ((v lsr (8 * i)) land 0xFF)
    done;
    !h
  in
  let mix_int64 h v =
    let h = ref h in
    for i = 0 to 7 do
      h := mix !h (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
    done;
    !h
  in
  let mix_bool h b = mix h (if b then 1 else 0) in
  let mix_bytes h b =
    let h = ref (mix_int h (Bytes.length b)) in
    for i = 0 to Bytes.length b - 1 do
      h := mix !h (Char.code (Bytes.unsafe_get b i))
    done;
    !h
  in
  let mix_string h s = mix_bytes h (Bytes.unsafe_of_string s) in
  let mix_pic h (p : Pic.state) =
    let h = mix_int h p.Pic.st_vector_base in
    let h = mix_int h p.Pic.st_request in
    let h = mix_int h p.Pic.st_service in
    mix_int h p.Pic.st_mask
  in
  let mix_pit h (p : Pit.phase) =
    let h = mix_int h p.Pit.ph_reload in
    let h = mix_int h p.Pit.ph_mode in
    mix_int64 h p.Pit.ph_remaining
  in
  let open Snapshot.Full in
  let h = fnv_offset in
  let h = mix_int64 h t.retired in
  let h = mix_bytes h image in
  let h = Array.fold_left mix_int h t.regs in
  let h = mix_int h t.pc in
  let h = mix_int h t.flags in
  let h = mix_int h t.cpl in
  let h = mix_bool h t.halted in
  let h = mix_bool h t.mon.v_if in
  let h = mix_int h t.mon.v_iht in
  let h = mix_int h t.mon.v_ptb in
  let h = mix_int h t.mon.v_cpl in
  let h = Array.fold_left mix_int h t.mon.v_stacks in
  let h = mix_bool h t.mon.v_halted in
  let h = mix_string h t.mon.console in
  let h = mix_pic h t.vpic in
  let h = mix_pit h t.vpit in
  let h = mix_pic h t.pic in
  let h = mix_pit h t.pit in
  let s = t.scsi in
  let h = mix_int h s.Scsi.s_sel_target in
  let h = mix_int h s.Scsi.s_sel_lba in
  let h = mix_int h s.Scsi.s_sel_count in
  let h = mix_int h s.Scsi.s_sel_dma in
  let h = mix_bool h s.Scsi.s_error in
  let h =
    Array.fold_left
      (fun h (ts : Scsi.tgt_state) ->
        let h = mix_bool h ts.Scsi.ts_busy in
        let h = mix_bool h ts.Scsi.ts_done in
        let h =
          List.fold_left
            (fun h (sector, block) -> mix_bytes (mix_int h sector) block)
            h ts.Scsi.ts_sectors
        in
        mix_bytes h ts.Scsi.ts_staging)
      h s.Scsi.s_targets
  in
  let h =
    List.fold_left
      (fun h (os : Scsi.op_state) ->
        let h = mix_int h os.Scsi.os_target in
        let h = mix_int h os.Scsi.os_cmd in
        let h = mix_int h os.Scsi.os_lba in
        let h = mix_int h os.Scsi.os_count in
        let h = mix_int h os.Scsi.os_dma in
        mix_int64 h os.Scsi.os_remaining)
      h s.Scsi.s_inflight
  in
  let n = t.nic in
  let h = mix_int h n.Nic.n_tx_addr in
  let h = mix_int h n.Nic.n_tx_len in
  let h = mix_int h n.Nic.n_completions in
  let h = mix_bool h n.Nic.n_overflow in
  let h = mix_int64 h n.Nic.n_wire_remaining in
  let h = List.fold_left mix_bytes h n.Nic.n_rx in
  let h = mix_int h n.Nic.n_rx_addr in
  let h =
    List.fold_left
      (fun h (xs : Nic.tx_op_state) ->
        mix_int64 (mix_bytes h xs.Nic.xs_data) xs.Nic.xs_remaining)
      h n.Nic.n_inflight
  in
  let h = mix_int h t.link.Reliable.sq_next_seq in
  let h = mix_int h t.link.Reliable.sq_last_rx_seq in
  let h = mix_bool h t.link.Reliable.sq_sequenced in
  mix_bool h t.link.Reliable.sq_up

let gauge m name =
  let values = Vmm_obs.Registry.snapshot (Machine.registry m) in
  match List.assoc_opt name values with
  | Some (Vmm_obs.Registry.Gauge g) -> int_of_float g
  | _ -> Alcotest.failf "gauge %s not registered" name

let pages_copied m = gauge m "monitor_checkpoint_pages_copied_total"
let pages_written m = gauge m "monitor_restore_pages_written_total"

(* The smallest machine the layout allows (6 MiB of guest memory, 1 536
   pages), booted on a guest that never runs: the tests below drive its
   memory directly. *)
let small_monitor () =
  let m = Machine.create ~mem_size:(8 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  (m, mon)

let guest_bytes m mon =
  Phys_mem.read_bytes (Machine.mem m) ~addr:0
    ~len:(Monitor.layout mon).Vm_layout.monitor_base

let test_captures_share_pages () =
  let m, mon = small_monitor () in
  let c1 = Monitor.checkpoint_now mon in
  let before = pages_copied m in
  let c2 = Monitor.checkpoint_now mon in
  check int "no store between captures copies 0 pages" before (pages_copied m);
  check bool "every chunk is shared" true
    (Array.for_all2 ( == ) c1.Snapshot.Full.image c2.Snapshot.Full.image);
  Phys_mem.write_u32 (Machine.mem m) 0x0FFE 0xDEADBEEF;
  let c3 = Monitor.checkpoint_now mon in
  check int "a store straddling two pages copies 2" (before + 2)
    (pages_copied m);
  let shared = ref 0 in
  Array.iteri
    (fun p chunk -> if chunk == c2.Snapshot.Full.image.(p) then incr shared)
    c3.Snapshot.Full.image;
  check int "and shares the rest"
    (Array.length c3.Snapshot.Full.image - 2)
    !shared

(* Never-written pages are one zero page shared by every monitor, so
   another monitor's checkpoint restores by writing only the pages
   either machine wrote. *)
let test_zero_pages_shared_across_monitors () =
  let m1, mon1 = small_monitor () and m2, mon2 = small_monitor () in
  Phys_mem.fill (Machine.mem m2) ~addr:0x2000 ~len:0x5000 0xC3;
  let c1 = Monitor.checkpoint_now mon1 and c2 = Monitor.checkpoint_now mon2 in
  let differ = ref 0 in
  Array.iteri
    (fun p chunk ->
      let addr = p * Snapshot.Pages.page_size in
      let untouched =
        Phys_mem.page_generation (Machine.mem m1) addr = 0
        && Phys_mem.page_generation (Machine.mem m2) addr = 0
      in
      if chunk != c2.Snapshot.Full.image.(p) then incr differ
      else if not untouched then
        Alcotest.failf "page %d is written but shared across monitors" p)
    c1.Snapshot.Full.image;
  check bool "only the pages either machine wrote differ" true
    (!differ >= 5 && !differ < 16);
  let written = pages_written m1 in
  Monitor.restore_checkpoint mon1 c2;
  check int "and only they are written back" (written + !differ)
    (pages_written m1);
  check bool "memory equals the other machine's" true
    (Bytes.equal (guest_bytes m1 mon1) (guest_bytes m2 mon2))

let test_restore_unchanged_writes_nothing () =
  let m, mon = small_monitor () in
  let mem = Machine.mem m in
  let base = (Monitor.layout mon).Vm_layout.monitor_base in
  Phys_mem.fill mem ~addr:0x3000 ~len:0x2000 0x5A;
  let ck = Monitor.checkpoint_now mon in
  let granules () =
    Array.init (base lsr Phys_mem.granule_bits) (fun g ->
        Phys_mem.generation mem (g lsl Phys_mem.granule_bits))
  in
  let g0 = granules () and written = pages_written m in
  Monitor.restore_checkpoint mon ck;
  check int "restoring onto unchanged memory writes 0 pages" written
    (pages_written m);
  check bool "every granule generation unchanged" true (granules () = g0);
  Phys_mem.write_u8 mem 0x4001 0;
  Monitor.restore_checkpoint mon ck;
  check int "a page written since is written back" (written + 1)
    (pages_written m);
  check int "with its checkpointed bytes" 0x5A (Phys_mem.read_u8 mem 0x4001)

(* A checkpoint whose page count is not this layout's is refused before
   any guest or monitor state changes: a shorter image would leave the
   pages above it holding this run's bytes, a longer one would write
   into the monitor's own reservation. *)
let test_restore_rejects_wrong_page_count () =
  let m, mon = small_monitor () in
  let ck = Monitor.checkpoint_now mon in
  let image = ck.Snapshot.Full.image in
  Phys_mem.fill (Machine.mem m) ~addr:0 ~len:0x3000 0x77;
  Vmm_hw.Cpu.write_reg (Machine.cpu m) 3 0x1234;
  let before = guest_bytes m mon in
  let base = (Monitor.layout mon).Vm_layout.monitor_base in
  let monitor_bytes () =
    Phys_mem.read_bytes (Machine.mem m) ~addr:base
      ~len:(Phys_mem.size (Machine.mem m) - base)
  in
  let mon_before = monitor_bytes () in
  let refused label image =
    (match Monitor.restore_checkpoint mon { ck with Snapshot.Full.image } with
     | () -> Alcotest.failf "%s image accepted" label
     | exception Invalid_argument _ -> ());
    check bool (label ^ ": guest memory untouched") true
      (Bytes.equal before (guest_bytes m mon));
    check bool (label ^ ": monitor memory untouched") true
      (Bytes.equal mon_before (monitor_bytes ()));
    check int (label ^ ": registers untouched") 0x1234
      (Vmm_hw.Cpu.read_reg (Machine.cpu m) 3)
  in
  refused "shorter" (Array.sub image 0 (Array.length image - 1));
  refused "longer"
    (Array.append image [| Bytes.make Snapshot.Pages.page_size '\xff' |])

(* The paper's streaming kernel under 1-ms checkpoints: each periodic
   capture copies the few pages the guest wrote in that millisecond, not
   the 3 072 pages of guest memory. *)
let test_periodic_captures_copy_few_pages () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  Monitor.boot_guest mon
    (Kernel.build (Kernel.default_config ~rate_mbps:100.0))
    ~entry:Kernel.entry;
  Monitor.checkpoint_start ~keep:8 mon;
  let copied0 = pages_copied m
  and taken0 = gauge m "monitor_checkpoints_total" in
  Machine.run_seconds m 0.05;
  let copied = pages_copied m - copied0
  and taken = gauge m "monitor_checkpoints_total" - taken0 in
  check bool "about one capture per simulated ms" true (taken >= 45);
  if copied > 64 * taken then
    Alcotest.failf "periodic captures copied %d pages in %d captures" copied
      taken

(* The digest skips all-zero pages with one multiply each; these pin it
   to the byte-by-byte reference where that shortcut could go wrong. *)
let check_reference label m mon =
  let full = Monitor.checkpoint_now mon in
  check int64 label (reference_digest full (guest_bytes m mon))
    (Snapshot.Full.digest full)

(* A freshly booted kernel: nearly every page was never written. *)
let test_digest_fresh_boot () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  Monitor.boot_guest mon
    (Kernel.build (Kernel.default_config ~rate_mbps:100.0))
    ~entry:Kernel.entry;
  check_reference "boot checkpoint" m mon

(* A page whose one non-zero byte is its first, or its last. *)
let test_digest_page_edges () =
  List.iter
    (fun offset ->
      let m, mon = small_monitor () in
      Phys_mem.write_u8 (Machine.mem m) ((5 * Snapshot.Pages.page_size) + offset)
        0x80;
      check_reference (Printf.sprintf "only byte %d non-zero" offset) m mon)
    [ 0; Snapshot.Pages.page_size - 1 ]

(* Written and then zeroed, a page is a copy of zeros, not the shared
   never-written page, and must digest the same. *)
let test_digest_zeroed_page () =
  let m, mon = small_monitor () in
  let never = Monitor.checkpoint_now mon in
  let addr = 3 * Snapshot.Pages.page_size in
  Phys_mem.fill (Machine.mem m) ~addr ~len:Snapshot.Pages.page_size 0x5A;
  Phys_mem.fill (Machine.mem m) ~addr ~len:Snapshot.Pages.page_size 0;
  let zeroed = Monitor.checkpoint_now mon in
  check bool "the zeroed page is its own copy" true
    (zeroed.Snapshot.Full.image.(3) != never.Snapshot.Full.image.(3));
  check int64 "digests as never written"
    (Snapshot.Full.digest never)
    (Snapshot.Full.digest zeroed)

(* Generated interleavings of every store path with captures into a ring
   of at most 8 and restores of random held checkpoints (and of one
   captured by a second monitor): after each restore memory equals the
   contiguous copy taken at that capture, and the paged digest equals
   the contiguous one.  Each restore writes exactly the pages its
   documented rule names: those whose copy is not physically the one
   last captured or restored there, plus those whose generation moved
   since.  Never-written pages are one zero page shared by every
   monitor, so a foreign checkpoint skips them too. *)
type mem_op =
  | W8 of int * int
  | W16 of int * int
  | W32 of int * int
  | Blit of int * int * int
  | Fill of int * int * int
  | Edge of int * int
  | Dma of int * string
  | Load of int * string
  | Capture
  | Restore of int
  | Foreign

let show_op = function
  | W8 (a, v) -> Printf.sprintf "w8 %x %x" a v
  | W16 (a, v) -> Printf.sprintf "w16 %x %x" a v
  | W32 (a, v) -> Printf.sprintf "w32 %x %x" a v
  | Blit (s, d, l) -> Printf.sprintf "blit %x->%x %d" s d l
  | Fill (a, l, v) -> Printf.sprintf "fill %x %d %x" a l v
  | Edge (a, v) -> Printf.sprintf "edge %x %x" a v
  | Dma (a, s) -> Printf.sprintf "dma %x %d" a (String.length s)
  | Load (a, s) -> Printf.sprintf "load %x %d" a (String.length s)
  | Capture -> "capture"
  | Restore i -> Printf.sprintf "restore %d" i
  | Foreign -> "foreign"

(* Addresses cluster in the first 16 pages and near page boundaries, so
   stores straddle pages and ranges span several. *)
let gen_op =
  let open QCheck.Gen in
  let page = 4096 and span = 16 * 4096 in
  let addr =
    oneof
      [
        int_range 0 (span - 1);
        map2 (fun p d -> (p * page) - d) (int_range 1 15) (int_range 1 3);
      ]
  in
  let len = oneof [ int_range 1 64; int_range 1 (3 * page) ] in
  (* the highest address a range of [l] bytes may start at *)
  let fit a l = min a (span - l) in
  let data = string_size ~gen:char len in
  frequency
    [
      (3, map2 (fun a v -> W8 (a, v)) addr (int_bound 0xFF));
      (3, map2 (fun a v -> W16 (fit a 2, v)) addr (int_bound 0xFFFF));
      (3, map2 (fun a v -> W32 (fit a 4, v)) addr (int_bound 0xFFFFFFF));
      (2, map3 (fun s d l -> Blit (fit s l, fit d l, l)) addr addr len);
      (* zero about half the time: pages written and then zeroed *)
      ( 2,
        map3
          (fun a l v -> Fill (fit a l, l, v))
          addr len
          (frequency [ (1, return 0); (1, int_bound 0xFF) ]) );
      (* one non-zero byte at a page's first or last offset *)
      ( 2,
        map3
          (fun p last v ->
            Edge ((p * page) + (if last then page - 1 else 0), v))
          (int_bound 15) bool (int_range 1 0xFF) );
      (2, map2 (fun a s -> Dma (fit a (String.length s), s)) addr data);
      (2, map2 (fun a s -> Load (fit a (String.length s), s)) addr data);
      (3, return Capture);
      (3, map (fun i -> Restore i) (int_bound 7));
      (1, return Foreign);
    ]

(* Captured once by a second monitor on a machine of the same size: its
   chunks are never in the cache of a monitor created afterwards. *)
let foreign_checkpoint =
  lazy
    (let m, mon = small_monitor () in
     Phys_mem.fill (Machine.mem m) ~addr:0x2000 ~len:0x5000 0xC3;
     (Monitor.checkpoint_now mon, guest_bytes m mon))

let prop_pages_match_full_copy =
  QCheck.Test.make ~count:200 ~name:"page-sharing checkpoints match full copies"
    QCheck.(make ~print:(fun ops -> String.concat "; " (List.map show_op ops))
              Gen.(list_size (int_range 1 24) gen_op))
    (fun ops ->
      let m, mon = small_monitor () in
      let mem = Machine.mem m in
      let foreign = Lazy.force foreign_checkpoint in
      (* The model of the monitor's page cache: the copy each page last
         equalled and the page generation at that moment. *)
      let cache = ref (Monitor.checkpoint_now mon).Snapshot.Full.image in
      let page_gens () =
        Array.init (Array.length !cache) (fun p ->
            Phys_mem.page_generation mem (p * Snapshot.Pages.page_size))
      in
      let synced = ref (page_gens ()) in
      let ring = ref [] in
      let restore (full, copy) =
        let image = full.Snapshot.Full.image in
        let gens = page_gens () in
        let expected = ref 0 in
        Array.iteri
          (fun p chunk ->
            if chunk != !cache.(p) || gens.(p) <> !synced.(p) then
              incr expected)
          image;
        let written = pages_written m in
        Monitor.restore_checkpoint mon full;
        if not (Bytes.equal copy (guest_bytes m mon)) then
          QCheck.Test.fail_report "restored memory differs from the copy";
        if Snapshot.Full.digest full <> reference_digest full copy then
          QCheck.Test.fail_report
            "paged digest differs from the contiguous one";
        if pages_written m - written <> !expected then
          QCheck.Test.fail_reportf "a restore wrote %d pages, not %d"
            (pages_written m - written) !expected;
        cache := Array.copy image;
        synced := page_gens ()
      in
      List.iter
        (function
          | W8 (a, v) -> Phys_mem.write_u8 mem a v
          | W16 (a, v) -> Phys_mem.write_u16 mem a v
          | W32 (a, v) -> Phys_mem.write_u32 mem a v
          | Blit (src, dst, len) -> Phys_mem.blit mem ~src ~dst ~len
          | Fill (addr, len, v) -> Phys_mem.fill mem ~addr ~len v
          | Edge (a, v) -> Phys_mem.write_u8 mem a v
          | Dma (addr, s) ->
            Phys_mem.write_bytes mem ~addr (Bytes.of_string s) ~off:0
              ~len:(String.length s)
          | Load (addr, s) -> Phys_mem.load_bytes mem ~addr (Bytes.of_string s)
          | Capture ->
            let full = Monitor.checkpoint_now mon in
            cache := full.Snapshot.Full.image;
            synced := page_gens ();
            ring :=
              (full, guest_bytes m mon) :: List.filteri (fun i _ -> i < 7) !ring
          | Restore i ->
            (match List.nth_opt !ring (i mod max 1 (List.length !ring)) with
             | Some held -> restore held
             | None -> ())
          | Foreign -> restore foreign)
        ops;
      true)

(* ---------------------------------------------------------------- *)
(* Reverse execution                                                 *)
(* ---------------------------------------------------------------- *)

(* Straight-line guest, interrupts off: a counted run of [addi], then a
   wild store into monitor memory that faults.  Every instruction
   address is [entry + k*width], so the landing pcs are exact. *)
let test_reverse_lands_pre_crash () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  let layout = Monitor.layout mon in
  let victim = layout.Vm_layout.monitor_base + 0x100 in
  let entry = 0x1000 in
  let a = Asm.create ~origin:entry () in
  Asm.movi a 1 (Asm.imm 0);
  for _ = 1 to 64 do
    Asm.addi a 1 1 (Asm.imm 1)
  done;
  Asm.movi a 2 (Asm.imm victim);
  Asm.st a 2 0 1 (* wild store: faults, never retires *);
  Asm.vmcall a (Asm.imm 2);
  let boom = entry + (66 * Isa.width) in
  Monitor.boot_guest mon (Asm.assemble a) ~entry;
  Monitor.checkpoint_start ~period_cycles:(cyc 0.0005) mon;
  let session = Session.attach m in
  (match Session.wait_stop ~timeout_s:2.0 session with
   | Some (Command.Faulted { pc; _ }) -> check int "fault pc" boom pc
   | _ -> Alcotest.fail "guest did not fault");
  check bool "guest quarantined" true (Monitor.crashed mon);
  (* rc: back to the exact pre-crash instruction *)
  (match Session.reverse_continue ~timeout_s:2.0 session with
   | Some (Command.Step_done pc) -> check int "rc lands on pre-crash pc" boom pc
   | _ -> Alcotest.fail "rc reported no landing");
  check bool "guest healthy after restore" true (not (Monitor.crashed mon));
  (match Session.read_registers ~timeout_s:1.0 session with
   | Some regs -> check int "history replayed (r1 = 64)" 64 regs.(1)
   | None -> Alcotest.fail "no registers after rc");
  (* rs: exactly one instruction further back *)
  (match Session.reverse_step ~timeout_s:2.0 session with
   | Some (Command.Step_done pc) ->
     check int "rs lands one instruction earlier" (boom - Isa.width) pc
   | _ -> Alcotest.fail "rs reported no landing");
  (* a breakpoint planted in history stops rc first *)
  let bp = entry + (10 * Isa.width) in
  check bool "bp set" true (Session.insert_breakpoint ~timeout_s:1.0 session bp);
  (match Session.reverse_continue ~timeout_s:2.0 session with
   | Some (Command.Break pc) -> check int "rc honors planted breakpoint" bp pc
   | _ -> Alcotest.fail "rc did not stop at the breakpoint");
  check bool "bp removed" true
    (Session.remove_breakpoint ~timeout_s:1.0 session bp)

(* Reverse landing equals forward arrival.  The reverse side captures a
   checkpoint C at [c_ms], makes an excursion to retired count M, then
   lands on N (C < N < M) the way [rs] does: restore C, arm a retire
   stop at N and resume.  The straight side restores its own capture of
   C in place and runs straight on.  Both take the [Snapshot.Full]
   digest at N and at T > M; the pairs must be equal.

   The straight side restores C too because a restore leaves the shadow
   tables and the TLB empty, and refilling them costs monitor cycles
   that move the guest's timer phase: a run that never restored would
   arrive at N at another phase.  The comparison therefore isolates
   what the excursion may leak into the re-execution: cached ops and
   blocks, page generations, the checkpoint page cache, armed pages.

   Knobs that cost no guest-visible time are drawn for each side's
   whole run: chaining, the profiler, the tracer and the monitor's own
   checkpoint ring.  Knobs that do cost guest time act only inside the
   excursion, which the landing undoes: a virtual breakpoint on a random
   text address, the race witness, one guest or NIC fault, and a host
   write of [VMCALL 0] over the instruction at the pc (a debugger's [M]
   patch), which makes cached ops of the excursion's text stale after
   the restore. *)

type side = {
  jit : bool;
  profile : int64 option;  (** sampling period, cycles *)
  tracing : bool;
  ring : (float * int) option;  (** monitor checkpoint period (ms), keep *)
}

type landing = {
  user_mode : bool;  (** the kernel at ring 3 over its own page tables *)
  c_ms : float;
  excursion_ms : float;
  straight : side;
  reverse : side;
  vbp : int option;  (** text offset of a virtual breakpoint *)
  witness : bool;
  fault : (Vmm_fault.Plan.fault_class * float) option;
      (** class, and when it fires as a fraction of the excursion *)
  patch : bool;
  n_pick : int;  (** N = C + 1 + n_pick mod (M - C - 1) *)
  tail : int;  (** T - M *)
}

let show_side s =
  Printf.sprintf "{jit=%b profile=%s tracing=%b ring=%s}" s.jit
    (match s.profile with Some p -> Int64.to_string p | None -> "-")
    s.tracing
    (match s.ring with
     | Some (ms, keep) -> Printf.sprintf "%.2fms/%d" ms keep
     | None -> "-")

let show_landing l =
  Printf.sprintf
    "user_mode=%b c=%.2fms excursion=%.2fms straight=%s reverse=%s vbp=%s \
     witness=%b fault=%s patch=%b n_pick=%d tail=%d"
    l.user_mode l.c_ms l.excursion_ms (show_side l.straight)
    (show_side l.reverse)
    (match l.vbp with Some o -> Printf.sprintf "+0x%x" o | None -> "-")
    l.witness
    (match l.fault with
     | Some (cls, at) ->
       Printf.sprintf "%s@%.2f" (Vmm_fault.Plan.name cls) at
     | None -> "-")
    l.patch l.n_pick l.tail

let gen_side =
  let open QCheck.Gen in
  map4
    (fun jit profile tracing ring -> { jit; profile; tracing; ring })
    bool
    (opt (oneofl [ 997L; 7_919L; 65_536L ]))
    (frequency [ (3, return false); (1, return true) ])
    (opt (pair (oneofl [ 0.2; 0.5; 1.0; 4.0 ]) (int_range 1 8)))

let kernel_image user_mode =
  Kernel.build
    { (Kernel.default_config ~rate_mbps:150.0) with Kernel.user_mode }

let kernel_images = lazy (kernel_image false, kernel_image true)

(* Every class whose effect a restore undoes.  [Scsi_error] is left out:
   its medium errors are the disk's, not the guest's, and outlive a
   restore by design.  The link classes need link traffic, which this
   property has none of. *)
let landing_faults =
  Vmm_fault.Plan.
    [
      Guest_wild_jump; Guest_wild_store; Guest_iht_clobber; Guest_ptb_clobber;
      Guest_irq_storm; Guest_wedge; Nic_stall;
    ]

let gen_landing =
  let open QCheck.Gen in
  let text_len = Bytes.length (fst (Lazy.force kernel_images)).Asm.code in
  let* user_mode = bool in
  let* c_ms = float_range 0.5 25.0 in
  let* excursion_ms = float_range 0.3 4.0 in
  let* straight = gen_side in
  let* reverse = gen_side in
  let* vbp =
    opt (map (fun i -> i * Isa.width) (int_bound ((text_len / Isa.width) - 1)))
  in
  let* witness = bool in
  let* fault = opt (pair (oneofl landing_faults) (float_range 0.1 0.9)) in
  let* patch = frequency [ (1, return false); (3, return true) ] in
  let* n_pick = nat in
  let* tail = int_range 1 3000 in
  return
    {
      user_mode; c_ms; excursion_ms; straight; reverse; vbp; witness; fault;
      patch; n_pick; tail;
    }

let boot_side ~user_mode side =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  Vmm_hw.Cpu.set_jit_enabled (Machine.cpu m) side.jit;
  Vmm_obs.Tracer.set_enabled (Machine.tracer m) side.tracing;
  let mon = Monitor.install m in
  Option.iter (fun period -> Machine.set_profiling m ~period) side.profile;
  let images = Lazy.force kernel_images in
  Monitor.boot_guest mon
    (if user_mode then snd images else fst images)
    ~entry:Kernel.entry;
  Option.iter
    (fun (ms, keep) ->
      Monitor.checkpoint_start ~period_cycles:(cyc (ms /. 1000.)) ~keep mon)
    side.ring;
  (m, mon)

let digest_now mon = Snapshot.Full.digest (Monitor.checkpoint_now mon)

(* Restore [c] and run on to [n] and then [t] retired instructions,
   taking the digest at each boundary.  The stop at [n] takes no time:
   its callback resumes at once and arms the stop at [t]. *)
let land_and_run m mon c ~n ~t =
  let cpu = Machine.cpu m in
  Monitor.restore_checkpoint mon c;
  let at_n = ref None and at_t = ref None in
  let stop_at target cell k =
    Vmm_hw.Cpu.set_retire_stop cpu
      (Some
         ( Int64.of_int target,
           fun cpu ->
             cell := Some (digest_now mon);
             Vmm_hw.Cpu.set_stopped cpu false;
             k () ))
  in
  stop_at n at_n (fun () -> stop_at t at_t ignore);
  Vmm_hw.Cpu.set_stopped cpu false;
  let rec go budget =
    if !at_t = None && budget > 0 then begin
      Machine.run_for m ~cycles:(cyc 0.001);
      go (budget - 1)
    end
  in
  go 400;
  (!at_n, !at_t)

(* The wire form of a [Z0]/[z0], fed straight to the stub: no UART, so
   no interrupt and no link state. *)
let feed_stub mon cmd =
  String.iter
    (fun ch -> Stub.on_rx_byte (Monitor.stub mon) (Char.code ch))
    (Vmm_proto.Packet.frame (Command.command_to_wire cmd))

let prop_reverse_landing =
  QCheck.Test.make ~count:120 ~name:"reverse landing equals forward arrival"
    (QCheck.make ~print:show_landing gen_landing)
    (fun l ->
      let image =
        let plain, user = Lazy.force kernel_images in
        if l.user_mode then user else plain
      in
      let image_end = image.Asm.origin + Bytes.length image.Asm.code in
      (* Reverse side: C, the excursion, then the landing. *)
      let m, mon = boot_side ~user_mode:l.user_mode l.reverse in
      let c_time = cyc (l.c_ms /. 1000.) in
      let span = cyc (l.excursion_ms /. 1000.) in
      Machine.run_until m ~time:c_time;
      let c = Monitor.checkpoint_now mon in
      let c_retired = Int64.to_int (Snapshot.Full.retired c) in
      if l.witness then Monitor.set_race_witness mon true;
      let vbp = Option.map (fun off -> image.Asm.origin + off) l.vbp in
      Option.iter (fun a -> feed_stub mon (Command.Insert_breakpoint a)) vbp;
      let plan = Vmm_fault.Plan.create ~seed:7L ~engine:(Machine.engine m) in
      Option.iter
        (fun (cls, frac) ->
          let at =
            Int64.add c_time (Int64.of_float (frac *. Int64.to_float span))
          in
          Vmm_fault.Plan.arm plan ~monitor:mon cls ~at
            ~until:(Int64.add c_time span))
        l.fault;
      let mid = Int64.add c_time (Int64.div span 2L) in
      Machine.run_until m ~time:mid;
      (if l.patch then
         let pc = Vmm_hw.Cpu.pc (Machine.cpu m) in
         if pc >= image.Asm.origin && pc + Isa.width <= image_end then
           Isa.write (Machine.mem m) pc (Isa.Vmcall 0));
      Machine.run_until m ~time:(Int64.add c_time span);
      let m_retired =
        Int64.to_int (Vmm_hw.Cpu.instructions_retired (Machine.cpu m))
      in
      (* Undo what is not guest state, freeze at M and let the stub's
         replies drain before landing. *)
      Option.iter
        (fun (cls, _) -> ignore (Vmm_fault.Plan.disarm plan cls))
        l.fault;
      Option.iter (fun a -> feed_stub mon (Command.Remove_breakpoint a)) vbp;
      if l.witness then Monitor.set_race_witness mon false;
      Vmm_hw.Cpu.set_stopped (Machine.cpu m) true;
      Machine.run_for m ~cycles:(cyc 0.001);
      QCheck.assume (m_retired - c_retired >= 2);
      let n = c_retired + 1 + (l.n_pick mod (m_retired - c_retired - 1)) in
      let t = m_retired + l.tail in
      let reverse = land_and_run m mon c ~n ~t in
      (* Straight side: the same C, restored in place. *)
      let m, mon = boot_side ~user_mode:l.user_mode l.straight in
      Machine.run_until m ~time:c_time;
      let c' = Monitor.checkpoint_now mon in
      if Snapshot.Full.digest c' <> Snapshot.Full.digest c then
        QCheck.Test.fail_report "the sides disagree at C";
      let straight = land_and_run m mon c' ~n ~t in
      (match straight with
       | Some _, Some _ -> ()
       | _ -> QCheck.Test.fail_reportf "the straight side never reached %d" t);
      if fst reverse <> fst straight then
        QCheck.Test.fail_reportf "landing on N=%d differs from arriving" n;
      if snd reverse <> snd straight then
        QCheck.Test.fail_reportf "running on to T=%d after landing differs" t;
      true)

let () =
  Alcotest.run "replay (record/replay + reverse debugging)"
    [
      ( "trace",
        [
          Alcotest.test_case "round trip" `Quick test_trace_round_trip;
          Alcotest.test_case "rejects version drift" `Quick
            test_trace_rejects_version_drift;
        ] );
      ( "replay",
        [
          Alcotest.test_case "record/replay converges" `Quick
            test_record_replay_converges;
          Alcotest.test_case "record/replay across JIT modes" `Quick
            test_record_replay_jit_cross_mode;
          Alcotest.test_case "record/replay with profiler armed" `Quick
            test_record_replay_profiled;
          Alcotest.test_case "divergence detector" `Quick
            test_divergence_detector;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "restore round-trips digest" `Quick
            test_checkpoint_restore_digest;
          Alcotest.test_case "link seq state round-trips" `Quick
            test_link_seq_state_round_trip;
          Alcotest.test_case "restart returns to boot state" `Quick
            test_restart_returns_to_boot_state;
          Alcotest.test_case "second boot matches fresh boot" `Quick
            test_second_boot_matches_fresh_boot;
        ] );
      ( "pages",
        [
          Alcotest.test_case "captures share unwritten pages" `Quick
            test_captures_share_pages;
          Alcotest.test_case "zero pages shared across monitors" `Quick
            test_zero_pages_shared_across_monitors;
          Alcotest.test_case "restore onto unchanged memory writes nothing"
            `Quick test_restore_unchanged_writes_nothing;
          Alcotest.test_case "restore rejects a wrong page count" `Quick
            test_restore_rejects_wrong_page_count;
          Alcotest.test_case "periodic captures copy few pages" `Quick
            test_periodic_captures_copy_few_pages;
          Alcotest.test_case "digest of a fresh boot" `Quick
            test_digest_fresh_boot;
          Alcotest.test_case "digest of a page's first and last byte" `Quick
            test_digest_page_edges;
          Alcotest.test_case "digest of a written-then-zeroed page" `Quick
            test_digest_zeroed_page;
          QCheck_alcotest.to_alcotest prop_pages_match_full_copy;
        ] );
      ( "reverse",
        [
          Alcotest.test_case "rc/rs land pre-crash" `Quick
            test_reverse_lands_pre_crash;
          QCheck_alcotest.to_alcotest prop_reverse_landing;
        ] );
    ]
