(* Page-permission virtual breakpoints: armed pages map no-execute in
   the shadow tables and the monitor fields the exec faults, so guest
   memory is never mutated.  This suite pins the integrity guarantees —
   pristine text under a self-checksumming guest, self-modifying stores
   that neither corrupt the program nor disarm the site, exact-boundary
   faults out of chained superblocks, survival across warm restart, and
   bit-exact record/replay of break-ins, a property that no Z0/z0 or
   race-witness traffic leaves a trace in guest state — plus the table
   API itself. *)

module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Isa = Vmm_hw.Isa
module Asm = Vmm_hw.Asm
module Uart = Vmm_hw.Uart
module Costs = Vmm_hw.Costs
module Packet = Vmm_proto.Packet
module Command = Vmm_proto.Command
module Monitor = Core.Monitor
module Stub = Core.Stub
module Breakpoints = Core.Breakpoints
module Snapshot = Core.Snapshot
module Kernel = Vmm_guest.Kernel
module Session = Vmm_debugger.Session
module Recorder = Vmm_replay.Recorder
module Event = Vmm_replay.Event
module Registry = Vmm_obs.Registry

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let test_costs = { Costs.default with Costs.uart_cycles_per_byte = 2000 }

let fresh () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  (m, mon)

let reg m r = Cpu.read_reg (Machine.cpu m) r

(* -- Wire-level host (same harness as test_core) -- *)

type host = {
  send : string -> unit;
  inbox : Packet.event Queue.t;
}

let attach_host m =
  let uart = Machine.uart m in
  let decoder = Packet.decoder () in
  let inbox = Queue.create () in
  Uart.set_on_tx uart (fun b ->
      match Packet.feed decoder b with
      | Some e -> Queue.add e inbox
      | None -> ());
  let send s = String.iter (fun c -> Uart.inject_rx uart (Char.code c)) s in
  { send; inbox }

let send_command host cmd =
  host.send (Packet.frame (Command.command_to_wire cmd))

let rec next_reply ?(tries = 200) m host =
  match Queue.take_opt host.inbox with
  | Some (Packet.Packet p) -> Command.reply_of_wire p
  | Some (Packet.Ack | Packet.Nak | Packet.Bad_checksum) ->
    next_reply ~tries m host
  | None ->
    if tries = 0 then None
    else begin
      Machine.run_seconds m 0.002;
      next_reply ~tries:(tries - 1) m host
    end

let expect_ok m host what =
  match next_reply m host with
  | Some Command.Ok_reply -> ()
  | _ -> Alcotest.failf "expected OK for %s" what

let expect_break m host what =
  match next_reply m host with
  | Some (Command.Stopped (Command.Break addr)) -> addr
  | _ -> Alcotest.failf "expected break notification (%s)" what

(* -- Table API -- *)

let test_table_api () =
  let b = Breakpoints.create () in
  (* page accounting: two sites on one page, one on another *)
  check bool "add a" true (Breakpoints.add b ~addr:0x1010);
  check bool "add b" true (Breakpoints.add b ~addr:0x1ff8);
  check bool "add c" true (Breakpoints.add b ~addr:0x3000);
  check bool "re-add" false (Breakpoints.add b ~addr:0x3000);
  check bool "page armed" true (Breakpoints.page_armed b ~page:0x1234);
  check bool "other page" false (Breakpoints.page_armed b ~page:0x2000);
  check (Alcotest.list int) "armed pages sorted" [ 0x1000; 0x3000 ]
    (Breakpoints.armed_pages b);
  (* removing one of two sites keeps the page armed *)
  ignore (Breakpoints.remove b ~addr:0x1010);
  check bool "still armed" true (Breakpoints.page_armed b ~page:0x1000);
  ignore (Breakpoints.remove b ~addr:0x1ff8);
  check bool "page released" false (Breakpoints.page_armed b ~page:0x1000);
  check (Alcotest.list int) "clear returns armed" [ 0x3000 ] (Breakpoints.clear b);
  check (Alcotest.list int) "clear drops pages" [] (Breakpoints.armed_pages b)

(* -- Self-checksumming guest: armed text reads pristine -- *)

(* The guest repeatedly checksums its own text (which includes the armed
   site) into r3 and counts laps in r7.  The armed site itself is dead
   code behind the loop's jmp, so the guest never stops — but it fetches
   from the armed page on every lap, exercising the step-through path. *)
let checksum_guest () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x20000);
  Asm.movi a 1 (Asm.imm 0x1000);
  Asm.movi a 2 (Asm.imm 0x100);
  Asm.label a "loop";
  Asm.csum a 3 1 2;
  Asm.addi a 7 7 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Asm.label a "deadcode";
  Asm.nop a;
  Asm.assemble a

let run_checksum ~armed =
  let m, mon = fresh () in
  let p = checksum_guest () in
  Monitor.boot_guest mon p ~entry:0x1000;
  if armed then begin
    let host = attach_host m in
    Machine.run_seconds m 0.002;
    send_command host (Command.Insert_breakpoint (Asm.symbol p "deadcode"));
    expect_ok m host "Z0"
  end;
  Machine.run_seconds m 0.05;
  check bool "guest made laps" true (reg m 7 > 2);
  reg m 3

let test_self_checksumming_guest () =
  let baseline = run_checksum ~armed:false in
  check bool "armed site is invisible to csum" true
    (run_checksum ~armed:true = baseline)

(* -- Self-modifying guest: stores neither corrupt nor disarm -- *)

(* The guest overwrites an armed instruction with [movi r1, 99] before
   reaching it.  The store must land (no BRK byte to collide with), the next hit must still report, and resuming must
   execute the guest's new instruction. *)
let test_self_modifying_armed_site () =
  let m, mon = fresh () in
  let enc = Isa.encode (Isa.Movi (1, 99)) in
  let word off =
    Char.code (Bytes.get enc off)
    lor (Char.code (Bytes.get enc (off + 1)) lsl 8)
    lor (Char.code (Bytes.get enc (off + 2)) lsl 16)
    lor (Char.code (Bytes.get enc (off + 3)) lsl 24)
  in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x20000);
  (* wait for the host's go signal at 0x18000 *)
  Asm.movi a 4 (Asm.imm 0x18000);
  Asm.label a "wait";
  Asm.ld a 5 4 0;
  Asm.cmpi a 5 (Asm.imm 1);
  Asm.jnz a (Asm.lbl "wait");
  (* overwrite the armed site with movi r1, 99 *)
  Asm.movi a 6 (Asm.imm (word 0));
  Asm.movi a 7 (Asm.imm (word 4));
  Asm.movi a 8 (Asm.lbl "patchme");
  Asm.st a 8 0 6;
  Asm.st a 8 4 7;
  Asm.jmp a (Asm.lbl "patchme");
  Asm.label a "patchme";
  Asm.movi a 1 (Asm.imm 1);
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  let p = Asm.assemble a in
  Monitor.boot_guest mon p ~entry:0x1000;
  let host = attach_host m in
  Machine.run_seconds m 0.002;
  let site = Asm.symbol p "patchme" in
  send_command host (Command.Insert_breakpoint site);
  expect_ok m host "Z0";
  (* release the guest: it self-modifies, then runs into the site *)
  send_command host (Command.Write_memory { addr = 0x18000; data = "\x01\x00\x00\x00" });
  expect_ok m host "go";
  check int "hit at the rewritten site" site (expect_break m host "first hit");
  (* the host reads the guest's NEW bytes — the store landed untouched *)
  send_command host (Command.Read_memory { addr = site; len = Isa.width });
  (match next_reply m host with
   | Some (Command.Memory data) ->
     check bool "store visible, not corrupted" true
       (Isa.decode ~addr:site (Bytes.of_string data) ~off:0 = Isa.Movi (1, 99))
   | _ -> Alcotest.fail "expected memory");
  (* the store did not disarm the site *)
  check bool "site still armed" true
    (Breakpoints.mem (Stub.breakpoints (Monitor.stub mon)) ~addr:site);
  send_command host Command.Continue;
  expect_ok m host "continue";
  Machine.run_seconds m 0.02;
  check int "guest's new instruction executed" 99 (reg m 1)

(* -- JIT: a chained superblock faults at the exact boundary pc -- *)

let test_superblock_nx_boundary () =
  let m, mon = fresh () in
  Cpu.set_jit_enabled (Machine.cpu m) true;
  (* hot loop on page 0x1000 chaining into page 0x2000 and back *)
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x20000);
  Asm.label a "loop";
  Asm.addi a 7 7 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "tail");
  Asm.space a (0x1000 - (Asm.here a - 0x1000));
  (* -- page boundary: 0x2000 -- *)
  Asm.label a "tail";
  Asm.addi a 6 6 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  let p = Asm.assemble a in
  check int "tail heads the second page" 0x2000 (Asm.symbol p "tail");
  Monitor.boot_guest mon p ~entry:0x1000;
  Machine.run_seconds m 0.01 (* compile + chain both blocks *);
  let cpu = Machine.cpu m in
  check bool "blocks compiled" true (Cpu.blocks_compiled cpu > 0);
  check bool "superblock chains followed" true (Cpu.block_chain_follows cpu > 0);
  (* arm the chain target: the next chain-follow must fault exactly at
     0x2000, not run a stale compiled block through the armed page *)
  let host = attach_host m in
  send_command host (Command.Insert_breakpoint 0x2000);
  expect_ok m host "Z0";
  check int "fault at exact boundary pc" 0x2000 (expect_break m host "NX chain");
  check int "pc parked on the boundary" 0x2000 (Cpu.pc cpu);
  (* transparent to the program: resume and the loop keeps counting *)
  send_command host (Command.Remove_breakpoint 0x2000);
  expect_ok m host "z0";
  send_command host Command.Continue;
  expect_ok m host "continue";
  let laps = reg m 7 in
  Machine.run_seconds m 0.01;
  check bool "loop still live" true (reg m 7 > laps)

(* -- Warm restart: armed virtual breakpoints survive R -- *)

let test_warm_restart_keeps_vbps () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  let program = Kernel.build (Kernel.default_config ~rate_mbps:20.0) in
  Monitor.boot_guest mon program ~entry:Kernel.entry;
  Machine.run_seconds m 0.01;
  let session = Session.attach m in
  let target = Asm.symbol program "timer_handler" in
  check bool "insert" true (Session.insert_breakpoint session target);
  (match Session.wait_stop ~timeout_s:1.0 session with
   | Some (Command.Break a) -> check int "hit before restart" target a
   | _ -> Alcotest.fail "expected a hit before restart");
  (match Session.restart session with
   | Session.Restarted -> ()
   | _ -> Alcotest.fail "restart failed");
  (* nothing was re-planted: the armed table re-arms the fresh shadow
     lazily *)
  (match Session.wait_stop ~timeout_s:1.0 session with
   | Some (Command.Break a) -> check int "hit after restart" target a
   | _ -> Alcotest.fail "virtual breakpoint should survive the restart");
  check bool "remove" true (Session.remove_breakpoint session target);
  Session.continue_ session;
  Machine.run_seconds m 0.05;
  let c = Kernel.read_counters (Machine.mem m) program in
  check bool "guest healthy after restart" true (c.Kernel.ticks > 0)

(* -- Record/replay: virtual break-ins replay bit-exactly -- *)

(* One scripted debug campaign: run, hit an armed virtual breakpoint
   twice, detach, run free.  Recording it and replaying the trace must
   converge on the identical final-state digest with zero divergence,
   and the trace must carry the Vbp_hit events. *)
let vbp_campaign ?replay () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let recorder = Machine.recorder m in
  (match replay with
   | None -> Recorder.start_record recorder
   | Some events -> Recorder.start_replay recorder events);
  let mon = Monitor.install m in
  let program = Kernel.build (Kernel.default_config ~rate_mbps:20.0) in
  Monitor.boot_guest mon program ~entry:Kernel.entry;
  let session = Session.attach m in
  Machine.run_seconds m 0.005;
  let target = Asm.symbol program "timer_handler" in
  ignore (Session.insert_breakpoint session target);
  (match Session.wait_stop ~timeout_s:1.0 session with
   | Some (Command.Break _) -> ()
   | _ -> Alcotest.fail "expected first recorded hit");
  Session.continue_ session;
  (match Session.wait_stop ~timeout_s:1.0 session with
   | Some (Command.Break _) -> ()
   | _ -> Alcotest.fail "expected second recorded hit");
  ignore (Session.remove_breakpoint session target);
  Session.continue_ session;
  Machine.run_seconds m 0.02;
  let digest = Snapshot.Full.digest (Monitor.checkpoint_now mon) in
  let divergence =
    match replay with
    | Some _ -> Recorder.finish_replay recorder
    | None -> None
  in
  let events = Recorder.recorded recorder in
  Recorder.stop recorder;
  (events, digest, divergence)

let test_record_replay_vbp_hits () =
  let events, digest, _ = vbp_campaign () in
  let hits =
    List.filter
      (fun e -> match e.Event.payload with Event.Vbp_hit _ -> true | _ -> false)
      events
  in
  check int "two break-ins on the trace" 2 (List.length hits);
  let _, digest', div = vbp_campaign ~replay:events () in
  (match div with
   | Some d ->
     Alcotest.failf "vbp replay diverged: %s"
       (Format.asprintf "%a" Recorder.pp_divergence d)
   | None -> ());
  check bool "replay digest identical" true (digest' = digest)

(* -- Metrics: the bp_virtual_* gauges are live -- *)

let test_vbp_metrics () =
  let m, mon = fresh () in
  let p = checksum_guest () in
  Monitor.boot_guest mon p ~entry:0x1000;
  let host = attach_host m in
  Machine.run_seconds m 0.002;
  send_command host (Command.Insert_breakpoint (Asm.symbol p "deadcode"));
  expect_ok m host "Z0";
  Machine.run_seconds m 0.02 (* step-throughs accumulate *);
  let snap = Registry.snapshot (Machine.registry m) in
  let gauge name =
    match List.assoc_opt name snap with
    | Some (Registry.Gauge v) -> int_of_float v
    | _ -> Alcotest.failf "missing gauge %s" name
  in
  check int "one armed site" 1 (gauge "bp_virtual_armed_sites");
  check int "one armed page" 1 (gauge "bp_virtual_armed_pages");
  check bool "exec faults counted" true (gauge "bp_virtual_exec_faults_total" > 0);
  check bool "step-throughs counted" true
    (gauge "bp_virtual_step_throughs_total" > 0);
  check int "no hits (dead code site)" 0 (gauge "bp_virtual_hits_total")

(* -- Property: breakpoint traffic leaves no trace in guest state -- *)

type op = Insert of int | Remove of int | Witness of bool

let op_to_string = function
  | Insert a -> Printf.sprintf "Z0 0x%x" a
  | Remove a -> Printf.sprintf "z0 0x%x" a
  | Witness on -> Printf.sprintf "witness %b" on

(* A random Z0/z0/witness sequence over the kernel's text.  Sites come
   from a small pool so removes often hit armed sites and several sites
   share a page. *)
let kernel = lazy (Kernel.build (Kernel.default_config ~rate_mbps:20.0))

let ops_arb =
  let program = Lazy.force kernel in
  let n_instr = Bytes.length program.Asm.code / Isa.width in
  let open QCheck.Gen in
  let site = map (fun i -> Kernel.entry + (i * Isa.width)) (int_bound (n_instr - 1)) in
  let op pool =
    frequency
      [
        (4, map (fun a -> Insert a) (oneofl pool));
        (3, map (fun a -> Remove a) (oneofl pool));
        (1, map (fun on -> Witness on) bool);
      ]
  in
  let gen = list_size (1 -- 6) site >>= fun pool -> list_size (1 -- 12) (op pool) in
  QCheck.make gen ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))

(* The guest is frozen before its first instruction — devices still
   unprogrammed — so nothing but the debug plane can move guest state.
   It is frozen at the CPU rather than halted over the wire: a stub halt
   would make the final Detach resume it.  Each digest follows a
   reconnect, which resets the link's sequence numbers (part of the
   digest) to the same state whatever traffic came before. *)
let prop_z0_invisible =
  QCheck.Test.make ~name:"Z0/z0/witness/detach leave guest state untouched"
    ~count:20 ops_arb (fun ops ->
      let m, mon = fresh () in
      let program = Lazy.force kernel in
      Monitor.boot_guest mon program ~entry:Kernel.entry;
      Cpu.set_stopped (Machine.cpu m) true;
      let session = Session.attach m in
      let guest_len = (Monitor.layout mon).Core.Vm_layout.monitor_base in
      let observe () =
        if not (Session.reconnect session) then
          QCheck.Test.fail_report "reconnect failed";
        ( Snapshot.Full.digest (Monitor.checkpoint_now mon),
          Vmm_hw.Phys_mem.read_bytes (Machine.mem m) ~addr:0 ~len:guest_len )
      in
      let before = observe () in
      let bps = Stub.breakpoints (Monitor.stub mon) in
      List.iter
        (function
          | Insert a ->
            if not (Session.insert_breakpoint session a) then
              QCheck.Test.fail_reportf "Z0 0x%x refused" a
          | Remove a ->
            if not (Session.remove_breakpoint session a) then
              QCheck.Test.fail_reportf "z0 0x%x refused" a
          | Witness on -> Monitor.set_race_witness mon on)
        ops;
      List.iter
        (fun a ->
          let wire = Session.read_memory session ~addr:a ~len:Isa.width in
          if wire <> Monitor.guest_read mon ~addr:a ~len:Isa.width then
            QCheck.Test.fail_reportf "m over armed site 0x%x differs" a)
        (Breakpoints.addresses bps);
      if not (Session.detach session) then QCheck.Test.fail_report "detach";
      (* only the monitor's observe sites may keep a page armed *)
      let observe_pages =
        List.sort_uniq compare
          (List.map (fun a -> a land lnot 0xFFF) (Breakpoints.observed bps))
      in
      if Breakpoints.count bps <> 0 || Breakpoints.armed_pages bps <> observe_pages
      then QCheck.Test.fail_report "detach left sites armed";
      observe () = before)

let () =
  Alcotest.run "vmm_vbp"
    [
      ( "table",
        [ Alcotest.test_case "armed-site API" `Quick test_table_api ] );
      ( "integrity",
        [
          Alcotest.test_case "self-checksumming guest" `Quick
            test_self_checksumming_guest;
          Alcotest.test_case "self-modifying armed site" `Quick
            test_self_modifying_armed_site;
        ] );
      ( "jit",
        [
          Alcotest.test_case "superblock NX boundary" `Quick
            test_superblock_nx_boundary;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "warm restart keeps vbps" `Quick
            test_warm_restart_keeps_vbps;
        ] );
      ( "replay",
        [
          Alcotest.test_case "record/replay break-ins" `Quick
            test_record_replay_vbp_hits;
        ] );
      ( "metrics",
        [ Alcotest.test_case "gauges live" `Quick test_vbp_metrics ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_z0_invisible ]);
    ]
