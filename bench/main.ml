(* Benchmark harness: one target per experiment in DESIGN.md.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- fig3.1       -- the paper's figure
     dune exec bench/main.exe -- headline     -- 5.4x / 26% numbers
     dune exec bench/main.exe -- stability    -- E3 fault-injection matrix
     dune exec bench/main.exe -- gauntlet     -- randomized multi-fault campaigns
     dune exec bench/main.exe -- customize    -- E4 environment comparison
     dune exec bench/main.exe -- debugload    -- E5 debugging under load
     dune exec bench/main.exe -- ablation-trap         -- E6
     dune exec bench/main.exe -- ablation-passthrough  -- E7
     dune exec bench/main.exe -- micro        -- M1 bechamel microbenches
     dune exec bench/main.exe -- profile      -- continuous-profiler overhead
     dune exec bench/main.exe -- analysis     -- M3 static-verifier throughput *)

module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Asm = Vmm_hw.Asm
module Isa = Vmm_hw.Isa
module Costs = Vmm_hw.Costs
module Uart = Vmm_hw.Uart
module Packet = Vmm_proto.Packet
module Command = Vmm_proto.Command
module Monitor = Core.Monitor
module Kernel = Vmm_guest.Kernel
module Workload = Vmm_harness.Workload
module Session = Vmm_debugger.Session
module Embedded = Vmm_baseline.Embedded_debugger
module Hw_simulator = Vmm_baseline.Hw_simulator

module Json = Vmm_obs.Json

let section title =
  Printf.printf "\n==================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================\n"

(* ---------------------------------------------------------------- *)
(* Run telemetry: machine-readable result files next to the console  *)
(* tables, so CI and notebooks consume the same run.                 *)
(* ---------------------------------------------------------------- *)

(* Resolve HEAD by reading .git directly: no subprocess, and a missing
   repo (running from an export) degrades to "unknown". *)
let git_rev () =
  let read_line path =
    try
      let ic = open_in path in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      Some (String.trim line)
    with Sys_error _ -> None
  in
  match read_line ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    let r = String.sub head 5 (String.length head - 5) in
    (match read_line (Filename.concat ".git" r) with
     | Some rev when rev <> "" -> rev
     | _ -> "unknown")
  | Some rev when rev <> "" -> rev
  | _ -> "unknown"

let write_json path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n[telemetry] wrote %s\n" path

let measurement_json (m : Workload.measurement) =
  let idle =
    Int64.sub m.Workload.elapsed_cycles m.Workload.busy_cycles
  in
  Json.Obj
    [
      ("system", Json.String (Workload.system_name m.Workload.system));
      ("requested_mbps", Json.Float m.Workload.requested_mbps);
      ("achieved_mbps", Json.Float m.Workload.achieved_mbps);
      ("cpu_load", Json.Float m.Workload.cpu_load);
      ("duration_s", Json.Float m.Workload.duration_s);
      ("frames", Json.Int m.Workload.frames);
      ("busy_cycles", Json.Int (Int64.to_int m.Workload.busy_cycles));
      ("elapsed_cycles", Json.Int (Int64.to_int m.Workload.elapsed_cycles));
      ("idle_cycles", Json.Int (Int64.to_int idle));
      ( "breakdown",
        Json.Obj
          (List.map
             (fun (cat, v) -> (cat, Json.Int (Int64.to_int v)))
             m.Workload.breakdown) );
      ("irq_latency_p50_cycles", Json.Float m.Workload.irq_latency_p50);
      ("irq_latency_p99_cycles", Json.Float m.Workload.irq_latency_p99);
    ]

let run_header bench =
  [
    ("bench", Json.String bench);
    ("git_rev", Json.String (git_rev ()));
    ("seed", Json.Int 0);
    ("cpu_hz", Json.Float Costs.default.Costs.cpu_hz);
  ]

(* ---------------------------------------------------------------- *)
(* E1 — Fig 3.1: CPU load vs transfer rate on the three systems.    *)
(* ---------------------------------------------------------------- *)

(* BENCH_FIG31_RATES=25,100 overrides the sweep — CI smoke runs a short
   one and still exercises the full telemetry path. *)
let fig3_1_rates =
  match Sys.getenv_opt "BENCH_FIG31_RATES" with
  | Some spec ->
    let rates =
      String.split_on_char ',' spec
      |> List.filter_map (fun tok -> float_of_string_opt (String.trim tok))
    in
    if rates = [] then failwith "BENCH_FIG31_RATES: no valid rates" else rates
  | None ->
    [ 25.0; 50.0; 100.0; 150.0; 200.0; 300.0; 400.0; 500.0; 600.0; 700.0 ]

let fig3_1 () =
  section
    "E1 / Fig 3.1 -- CPU load (%) vs transfer rate (Mbps)\n\
     ('*' marks saturation: achieved < 95% of requested)";
  Printf.printf "%10s %12s %12s %12s\n" "rate_mbps" "real_hw" "lw_vmm"
    "vmware_like";
  let cell (m : Workload.measurement) =
    Printf.sprintf "%5.1f%%%s"
      (100.0 *. m.Workload.cpu_load)
      (if m.Workload.achieved_mbps < 0.95 *. m.Workload.requested_mbps then "*"
       else " ")
  in
  let results =
    List.map
      (fun rate ->
        let row =
          List.map
            (fun sys ->
              let m, _ = Workload.run sys ~rate_mbps:rate ~duration_s:0.25 in
              m)
            Workload.all_systems
        in
        (match row with
         | [ bare; lw; full ] ->
           Printf.printf "%10.0f %12s %12s %12s\n" rate (cell bare) (cell lw)
             (cell full)
         | _ -> assert false);
        (rate, row))
      fig3_1_rates
  in
  (* a small ASCII rendering of the figure *)
  Printf.printf "\n  CPU load\n";
  let series =
    [
      (Workload.Bare_metal, 'R');
      (Workload.Lightweight_vmm, 'L');
      (Workload.Hosted_full_vmm, 'V');
    ]
  in
  for percent = 10 downto 0 do
    Printf.printf "  %3d%% |" (percent * 10);
    List.iter
      (fun (_rate, row) ->
        let ch = ref ' ' in
        let mark_for sys mark =
          match List.find_opt (fun m -> m.Workload.system = sys) row with
          | Some m ->
            if
              int_of_float ((100.0 *. m.Workload.cpu_load /. 10.0) +. 0.5)
              = percent
            then ch := mark
          | None -> ()
        in
        List.iter (fun (sys, mark) -> mark_for sys mark) series;
        Printf.printf "  %c  " !ch)
      results;
    print_newline ()
  done;
  Printf.printf "       +";
  List.iter (fun _ -> Printf.printf "-----") results;
  Printf.printf "\n        ";
  List.iter (fun (rate, _) -> Printf.printf "%4.0f " rate) results;
  Printf.printf
    " Mbps\n  R = real hardware, L = lightweight VMM, V = VMware-like full VMM\n";
  write_json "BENCH_fig31.json"
    (Json.Obj
       (run_header "fig3.1"
       @ [
           ( "rates",
             Json.List
               (List.map
                  (fun (rate, row) ->
                    Json.Obj
                      [
                        ("rate_mbps", Json.Float rate);
                        ( "environments",
                          Json.List (List.map measurement_json row) );
                      ])
                  results) );
         ]))

(* ---------------------------------------------------------------- *)
(* E2 — headline ratios.                                            *)
(* ---------------------------------------------------------------- *)

let headline () =
  section "E2 -- maximum sustainable transfer rate (paper Section 3 text)";
  let max_of sys =
    Workload.max_sustainable_rate ~duration_s:0.2 sys ~lo:5.0 ~hi:1000.0
      ~steps:11
  in
  let bare = max_of Workload.Bare_metal in
  let lw = max_of Workload.Lightweight_vmm in
  let full = max_of Workload.Hosted_full_vmm in
  Printf.printf "%-28s %10.1f Mbps\n" "real hardware" bare;
  Printf.printf "%-28s %10.1f Mbps\n" "lightweight VMM" lw;
  Printf.printf "%-28s %10.1f Mbps\n" "VMware-like full VMM" full;
  Printf.printf "\n%-40s %8.2fx   (paper: 5.4x)\n"
    "lightweight VMM vs full VMM" (lw /. full);
  Printf.printf "%-40s %7.1f%%   (paper: ~26%%)\n"
    "lightweight VMM vs real hardware"
    (100.0 *. lw /. bare);
  write_json "BENCH_headline.json"
    (Json.Obj
       (run_header "headline"
       @ [
           ("bare_metal_mbps", Json.Float bare);
           ("lightweight_vmm_mbps", Json.Float lw);
           ("full_vmm_mbps", Json.Float full);
           ("lw_vs_full_ratio", Json.Float (lw /. full));
           ("lw_vs_bare_ratio", Json.Float (lw /. bare));
         ]))

(* ---------------------------------------------------------------- *)
(* E3 — stability under injected guest failure.                     *)
(* ---------------------------------------------------------------- *)

let bench_costs = { Costs.default with Costs.uart_cycles_per_byte = 2000 }

let buggy_guest bug =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x20000);
  (match bug with
   | `Wild_store ->
     Asm.movi a 2 (Asm.imm 0x80000);
     Asm.movi a 3 (Asm.imm 0xDEAD);
     Asm.label a "sweep";
     Asm.st a 2 0 3;
     Asm.addi a 2 2 (Asm.imm 4);
     Asm.cmpi a 2 (Asm.imm 0x90000);
     Asm.jnz a (Asm.lbl "sweep")
   | `Corrupt_iht ->
     Asm.movi a 2 (Asm.imm 0x3000);
     Asm.liht a 2;
     Asm.int_ a 40
   | `Jump_void ->
     Asm.movi a 2 (Asm.imm 0xFF000000);
     Asm.jr a 2
   | `Mask_interrupts ->
     (* guest masks every interrupt line, then hangs with interrupts off:
        a debugger relying on the guest's interrupt plumbing is cut off *)
     Asm.movi a 2 (Asm.imm 0xFF);
     Asm.outi a (Asm.imm (Machine.Ports.pic + 1)) 2;
     Asm.cli a);
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.assemble a

let bug_name = function
  | `Wild_store -> "wild store sweep"
  | `Corrupt_iht -> "interrupt table corrupted"
  | `Jump_void -> "jump into unmapped memory"
  | `Mask_interrupts -> "guest masks all interrupts"

let lw_survives bug =
  let machine =
    Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:bench_costs ()
  in
  let monitor = Monitor.install machine in
  Monitor.boot_guest monitor (buggy_guest bug) ~entry:0x1000;
  let session = Session.attach machine in
  Machine.run_seconds machine 0.05;
  match Session.read_registers session with Some _ -> true | None -> false

let embedded_survives bug =
  let machine =
    Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:bench_costs ()
  in
  let agent = Embedded.attach machine ~region:0x80000 in
  Machine.boot machine (buggy_guest bug) ~entry:0x1000;
  (try Machine.run_seconds machine 0.05
   with Cpu.Panic _ -> Embedded.mark_machine_dead agent);
  String.iter
    (fun c -> Uart.inject_rx (Machine.uart machine) (Char.code c))
    (Packet.frame (Command.command_to_wire Command.Read_registers));
  Embedded.service agent > 0

let stability () =
  section "E3 -- debugger availability after injected OS bugs";
  Printf.printf "%-32s %18s %18s\n" "injected bug" "lightweight VMM"
    "embedded debugger";
  List.iter
    (fun bug ->
      let verdict b = if b then "ALIVE" else "DEAD" in
      Printf.printf "%-32s %18s %18s\n" (bug_name bug)
        (verdict (lw_survives bug))
        (verdict (embedded_survives bug)))
    [ `Wild_store; `Corrupt_iht; `Jump_void; `Mask_interrupts ];
  Printf.printf
    "\nExpected: the monitor's stub survives every fault (paper claim 1);\n\
     the embedded debugger dies whenever its resources are touched.\n"

(* ---------------------------------------------------------------- *)
(* Gauntlet — randomized multi-fault campaigns with recovery.       *)
(* ---------------------------------------------------------------- *)

(* Each campaign boots a fresh streaming guest under the monitor with
   the watchdog armed, then throws 2-4 overlapping fault classes at it
   from a seeded schedule.  Survival means the stub keeps answering
   probes within the timeout through the whole campaign and, after
   recovery (reconnects for link damage, a warm restart for a crashed
   or wedged guest), a full debug round-trip still works.  The embedded
   baseline faces an equivalent per-campaign fault mix and is expected
   to die whenever guest faults touch its resources.  Knobs:
     BENCH_GAUNTLET_N              campaigns (default 50)
     BENCH_GAUNTLET_SEED           base seed (campaign i uses base + i)
     BENCH_GAUNTLET_TRACE_DIR      drop failing campaigns' replay traces
     BENCH_GAUNTLET_VERIFY_REPLAY  1: record-then-replay every campaign  *)

module Plan = Vmm_fault.Plan
module Chaos = Vmm_fault.Chaos
module Rng = Vmm_sim.Rng
module Recorder = Vmm_replay.Recorder
module Trace = Vmm_replay.Trace
module Snapshot = Core.Snapshot

let gauntlet_n =
  match Sys.getenv_opt "BENCH_GAUNTLET_N" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 50)
  | None -> 50

let gauntlet_base_seed =
  match Sys.getenv_opt "BENCH_GAUNTLET_SEED" with
  | Some s -> (try Int64.of_string (String.trim s) with _ -> 0xC0FFEEL)
  | None -> 0xC0FFEEL

(* Every campaign records its nondeterministic events.  A campaign that
   does not survive drops its trace into BENCH_GAUNTLET_TRACE_DIR (when
   set) as a replayable artifact -- CI uploads these so the exact failing
   run can be re-executed offline with [lwvmm_dbg replay].
   BENCH_GAUNTLET_VERIFY_REPLAY=1 additionally re-runs every campaign
   from its recorded trace and insists the re-run is bit-identical:
   same survival verdicts, same counters, same final-state digest. *)
let gauntlet_trace_dir = Sys.getenv_opt "BENCH_GAUNTLET_TRACE_DIR"

let gauntlet_verify_replay =
  match Sys.getenv_opt "BENCH_GAUNTLET_VERIFY_REPLAY" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let percentile sorted p =
  match Array.length sorted with
  | 0 -> nan
  | n -> sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* Pick [k] distinct classes from [Plan.all] with the campaign rng. *)
let pick_classes rng k =
  let pool = ref Plan.all in
  let picked = ref [] in
  for _ = 1 to k do
    let n = List.length !pool in
    if n > 0 then begin
      let i = Rng.int rng n in
      let cls = List.nth !pool i in
      picked := cls :: !picked;
      pool := List.filter (fun c -> c <> cls) !pool
    end
  done;
  List.rev !picked

type campaign_result = {
  g_seed : int64;
  g_classes : Plan.fault_class list;
  g_lw_survived : bool;
  g_embedded_survived : bool;
  g_reconnects : int;
  g_restarted : bool;
  g_crashed : bool;
  g_wedge_breakins : int;
  g_probe_cycles : float list;  (** sim cycles per answered probe *)
}

(* [replay]: consume a recorded trace instead of the live chaos RNG;
   the divergence detector then cross-checks every other recorded
   nondeterministic event against the re-run. *)
let gauntlet_campaign ?replay ~seed () =
  let rng = Rng.create ~seed in
  let cyc s = Costs.cycles_of_seconds bench_costs s in
  (* -- lightweight VMM under fire -- *)
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:bench_costs () in
  let recorder = Machine.recorder m in
  (match replay with
   | None -> Recorder.start_record recorder
   | Some events -> Recorder.start_replay recorder events);
  let mon = Monitor.install m in
  let program = Kernel.build (Kernel.default_config ~rate_mbps:20.0) in
  Monitor.boot_guest mon program ~entry:Kernel.entry;
  Monitor.watchdog_start mon;
  Machine.run_seconds m 0.01;
  let plan = Plan.create ~seed ~engine:(Machine.engine m) in
  let chaos = Plan.chaos plan in
  Chaos.set_recorder chaos recorder;
  let session =
    Session.attach
      ~wrap_to_target:(Chaos.wrap ~source:"chaos.h2t" chaos)
      ~wrap_to_host:(Chaos.wrap ~source:"chaos.t2h" chaos) m
  in
  let classes = pick_classes rng (2 + Rng.int rng 3) in
  let now = Machine.now m in
  List.iter
    (fun cls ->
      let at = Int64.add now (cyc (0.002 +. Rng.float rng 0.02)) in
      let until = Int64.add at (cyc (0.02 +. Rng.float rng 0.04)) in
      Plan.arm plan ~monitor:mon cls ~at ~until)
    classes;
  let probe_cycles = ref [] in
  let reconnects = ref 0 in
  let probes_answered = ref 0 in
  let probes_sent = ref 0 in
  let probe ?(timeout_s = 1.0) () =
    incr probes_sent;
    match Session.read_registers ~timeout_s session with
    | Some _ ->
      incr probes_answered;
      probe_cycles :=
        (Session.last_latency_s session *. bench_costs.Costs.cpu_hz)
        :: !probe_cycles;
      true
    | None ->
      if not (Session.link_up session) then begin
        incr reconnects;
        ignore (Session.reconnect ~timeout_s:1.0 session)
      end;
      false
  in
  (* drive probes through the fault windows *)
  for _ = 1 to 16 do
    ignore (probe ~timeout_s:0.5 ());
    Machine.run_seconds m 0.005
  done;
  (* past the windows: recover the link deterministically *)
  let rec recover tries =
    probe () || (tries > 0 && (incr reconnects;
                               ignore (Session.reconnect ~timeout_s:1.0 session);
                               recover (tries - 1)))
  in
  let link_ok = recover 8 in
  (* a crashed guest refuses resume: warm-restart it; a wedged one was
     parked by the watchdog and restarts the same way *)
  let crashed = Monitor.crashed mon in
  let wedges = (Monitor.stats mon).Monitor.wedge_breakins in
  let restarted =
    if crashed || wedges > 0 then
      Session.restart ~timeout_s:2.0 session = Session.Restarted
    else false
  in
  (* the paper's claim, post-recovery: a full debug round-trip works *)
  let roundtrip =
    Session.insert_breakpoint session Kernel.entry
    && Session.read_memory session ~addr:Kernel.entry ~len:16 <> None
    && Session.remove_breakpoint session Kernel.entry
    && (Session.continue_ session;
        Session.is_running session <> None)
    && probe ()
  in
  let lw_survived =
    link_ok && roundtrip && ((not (crashed || wedges > 0)) || restarted)
  in
  (* seal the recording before the embedded baseline spins up its own
     machine: the trace covers exactly the lightweight-VMM campaign *)
  let final_digest = Snapshot.Full.digest (Monitor.checkpoint_now mon) in
  (* the post-mortem artifact, when the campaign crashed or wedged the
     guest; sticky across the warm restart above *)
  let bundle = Monitor.crash_bundle mon in
  let divergence =
    match replay with
    | Some _ -> Recorder.finish_replay recorder
    | None -> None
  in
  let events = Recorder.recorded recorder in
  Recorder.stop recorder;
  (* -- embedded baseline under the equivalent mix -- *)
  let embedded_survived =
    let m2 =
      Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:bench_costs ()
    in
    let agent = Embedded.attach m2 ~region:0x80000 in
    let bug =
      (* the first guest class maps to the closest self-hosted bug; a
         campaign of pure link/device faults boots the healthy kernel *)
      List.find_map
        (fun cls ->
          match cls with
          | Plan.Guest_wild_jump -> Some (buggy_guest `Jump_void)
          | Plan.Guest_wild_store -> Some (buggy_guest `Wild_store)
          | Plan.Guest_iht_clobber | Plan.Guest_ptb_clobber ->
            Some (buggy_guest `Corrupt_iht)
          | Plan.Guest_irq_storm | Plan.Guest_wedge ->
            Some (buggy_guest `Mask_interrupts)
          | _ -> None)
        classes
    in
    (match bug with
     | Some program -> Machine.boot m2 program ~entry:0x1000
     | None ->
       Machine.boot m2 (Kernel.build (Kernel.default_config ~rate_mbps:20.0))
         ~entry:Kernel.entry);
    (try Machine.run_seconds m2 0.05
     with Cpu.Panic _ -> Embedded.mark_machine_dead agent);
    (* link classes damage the unprotected wire the same way *)
    let chaos2 =
      Chaos.create ~engine:(Machine.engine m2)
        ~rng:(Rng.create ~seed:(Int64.add seed 0x10000L))
        ()
    in
    let has_link =
      List.exists
        (fun c ->
          match c with
          | Plan.Link_drop | Plan.Link_corrupt | Plan.Link_dup
          | Plan.Link_delay ->
            true
          | _ -> false)
        classes
    in
    if has_link then begin
      Chaos.set_profile chaos2
        { Chaos.quiet with Chaos.drop_p = 0.04; Chaos.corrupt_p = 0.04 };
      Chaos.set_active chaos2 true
    end;
    let sink =
      Chaos.wrap chaos2 (fun b -> Uart.inject_rx (Machine.uart m2) b)
    in
    String.iter
      (fun c -> sink (Char.code c))
      (Packet.frame (Command.command_to_wire Command.Read_registers));
    (* flush chaos-delayed bytes; a panicked machine stays panicked *)
    (try Machine.run_seconds m2 0.01
     with Cpu.Panic _ -> Embedded.mark_machine_dead agent);
    Embedded.service agent > 0
  in
  ( {
      g_seed = seed;
      g_classes = classes;
      g_lw_survived = lw_survived;
      g_embedded_survived = embedded_survived;
      g_reconnects = !reconnects;
      g_restarted = restarted;
      g_crashed = crashed;
      g_wedge_breakins = wedges;
      g_probe_cycles = !probe_cycles;
    },
    events, final_digest, divergence, bundle )

let gauntlet () =
  section
    (Printf.sprintf
       "Gauntlet -- %d randomized multi-fault campaigns (base seed %Ld)"
       gauntlet_n gauntlet_base_seed);
  Printf.printf "%10s %-44s %6s %9s %8s\n" "seed" "classes" "lw" "embedded"
    "recovery";
  let save_trace ~seed ~digest r events =
    match gauntlet_trace_dir with
    | None -> ()
    | Some dir ->
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path =
        Filename.concat dir (Printf.sprintf "gauntlet-seed-%Ld.trace" seed)
      in
      Trace.save ~path
        (Trace.make_header
           ~label:
             (Printf.sprintf "bench-gauntlet;digest=%Lx;classes=%s" digest
                (String.concat "," (List.map Plan.name r.g_classes)))
           ~seed ())
        events;
      Printf.eprintf "gauntlet: wrote replay trace %s\n" path
  in
  (* every crashed/wedged campaign leaves a crash bundle (the same
     artifact qR serves over the debug link); drop them next to the
     replay traces so CI uploads both *)
  let save_bundle ~seed bundle =
    match (gauntlet_trace_dir, bundle) with
    | Some dir, Some text ->
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path =
        Filename.concat dir (Printf.sprintf "gauntlet-seed-%Ld.bundle" seed)
      in
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.eprintf "gauntlet: wrote crash bundle %s\n" path
    | (None, _ | _, None) -> ()
  in
  let replay_failures = ref 0 in
  let detailed =
    List.init gauntlet_n (fun i ->
        let seed = Int64.add gauntlet_base_seed (Int64.of_int i) in
        let r, events, digest, _, bundle = gauntlet_campaign ~seed () in
        let recovery =
          (if r.g_restarted then "restart " else "")
          ^ if r.g_reconnects > 0 then Printf.sprintf "resync×%d" r.g_reconnects
            else ""
        in
        Printf.printf "%10Ld %-44s %6s %9s %8s\n" r.g_seed
          (String.concat "," (List.map Plan.name r.g_classes))
          (if r.g_lw_survived then "OK" else "DEAD")
          (if r.g_embedded_survived then "alive" else "dead")
          (if recovery = "" then "-" else recovery);
        if not r.g_lw_survived then save_trace ~seed ~digest r events;
        save_bundle ~seed bundle;
        if gauntlet_verify_replay then begin
          let r', _, digest', div, _ =
            gauntlet_campaign ~replay:events ~seed ()
          in
          if div <> None || digest' <> digest || r' <> r then begin
            incr replay_failures;
            Printf.eprintf
              "gauntlet: campaign seed %Ld did not replay bit-exact \
               (digest %Lx vs %Lx)\n"
              seed digest digest';
            match div with
            | Some d ->
              Format.eprintf "  %a@." Recorder.pp_divergence d
            | None -> ()
          end
        end;
        (r, digest))
  in
  let results = List.map fst detailed in
  let lw_ok = List.length (List.filter (fun r -> r.g_lw_survived) results) in
  let emb_ok =
    List.length (List.filter (fun r -> r.g_embedded_survived) results)
  in
  let latencies =
    List.concat_map (fun r -> r.g_probe_cycles) results |> Array.of_list
  in
  Array.sort compare latencies;
  let p50 = percentile latencies 0.50
  and p95 = percentile latencies 0.95
  and p99 = percentile latencies 0.99 in
  Printf.printf
    "\nlightweight VMM survived %d/%d campaigns; embedded baseline %d/%d\n"
    lw_ok gauntlet_n emb_ok gauntlet_n;
  Printf.printf
    "probe latency (sim cycles): p50 %.0f  p95 %.0f  p99 %.0f  (%d probes)\n"
    p50 p95 p99 (Array.length latencies);
  write_json "BENCH_gauntlet.json"
    (Json.Obj
       (run_header "gauntlet"
       @ [
           ("campaigns", Json.Int gauntlet_n);
           ("base_seed", Json.Int (Int64.to_int gauntlet_base_seed));
           ("lw_survivals", Json.Int lw_ok);
           ("embedded_survivals", Json.Int emb_ok);
           ("probe_count", Json.Int (Array.length latencies));
           ("probe_latency_p50_cycles", Json.Float p50);
           ("probe_latency_p95_cycles", Json.Float p95);
           ("probe_latency_p99_cycles", Json.Float p99);
           ("replay_verified", Json.Bool gauntlet_verify_replay);
           ("replay_failures", Json.Int !replay_failures);
           ( "results",
             Json.List
               (List.map
                  (fun (r, digest) ->
                    Json.Obj
                      [
                        ("seed", Json.Int (Int64.to_int r.g_seed));
                        ( "classes",
                          Json.List
                            (List.map
                               (fun c -> Json.String (Plan.name c))
                               r.g_classes) );
                        ("lw_survived", Json.Bool r.g_lw_survived);
                        ("embedded_survived", Json.Bool r.g_embedded_survived);
                        ("reconnects", Json.Int r.g_reconnects);
                        ("restarted", Json.Bool r.g_restarted);
                        ("crashed", Json.Bool r.g_crashed);
                        ("wedge_breakins", Json.Int r.g_wedge_breakins);
                        ("digest", Json.String (Printf.sprintf "%Lx" digest));
                      ])
                  detailed) );
         ]));
  if !replay_failures > 0 then begin
    Printf.eprintf "gauntlet: %d campaign(s) failed replay verification\n"
      !replay_failures;
    exit 1
  end;
  if lw_ok < gauntlet_n then begin
    List.iter
      (fun r ->
        if not r.g_lw_survived then
          Printf.eprintf
            "gauntlet: campaign seed %Ld (%s) did not survive -- replay with \
             BENCH_GAUNTLET_SEED=%Ld BENCH_GAUNTLET_N=1 (set \
             BENCH_GAUNTLET_TRACE_DIR to capture its trace artifact)\n"
            r.g_seed
            (String.concat "," (List.map Plan.name r.g_classes))
            r.g_seed)
      results;
    exit 1
  end

(* ---------------------------------------------------------------- *)
(* E4 — customizability: what each environment needs per device.    *)
(* ---------------------------------------------------------------- *)

let customize () =
  section "E4 -- debugging-environment comparison (paper Section 1)";
  let max_of sys =
    Workload.max_sustainable_rate ~duration_s:0.2 sys ~lo:5.0 ~hi:1000.0
      ~steps:8
  in
  let bare = max_of Workload.Bare_metal in
  let lw = max_of Workload.Lightweight_vmm in
  let full = max_of Workload.Hosted_full_vmm in
  let rows =
    Hw_simulator.comparison_rows ~lwvmm_io_efficiency:(lw /. bare)
      ~fullvmm_io_efficiency:(full /. bare)
    @ [ Hw_simulator.properties Hw_simulator.default ]
  in
  Printf.printf "%-32s %10s %22s %14s\n" "environment" "stable?"
    "new device needs" "I/O efficiency";
  List.iter
    (fun row ->
      Printf.printf "%-32s %10s %22s %13.1f%%\n" row.Hw_simulator.name
        (if row.Hw_simulator.stable_under_os_crash then "yes" else "no")
        (if row.Hw_simulator.needs_device_model_per_device then
           "device model in env"
         else "guest driver only")
        (100.0 *. row.Hw_simulator.io_efficiency))
    rows;
  Printf.printf
    "\nOnly the lightweight VMM is simultaneously stable, device-agnostic\n\
     and efficient -- the paper's three requirements.\n"

(* ---------------------------------------------------------------- *)
(* E5 — debugging while the guest streams (monitoring under load).  *)
(* ---------------------------------------------------------------- *)

let debugload () =
  section
    "E5 -- debug-command latency and overhead during streaming\n\
     (real 115200-baud debug link; one register poll every 5 ms)";
  Printf.printf "%10s %12s %14s %18s\n" "rate_mbps" "load" "load+polling"
    "cmd latency (ms)";
  List.iter
    (fun rate ->
      let base, _ =
        Workload.run Workload.Lightweight_vmm ~rate_mbps:rate ~duration_s:0.2
      in
      let config = Kernel.default_config ~rate_mbps:rate in
      let ctx, _program = Workload.prepare Workload.Lightweight_vmm ~config in
      let machine = Workload.machine_of ctx in
      let session = Session.attach machine in
      Machine.run_seconds machine 0.05;
      let t0 = Machine.now machine in
      let busy0 = Vmm_sim.Stats.busy_cycles (Machine.load machine) in
      let latencies = ref [] in
      while
        Costs.seconds_of_cycles Costs.default (Int64.sub (Machine.now machine) t0)
        < 0.2
      do
        (match Session.read_registers session with
         | Some _ -> latencies := Session.last_latency_s session :: !latencies
         | None -> ());
        Machine.run_seconds machine 0.005
      done;
      let elapsed = Int64.sub (Machine.now machine) t0 in
      let busy =
        Int64.sub (Vmm_sim.Stats.busy_cycles (Machine.load machine)) busy0
      in
      let load_polling = Int64.to_float busy /. Int64.to_float elapsed in
      let mean_latency =
        match !latencies with
        | [] -> nan
        | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
      in
      Printf.printf "%10.0f %11.1f%% %13.1f%% %18.3f\n" rate
        (100.0 *. base.Workload.cpu_load)
        (100.0 *. load_polling)
        (1000.0 *. mean_latency))
    [ 0.0; 50.0; 100.0; 150.0 ];
  Printf.printf
    "\nThe stub answers while the guest streams; polling costs a few\n\
     percent of CPU and latency stays in the millisecond range.\n"

(* ---------------------------------------------------------------- *)
(* vbp — page-permission virtual breakpoints: armed-site overhead   *)
(* and hit latency.  Writes BENCH_vbp.json; BENCH_VBP_MAX_HIT_CYCLES *)
(* gates the hit-latency column in CI.                              *)
(* ---------------------------------------------------------------- *)

module Breakpoints = Core.Breakpoints
module Stub = Core.Stub

(* A compute loop on page 0x1000 counting laps in r7, a never-executed
   [dead] site on the same (hot) page, and room from page 0x2000 up for
   bulk cold sites.  Every fetch from a page carrying an armed site
   faults, so this guest makes the hot-page cost visible while cold
   sites stay free until fetched. *)
let vbp_guest () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x20000);
  Asm.movi a 1 (Asm.imm 0x1000);
  Asm.movi a 2 (Asm.imm 0x80);
  Asm.label a "loop";
  Asm.csum a 3 1 2;
  Asm.addi a 7 7 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Asm.label a "dead";
  Asm.nop a;
  Asm.assemble a

(* Arm [n] sites directly in the stub's table before the shadow is
   warm: one on the hot page ([dead]), the rest spread over the cold
   pages from 0x2000. *)
let vbp_arm_sites mon program n =
  let table = Stub.breakpoints (Monitor.stub mon) in
  let arm addr = ignore (Breakpoints.add table ~addr) in
  arm (Asm.symbol program "dead");
  for i = 1 to n - 1 do
    arm (0x2000 + (i * Isa.width))
  done

let vbp_run ~sites =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:bench_costs () in
  let mon = Monitor.install m in
  let p = vbp_guest () in
  Monitor.boot_guest mon p ~entry:0x1000;
  if sites > 0 then vbp_arm_sites mon p sites;
  Machine.run_for m ~cycles:400_000L;
  Cpu.read_reg (Machine.cpu m) 7

(* Hit latency: with [sites] cold sites armed, insert one breakpoint on
   the hot loop over the wire and measure cycles from the resume that
   follows the OK to the Break notification leaving the stub. *)
let vbp_hit_cycles ~sites =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:bench_costs () in
  let mon = Monitor.install m in
  let p = vbp_guest () in
  Monitor.boot_guest mon p ~entry:0x1000;
  if sites > 0 then vbp_arm_sites mon p sites;
  let session = Session.attach m in
  Machine.run_seconds m 0.002;
  (* freeze the guest first so the measurement starts at the resume,
     not mid-flight during the insert's own round trip *)
  (match Session.halt session with
   | Some _ -> ()
   | None -> failwith "vbp bench: halt failed");
  let target = Asm.symbol p "loop" in
  if not (Session.insert_breakpoint session target) then
    failwith "vbp bench: insert failed";
  let t0 = Machine.now m in
  Session.continue_ session;
  match Session.wait_stop ~timeout_s:1.0 session with
  | Some (Command.Break _) -> Int64.to_int (Int64.sub (Machine.now m) t0)
  | _ -> failwith "vbp bench: no break"

let vbp () =
  section
    "vbp -- page-permission virtual breakpoints\n\
     (armed-site execution overhead and break-in latency)";
  Printf.printf "%7s %12s %10s %12s\n" "sites" "laps" "overhead" "hit cycles";
  let baseline = vbp_run ~sites:0 in
  let rows =
    List.map
      (fun sites ->
        let laps = vbp_run ~sites in
        let overhead =
          if laps = 0 then infinity
          else (float_of_int baseline /. float_of_int laps) -. 1.0
        in
        let hit = vbp_hit_cycles ~sites in
        Printf.printf "%7d %12d %9.1f%% %12d\n" sites laps (100.0 *. overhead)
          hit;
        (hit, Json.Obj
           [
             ("sites", Json.Int sites);
             ("laps_baseline", Json.Int baseline);
             ("laps", Json.Int laps);
             ("overhead", Json.Float overhead);
             ("hit_cycles", Json.Int hit);
           ]))
      [ 1; 100; 5000 ]
  in
  write_json "BENCH_vbp.json"
    (Json.Obj (run_header "vbp" @ [ ("rows", Json.List (List.map snd rows)) ]));
  Printf.printf
    "\nArmed pages pay a fault per fetch in exchange for untouched guest\n\
     text; cold armed sites are free until fetched.\n";
  match Sys.getenv_opt "BENCH_VBP_MAX_HIT_CYCLES" with
  | None -> ()
  | Some limit ->
    let limit = int_of_string limit in
    let worst = List.fold_left (fun acc (hit, _) -> max acc hit) 0 rows in
    if worst > limit then begin
      Printf.eprintf "vbp: worst hit latency %d cycles exceeds gate %d\n" worst
        limit;
      exit 1
    end
    else Printf.printf "[gate] worst hit latency %d <= %d cycles\n" worst limit

(* ---------------------------------------------------------------- *)
(* E6 — ablation: world-switch (trap) cost.                         *)
(* ---------------------------------------------------------------- *)

let ablation_trap () =
  section
    "E6 -- ablation: monitor world-switch cost vs maximum rate\n\
     (the knob that separates the lightweight VMM from real hardware)";
  Printf.printf "%22s %22s %12s\n" "world_switch (cycles)" "max rate (Mbps)"
    "vs default";
  let default_ws = Costs.default.Costs.world_switch in
  let rate_for ws =
    let costs = { Costs.default with Costs.world_switch = ws } in
    Workload.max_sustainable_rate ~costs ~duration_s:0.2
      Workload.Lightweight_vmm ~lo:5.0 ~hi:1000.0 ~steps:9
  in
  let default_rate = rate_for default_ws in
  List.iter
    (fun ws ->
      let rate = if ws = default_ws then default_rate else rate_for ws in
      Printf.printf "%22d %22.1f %11.2fx\n" ws rate (rate /. default_rate))
    [ 2000; 5000; 10000; default_ws; 40000; 80000 ]

(* ---------------------------------------------------------------- *)
(* E7 — ablation: pass-through vs trap-and-forward devices.         *)
(* ---------------------------------------------------------------- *)

let ablation_passthrough () =
  section
    "E7 -- ablation: direct device access vs monitor-mediated access\n\
     (isolates the design decision behind the 5.4x)";
  let measure ~passthrough label =
    let config = Kernel.default_config ~rate_mbps:100.0 in
    let machine = Machine.create ~mem_size:(16 * 1024 * 1024) () in
    let monitor = Monitor.install ~passthrough machine in
    Monitor.boot_guest monitor (Kernel.build config) ~entry:Kernel.entry;
    Machine.run_seconds machine 0.05;
    let t0 = Machine.now machine in
    let busy0 = Vmm_sim.Stats.busy_cycles (Machine.load machine) in
    let bytes0 = Vmm_hw.Nic.bytes_sent (Machine.nic machine) in
    Machine.run_seconds machine 0.2;
    let elapsed = Int64.sub (Machine.now machine) t0 in
    let busy =
      Int64.sub (Vmm_sim.Stats.busy_cycles (Machine.load machine)) busy0
    in
    let bytes =
      Int64.sub (Vmm_hw.Nic.bytes_sent (Machine.nic machine)) bytes0
    in
    let secs = Costs.seconds_of_cycles Costs.default elapsed in
    let stats = Monitor.stats monitor in
    Printf.printf "%-34s %9.1f %9.1f%% %14d\n" label
      (Int64.to_float bytes *. 8.0 /. secs /. 1e6)
      (100.0 *. Int64.to_float busy /. Int64.to_float elapsed)
      stats.Monitor.io_emulations
  in
  Printf.printf "%-34s %9s %10s %14s\n" "configuration (at 100 Mbps)"
    "achieved" "load" "trapped i/o";
  measure ~passthrough:Monitor.default_passthrough
    "SCSI+NIC direct (the paper)";
  measure
    ~passthrough:[ { Monitor.base = Machine.Ports.scsi; count = 7 } ]
    "SCSI direct, NIC trapped";
  measure ~passthrough:[] "everything trapped"

(* ---------------------------------------------------------------- *)
(* E8 — ablation: application in ring 3 (three-level protection).   *)
(* ---------------------------------------------------------------- *)

let ablation_usermode () =
  section
    "E8 -- ablation: streaming application at guest ring 3\n\
     (the paper's third protection level: app / OS / monitor)";
  Printf.printf "%-18s %12s %12s %12s %12s\n" "system" "kernel app"
    "ring-3 app" "overhead" "rate held?";
  List.iter
    (fun sys ->
      let run user =
        let config =
          { (Kernel.default_config ~rate_mbps:50.0) with Kernel.user_mode = user }
        in
        let ctx, program = Workload.prepare sys ~config in
        Workload.measure ctx program ~config ~warmup_s:0.05 ~duration_s:0.2
      in
      let kernel = run false and user = run true in
      Printf.printf "%-18s %11.1f%% %11.1f%% %11.1f%% %12s\n"
        (Workload.system_name sys)
        (100.0 *. kernel.Workload.cpu_load)
        (100.0 *. user.Workload.cpu_load)
        (100.0 *. (user.Workload.cpu_load -. kernel.Workload.cpu_load))
        (if user.Workload.achieved_mbps >= 0.95 *. 50.0 then "yes" else "no"))
    Workload.all_systems;
  Printf.printf
    "\nOn real hardware ring crossings are nearly free; under the\n\
     monitor each one is a world switch, so the third protection level\n\
     has a visible but affordable price at this rate.\n"

(* ---------------------------------------------------------------- *)
(* E9 — ablation: segment size (interrupt-rate sensitivity).        *)
(* ---------------------------------------------------------------- *)

let ablation_segment () =
  section
    "E9 -- ablation: disk segment size at 100 Mbps\n\
     (smaller segments = more pacing/disk interrupts per byte)";
  Printf.printf "%14s %14s %14s %14s\n" "segment (KiB)" "real_hw" "lw_vmm"
    "vmware_like";
  List.iter
    (fun kib ->
      let cells =
        List.map
          (fun sys ->
            let config =
              {
                (Kernel.default_config ~rate_mbps:100.0) with
                Kernel.segment_bytes = kib * 1024;
              }
            in
            let ctx, program = Workload.prepare sys ~config in
            let m =
              Workload.measure ctx program ~config ~warmup_s:0.05
                ~duration_s:0.2
            in
            Printf.sprintf "%5.1f%%%s"
              (100.0 *. m.Workload.cpu_load)
              (if m.Workload.achieved_mbps < 95.0 then "*" else " "))
          Workload.all_systems
      in
      match cells with
      | [ bare; lw; full ] ->
        Printf.printf "%14d %14s %14s %14s\n" kib bare lw full
      | _ -> assert false)
    [ 16; 32; 64; 128; 256 ]

(* ---------------------------------------------------------------- *)
(* sim-speed — host-side throughput of the simulator itself.        *)
(* ---------------------------------------------------------------- *)

(* Simulated-cycles-per-host-second on the Fig 3.1 workload.  Unlike the
   experiments above, which measure *simulated* quantities, this target
   times the simulator with the host clock so the block translator's
   effect (and any future regression) is visible in CI.  Each system is
   measured twice — threaded-code translator on and off — and the
   JIT-on/JIT-off throughput ratio is reported as [jit_speedup].  Knobs:
     BENCH_SIMSPEED_SIM_S    simulated seconds per arm (default 0.2)
     BENCH_SIMSPEED_MIN_CPS  fail (exit 1) if the lightweight-VMM
                             JIT-on arm falls below this many sim
                             cycles per host second *)
let sim_speed () =
  section
    "sim-speed -- simulated cycles per host second (Fig 3.1 workload, 100 Mbps)";
  let sim_s =
    match Sys.getenv_opt "BENCH_SIMSPEED_SIM_S" with
    | Some s -> (try float_of_string (String.trim s) with _ -> 0.2)
    | None -> 0.2
  in
  let measure ~jit sys =
    let config = Kernel.default_config ~rate_mbps:100.0 in
    let ctx, _program = Workload.prepare sys ~config in
    let machine = Workload.machine_of ctx in
    let cpu = Machine.cpu machine in
    Cpu.set_jit_enabled cpu jit;
    Machine.run_seconds machine 0.05 (* warmup *);
    let c0 = Machine.now machine in
    let i0 = Cpu.instructions_retired cpu in
    (* Host wall-clock measures simulator throughput (cycles/sec of
       real time); nothing feeds back into the sim. *)
    let h0 = Unix.gettimeofday () in (* determinism-ok: host-side timing *)
    Machine.run_seconds machine sim_s;
    let host_s = Unix.gettimeofday () -. h0 in (* determinism-ok: see above *)
    let cycles = Int64.sub (Machine.now machine) c0 in
    let instrs = Int64.sub (Cpu.instructions_retired cpu) i0 in
    let cps = Int64.to_float cycles /. host_s in
    let ips = Int64.to_float instrs /. host_s in
    Printf.printf
      "%-18s %-6s %9.3f host_s %10.1f Mcycles/host_s %8.2f host-MIPS\n"
      (Workload.system_name sys)
      (if jit then "jit" else "interp")
      host_s (cps /. 1e6) (ips /. 1e6);
    ( (Workload.system_name sys, jit),
      Json.Obj
        [
          ("system", Json.String (Workload.system_name sys));
          ("jit", Json.Bool jit);
          ("sim_seconds", Json.Float sim_s);
          ("host_seconds", Json.Float host_s);
          ("sim_cycles", Json.Int (Int64.to_int cycles));
          ("instructions", Json.Int (Int64.to_int instrs));
          ("sim_cycles_per_host_second", Json.Float cps);
          ("instructions_per_host_second", Json.Float ips);
          ("host_mips", Json.Float (ips /. 1e6));
          ( "icache",
            Json.Obj
              [
                ("hits", Json.Int (Cpu.icache_hits cpu));
                ("misses", Json.Int (Cpu.icache_misses cpu));
                ("invalidations", Json.Int (Cpu.icache_invalidations cpu));
              ] );
          ( "blocks",
            Json.Obj
              [
                ("compiled", Json.Int (Cpu.blocks_compiled cpu));
                ("hits", Json.Int (Cpu.block_hits cpu));
                ("invalidations", Json.Int (Cpu.block_invalidations cpu));
                ("chain_follows", Json.Int (Cpu.block_chain_follows cpu));
                ("interp_fallbacks", Json.Int (Cpu.block_fallbacks cpu));
              ] );
        ],
      (cps, ips) )
  in
  (* CPU-bound arm: a register/memory/stack compute loop that never
     idles, so host throughput measures the instruction path itself —
     the Fig 3.1 workload above is >99% idle and mostly times the event
     engine's idle skip.  This is the arm that demonstrates (and
     guards) the block translator's speedup. *)
  let cpu_bound_name = "cpu-bound loop" in
  let measure_cpu_bound ~jit =
    let m = Machine.create ~mem_size:(2 * 1024 * 1024) () in
    let cpu = Machine.cpu m in
    Cpu.set_jit_enabled cpu jit;
    let a = Asm.create ~origin:0x1000 () in
    Asm.movi a Isa.sp (Asm.imm 0x8000);
    Asm.movi a 1 (Asm.imm 0);
    Asm.movi a 4 (Asm.imm 0x4000);
    Asm.label a "loop";
    Asm.addi a 1 1 (Asm.imm 1);
    Asm.st a 4 0 1;
    Asm.ld a 5 4 0;
    Asm.add a 6 6 5;
    Asm.mul a 7 1 5;
    Asm.push a 6;
    Asm.pop a 8;
    Asm.cmpi a 1 (Asm.imm 0);
    Asm.jnz a (Asm.lbl "loop");
    Machine.boot m (Asm.assemble a) ~entry:0x1000;
    Machine.run_for m ~cycles:100_000L (* warmup *);
    let c0 = Machine.now m in
    let i0 = Cpu.instructions_retired cpu in
    let h0 = Unix.gettimeofday () in (* determinism-ok: host-side timing *)
    Machine.run_for m
      ~cycles:(Costs.cycles_of_seconds (Machine.costs m) sim_s);
    let host_s = Unix.gettimeofday () -. h0 in (* determinism-ok: see above *)
    let cycles = Int64.sub (Machine.now m) c0 in
    let instrs = Int64.sub (Cpu.instructions_retired cpu) i0 in
    let cps = Int64.to_float cycles /. host_s in
    let ips = Int64.to_float instrs /. host_s in
    Printf.printf
      "%-18s %-6s %9.3f host_s %10.1f Mcycles/host_s %8.2f host-MIPS\n"
      cpu_bound_name
      (if jit then "jit" else "interp")
      host_s (cps /. 1e6) (ips /. 1e6);
    ( (cpu_bound_name, jit),
      Json.Obj
        [
          ("system", Json.String cpu_bound_name);
          ("jit", Json.Bool jit);
          ("sim_seconds", Json.Float sim_s);
          ("host_seconds", Json.Float host_s);
          ("sim_cycles", Json.Int (Int64.to_int cycles));
          ("instructions", Json.Int (Int64.to_int instrs));
          ("sim_cycles_per_host_second", Json.Float cps);
          ("instructions_per_host_second", Json.Float ips);
          ("host_mips", Json.Float (ips /. 1e6));
          ( "blocks",
            Json.Obj
              [
                ("compiled", Json.Int (Cpu.blocks_compiled cpu));
                ("hits", Json.Int (Cpu.block_hits cpu));
                ("invalidations", Json.Int (Cpu.block_invalidations cpu));
                ("chain_follows", Json.Int (Cpu.block_chain_follows cpu));
                ("interp_fallbacks", Json.Int (Cpu.block_fallbacks cpu));
              ] );
        ],
      (cps, ips) )
  in
  let results =
    let fig_arms =
      List.concat_map
        (fun sys ->
          let off = measure ~jit:false sys in
          let on = measure ~jit:true sys in
          [ off; on ])
        [ Workload.Bare_metal; Workload.Lightweight_vmm ]
    in
    let cb_off = measure_cpu_bound ~jit:false in
    let cb_on = measure_cpu_bound ~jit:true in
    fig_arms @ [ cb_off; cb_on ]
  in
  let rate_of name jit =
    match
      List.find_opt (fun ((n, j), _, _) -> n = name && j = jit) results
    with
    | Some (_, _, r) -> Some r
    | None -> None
  in
  let speedup_of name =
    match (rate_of name true, rate_of name false) with
    | Some (_, ips_on), Some (_, ips_off) when ips_off > 0.0 ->
      ips_on /. ips_off
    | _ -> 0.0
  in
  let speedup = speedup_of cpu_bound_name in
  let speedup_fig31 = speedup_of (Workload.system_name Workload.Lightweight_vmm) in
  Printf.printf "jit speedup (cpu-bound, instructions/host_s): %.2fx\n" speedup;
  Printf.printf "jit speedup (lw_vmm fig3.1, instructions/host_s): %.2fx\n"
    speedup_fig31;
  write_json "BENCH_simspeed.json"
    (Json.Obj
       (run_header "sim-speed"
       @ [
           ("workloads", Json.List (List.map (fun (_, j, _) -> j) results));
           ("jit_speedup", Json.Float speedup);
           ("jit_speedup_fig31", Json.Float speedup_fig31);
         ]));
  (match Sys.getenv_opt "BENCH_SIMSPEED_MIN_SPEEDUP" with
   | None -> ()
   | Some floor_s ->
     let floor = try float_of_string (String.trim floor_s) with _ -> 0.0 in
     if speedup < floor then begin
       Printf.eprintf
         "sim-speed: jit speedup %.2fx is below the floor %.2fx\n" speedup
         floor;
       exit 1
     end);
  match Sys.getenv_opt "BENCH_SIMSPEED_MIN_CPS" with
  | None -> ()
  | Some floor_s ->
    let floor = try float_of_string (String.trim floor_s) with _ -> 0.0 in
    (match rate_of (Workload.system_name Workload.Lightweight_vmm) true with
     | Some (cps, _) when cps < floor ->
       Printf.eprintf
         "sim-speed: %s (jit) at %.0f cycles/host_s is below the floor %.0f\n"
         (Workload.system_name Workload.Lightweight_vmm)
         cps floor;
       exit 1
     | _ -> ())

(* ---------------------------------------------------------------- *)
(* profile — overhead of the continuous pc-sampling profiler.       *)
(* ---------------------------------------------------------------- *)

(* Runs the Fig 3.1 lightweight-VMM workload twice at the same seed and
   configuration -- profiler off, then armed at the default period --
   and compares host wall-clock.  The simulated side must not notice
   the profiler at all: elapsed cycles, instructions retired and busy
   cycles are asserted bit-identical between the two arms (sampling
   only reads pc/cpl), which is the same property that keeps record/
   replay traces convergent with profiling on.  Knobs:
     BENCH_PROFILE_SIM_S             simulated seconds per arm (default 0.5)
     BENCH_PROFILE_REPS              host-timing repetitions, averaged
                                     (default 3; damps scheduler noise)
     BENCH_PROFILE_MAX_OVERHEAD_PCT  fail (exit 1) when the armed run is
                                     more than this % slower *)
let profile_bench () =
  section
    "profile -- continuous-profiler overhead (Fig 3.1 workload, 100 Mbps)";
  let sim_s =
    match Sys.getenv_opt "BENCH_PROFILE_SIM_S" with
    | Some s -> (try float_of_string (String.trim s) with _ -> 0.5)
    | None -> 0.5
  in
  let reps =
    match Sys.getenv_opt "BENCH_PROFILE_REPS" with
    | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 5)
    | None -> 5
  in
  let period =
    match Sys.getenv_opt "BENCH_PROFILE_PERIOD" with
    | Some s ->
      (try Int64.of_string (String.trim s)
       with _ -> Vmm_profile.Profiler.default_period)
    | None -> Vmm_profile.Profiler.default_period
  in
  let run_once ~profiled =
    let config = Kernel.default_config ~rate_mbps:100.0 in
    let ctx, _program = Workload.prepare Workload.Lightweight_vmm ~config in
    let machine = Workload.machine_of ctx in
    if profiled then Machine.set_profiling machine ~period;
    Machine.run_seconds machine 0.05 (* warmup *);
    let cpu = Machine.cpu machine in
    let c0 = Machine.now machine in
    let i0 = Cpu.instructions_retired cpu in
    let b0 = Vmm_sim.Stats.busy_cycles (Machine.load machine) in
    (* Host wall-clock measures the profiler's cost to the simulator;
       nothing feeds back into the sim. *)
    let h0 = Unix.gettimeofday () in (* determinism-ok: host-side timing *)
    Machine.run_seconds machine sim_s;
    let host_s = Unix.gettimeofday () -. h0 in (* determinism-ok: see above *)
    let observed =
      ( Int64.sub (Machine.now machine) c0,
        Int64.sub (Cpu.instructions_retired cpu) i0,
        Int64.sub (Vmm_sim.Stats.busy_cycles (Machine.load machine)) b0 )
    in
    ( host_s,
      observed,
      Vmm_profile.Profiler.total_samples (Machine.profiler machine) )
  in
  (* The two arms alternate within each repetition (off, on, off, on,
     ...) so slow host drift — a noisy neighbour, a frequency change —
     hits both arms equally instead of biasing whichever ran last.  The
     overhead is then the median of the per-repetition on/off ratios:
     pairing cancels drift inside each repetition and the median throws
     away the odd repetition a noisy neighbour stretched — on a shared
     box that jitter dwarfs the effect being measured. *)
  let off_s = ref 0.0 and on_s = ref 0.0 in
  let off_sim = ref None and on_sim = ref None in
  let samples = ref 0 in
  let ratios = Array.make reps 1.0 in
  let note sim total host observed =
    (match !sim with
     | None -> sim := Some observed
     | Some prior when prior <> observed ->
       Printf.eprintf
         "profile: repetitions disagree on simulated state -- the \
          workload is nondeterministic\n";
       exit 1
     | Some _ -> ());
    total := !total +. host
  in
  for rep = 0 to reps - 1 do
    let off_h, observed, _ = run_once ~profiled:false in
    note off_sim off_s off_h observed;
    let on_h, observed, n = run_once ~profiled:true in
    note on_sim on_s on_h observed;
    ratios.(rep) <- on_h /. off_h;
    samples := n
  done;
  let off_s = !off_s /. float_of_int reps
  and on_s = !on_s /. float_of_int reps in
  Array.sort compare ratios;
  let median_ratio = ratios.(reps / 2) in
  let off_sim = Option.get !off_sim and on_sim = Option.get !on_sim in
  let samples = !samples in
  let cycles, instrs, busy = off_sim in
  if off_sim <> on_sim then begin
    let c', i', b' = on_sim in
    Printf.eprintf
      "profile: arming the profiler perturbed the simulation\n\
      \  off: cycles=%Ld instrs=%Ld busy=%Ld\n\
      \  on : cycles=%Ld instrs=%Ld busy=%Ld\n"
      cycles instrs busy c' i' b';
    exit 1
  end;
  if samples <= 0 then begin
    Printf.eprintf "profile: armed run collected no samples\n";
    exit 1
  end;
  let overhead_pct = 100.0 *. (median_ratio -. 1.0) in
  Printf.printf "%-24s %10.3f host_s\n" "profiler off (mean)" off_s;
  Printf.printf "%-24s %10.3f host_s  (%d samples @ period %Ld)\n"
    "profiler on  (mean)" on_s samples period;
  Printf.printf "%-24s %+9.1f%%  (median of %d paired ratios)\n" "overhead"
    overhead_pct reps;
  Printf.printf
    "simulated side identical across arms: %Ld cycles, %Ld instrs, %Ld \
     busy\n"
    cycles instrs busy;
  write_json "BENCH_profile.json"
    (Json.Obj
       (run_header "profile"
       @ [
           ("sim_seconds", Json.Float sim_s);
           ("repetitions", Json.Int reps);
           ( "period_cycles",
             Json.Int (Int64.to_int period) );
           ("host_seconds_off", Json.Float off_s);
           ("host_seconds_on", Json.Float on_s);
           ("overhead_pct", Json.Float overhead_pct);
           ("samples", Json.Int samples);
           ("sim_cycles", Json.Int (Int64.to_int cycles));
           ("instructions", Json.Int (Int64.to_int instrs));
           ("busy_cycles", Json.Int (Int64.to_int busy));
           ("telemetry_identical", Json.Bool true);
         ]));
  match Sys.getenv_opt "BENCH_PROFILE_MAX_OVERHEAD_PCT" with
  | None -> ()
  | Some ceiling_s ->
    let ceiling =
      try float_of_string (String.trim ceiling_s) with _ -> infinity
    in
    if overhead_pct > ceiling then begin
      Printf.eprintf
        "profile: %.1f%% overhead is above the ceiling %.1f%%\n" overhead_pct
        ceiling;
      exit 1
    end

(* ---------------------------------------------------------------- *)
(* M3 — static-verifier throughput (host wall time).                *)
(* ---------------------------------------------------------------- *)

(* BENCH_ANALYSIS_ITERS=50 widens the sample for lower variance; the
   default keeps the no-argument bench run fast. *)
let analysis () =
  section "M3 -- static verifier throughput (CFG + abstract interpretation)";
  let iters =
    match Sys.getenv_opt "BENCH_ANALYSIS_ITERS" with
    | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 10)
    | None -> 10
  in
  let layout = Core.Vm_layout.default ~mem_size:(16 * 1024 * 1024) in
  let cfg =
    {
      Vmm_analysis.Verifier.guest_owns = Core.Vm_layout.guest_owns layout;
      allowed_ports = Vmm_analysis.Verifier.default_ports;
      entry_ring = 0;
    }
  in
  let variants =
    [
      ("kernel", Kernel.default_config ~rate_mbps:50.0);
      ( "kernel-user-mode",
        { (Kernel.default_config ~rate_mbps:50.0) with Kernel.user_mode = true }
      );
    ]
  in
  let clock = Unix.gettimeofday in (* determinism-ok: host-side timing *)
  let results =
    List.map
      (fun (name, kcfg) ->
        let program = Kernel.build kcfg in
        let report =
          ref (Vmm_analysis.Verifier.verify ~clock cfg ~entry:Kernel.entry program)
        in
        (* Host wall-clock times the verifier itself (instructions/sec
           of real time); no simulation involved.  The verifier's own
           [clock] hook yields per-pass seconds, accumulated below. *)
        let passes = Hashtbl.create 4 in
        let note r =
          List.iter
            (fun (pass, s) ->
              Hashtbl.replace passes pass
                (s +. Option.value ~default:0.0 (Hashtbl.find_opt passes pass)))
            r.Vmm_analysis.Verifier.timings
        in
        let t0 = clock () in
        for _ = 1 to iters do
          report := Vmm_analysis.Verifier.verify ~clock cfg ~entry:Kernel.entry program;
          note !report
        done;
        let dt = (clock () -. t0) /. float_of_int iters in
        let r = !report in
        let per_pass =
          List.filter_map
            (fun pass ->
              Option.map
                (fun total -> (pass, total /. float_of_int iters))
                (Hashtbl.find_opt passes pass))
            [ "absint"; "check"; "summary"; "races" ]
        in
        let ips =
          if dt > 0.0 then float_of_int r.Vmm_analysis.Verifier.instructions /. dt
          else 0.0
        in
        Printf.printf "%-18s %4d instrs  %3d blocks  %.3f ms/verify  %.0f instrs/s  %s\n"
          name r.Vmm_analysis.Verifier.instructions
          r.Vmm_analysis.Verifier.blocks (dt *. 1000.0) ips
          (if r.Vmm_analysis.Verifier.clean then "clean" else "DIRTY");
        List.iter
          (fun (pass, s) -> Printf.printf "  %-16s %.3f ms\n" pass (s *. 1000.0))
          per_pass;
        (name, r, dt, ips, per_pass))
      variants
  in
  write_json "BENCH_analysis.json"
    (Json.Obj
       (run_header "analysis"
       @ [
           ("iterations", Json.Int iters);
           ( "programs",
             Json.List
               (List.map
                  (fun (name, r, dt, ips, per_pass) ->
                    Json.Obj
                      [
                        ("program", Json.String name);
                        ("clean", Json.Bool r.Vmm_analysis.Verifier.clean);
                        ( "diagnostics",
                          Json.Int
                            (List.length r.Vmm_analysis.Verifier.diagnostics) );
                        ( "instructions",
                          Json.Int r.Vmm_analysis.Verifier.instructions );
                        ("blocks", Json.Int r.Vmm_analysis.Verifier.blocks);
                        ("functions", Json.Int r.Vmm_analysis.Verifier.functions);
                        ("roots", Json.Int r.Vmm_analysis.Verifier.roots);
                        ( "summaries",
                          Json.Int r.Vmm_analysis.Verifier.summaries );
                        ( "summary_incomplete",
                          Json.Int r.Vmm_analysis.Verifier.summary_incomplete );
                        ( "race_sites",
                          Json.Int
                            (List.length r.Vmm_analysis.Verifier.race_sites) );
                        ("seconds_per_verify", Json.Float dt);
                        ("instructions_per_second", Json.Float ips);
                        ( "pass_seconds",
                          Json.Obj
                            (List.map
                               (fun (pass, s) -> (pass, Json.Float s))
                               per_pass) );
                      ])
                  results) );
         ]));
  List.iter
    (fun (name, r, _, _, _) ->
      if not r.Vmm_analysis.Verifier.clean then begin
        Printf.eprintf "analysis: shipped program '%s' has diagnostics:\n%s\n"
          name
          (Vmm_analysis.Verifier.render r);
        exit 1
      end)
    results;
  (* Throughput floor: the interprocedural pass must not silently
     regress verifier speed.  Opt-in via env so dev-machine noise never
     fails a local run. *)
  match Sys.getenv_opt "BENCH_ANALYSIS_MIN_IPS" with
  | None -> ()
  | Some floor_s -> (
    match float_of_string_opt (String.trim floor_s) with
    | None -> ()
    | Some floor ->
      List.iter
        (fun (name, _, _, ips, _) ->
          if ips < floor then begin
            Printf.eprintf
              "analysis: '%s' throughput %.0f instrs/s below the \
               BENCH_ANALYSIS_MIN_IPS floor %.0f\n"
              name ips floor;
            exit 1
          end)
        results)

(* ---------------------------------------------------------------- *)
(* M1 — bechamel microbenchmarks.                                   *)
(* ---------------------------------------------------------------- *)

let micro () =
  section "M1 -- microbenchmarks (host-side wall time per operation)";
  let open Bechamel in
  let step_machine =
    let machine = Machine.create ~mem_size:(2 * 1024 * 1024) () in
    let a = Asm.create ~origin:0x1000 () in
    Asm.label a "loop";
    Asm.addi a 1 1 (Asm.imm 1);
    Asm.jmp a (Asm.lbl "loop");
    Machine.boot machine (Asm.assemble a) ~entry:0x1000;
    Test.make ~name:"interpret 1000 instructions"
      (Staged.stage (fun () -> ignore (Machine.run_steps machine 1000)))
  in
  let world_switch =
    let machine = Machine.create ~mem_size:(16 * 1024 * 1024) () in
    let monitor = Monitor.install machine in
    let a = Asm.create ~origin:0x1000 () in
    Asm.label a "loop";
    Asm.sti a;
    Asm.jmp a (Asm.lbl "loop");
    Monitor.boot_guest monitor (Asm.assemble a) ~entry:0x1000;
    Test.make ~name:"100 emulated traps (STI)"
      (Staged.stage (fun () -> ignore (Machine.run_steps machine 100)))
  in
  let packet_roundtrip =
    let payload = String.make 64 'm' in
    Test.make ~name:"packet frame+decode (64B)"
      (Staged.stage (fun () ->
           let d = Packet.decoder () in
           ignore (Packet.feed_string d (Packet.frame payload))))
  in
  let event_queue =
    Test.make ~name:"event queue add+pop x100"
      (Staged.stage (fun () ->
           let q = Vmm_sim.Event_queue.create () in
           for i = 1 to 100 do
             ignore
               (Vmm_sim.Event_queue.add q
                  ~time:(Int64.of_int (i * 37 mod 100))
                  i)
           done;
           while Vmm_sim.Event_queue.pop q <> None do
             ()
           done))
  in
  let kernel_build =
    Test.make ~name:"assemble guest kernel"
      (Staged.stage (fun () ->
           ignore (Kernel.build (Kernel.default_config ~rate_mbps:100.0))))
  in
  let tests =
    [ step_machine; world_switch; packet_roundtrip; event_queue; kernel_build ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysis = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ estimate ] ->
            Printf.printf "%-36s %12.1f ns/run\n" name estimate
          | Some _ | None -> Printf.printf "%-36s (no estimate)\n" name)
        analysis)
    tests

(* ---------------------------------------------------------------- *)

let targets =
  [
    ("fig3.1", fig3_1);
    ("headline", headline);
    ("stability", stability);
    ("gauntlet", gauntlet);
    ("customize", customize);
    ("debugload", debugload);
    ("vbp", vbp);
    ("ablation-trap", ablation_trap);
    ("ablation-passthrough", ablation_passthrough);
    ("ablation-usermode", ablation_usermode);
    ("ablation-segment", ablation_segment);
    ("sim-speed", sim_speed);
    ("profile", profile_bench);
    ("analysis", analysis);
    ("micro", micro);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ :: [] | [] -> List.map fst targets
  in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown bench target '%s'; known: %s\n" name
          (String.concat ", " (List.map fst targets));
        exit 1)
    requested
