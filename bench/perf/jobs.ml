(* The four workloads.

   A run repeats one fixed-size job until the jobs' timed windows add up
   to the host-time budget.  Each job sets up from scratch (the [setup_s]
   samples), then runs its window.  Jobs of [stream] and [compute] are
   identical, so every one of them is checked against the values in
   [Pins]; [debug] and [faults] draw their choices from the run's seed.

   Every call into the program is public API.  When [Spans.enabled], the
   machine is advanced by [traced_run_until], a copy of
   [Machine.run_until] with a span around each layer call. *)

module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Asm = Vmm_hw.Asm
module Isa = Vmm_hw.Isa
module Costs = Vmm_hw.Costs
module Nic = Vmm_hw.Nic
module Engine = Vmm_sim.Engine
module Rng = Vmm_sim.Rng
module Stats = Vmm_sim.Stats
module Monitor = Core.Monitor
module Snapshot = Core.Snapshot
module Kernel = Vmm_guest.Kernel
module Session = Vmm_debugger.Session
module Command = Vmm_proto.Command
module Plan = Vmm_fault.Plan
module Chaos = Vmm_fault.Chaos
module Recorder = Vmm_replay.Recorder
module Profiler = Vmm_profile.Profiler

let now_s () = float_of_int (Spans.now_ns ()) /. 1e9
let mem_size = 16 * 1024 * 1024

(* ---------------------------------------------------------------- *)
(* Advancing the machine                                             *)
(* ---------------------------------------------------------------- *)

let l_dispatch = Spans.layer "engine.dispatch_due"
let l_poll = Spans.layer "cpu.poll_interrupts"
let l_idle = Spans.layer "engine.idle_skip"
let l_batch = Spans.layer "cpu.run_batch"

(* Events run by [Engine.dispatch_due] in traced runs. *)
let events = ref 0

(* [Machine.run_until], step for step.  One clock read ends a call's span
   and starts the next call's, so the loop's own bookkeeping is charged to
   the call that follows it rather than lost. *)
let traced_run_until m ~time =
  let engine = Machine.engine m and cpu = Machine.cpu m in
  let t = ref (Spans.now_ns ()) in
  while Int64.compare (Engine.now engine) time < 0 do
    let t0 = !t in
    events := !events + Engine.dispatch_due engine;
    let t1 = Spans.now_ns () in
    Cpu.poll_interrupts cpu;
    let t2 = Spans.now_ns () in
    let target =
      match Engine.next_event_time engine with
      | Some te when Int64.compare te time < 0 -> te
      | Some _ | None -> time
    in
    let idle = Cpu.halted cpu || Cpu.stopped cpu in
    if idle then Engine.run_until engine ~time:target
    else Cpu.run_batch cpu ~horizon:target ~wake:(Engine.wake_generation engine);
    let t3 = Spans.now_ns () in
    Spans.leaf l_dispatch "engine.dispatch_due" ~start:t0 ~stop:t1;
    Spans.leaf l_poll "cpu.poll_interrupts" ~start:t1 ~stop:t2;
    if idle then Spans.leaf l_idle "engine.idle_skip" ~start:t2 ~stop:t3
    else Spans.leaf l_batch "cpu.run_batch" ~start:t2 ~stop:t3;
    t := t3
  done

let advance m seconds =
  let time =
    Int64.add (Machine.now m) (Costs.cycles_of_seconds (Machine.costs m) seconds)
  in
  if !Spans.enabled then traced_run_until m ~time else Machine.run_until m ~time

(* ---------------------------------------------------------------- *)
(* What a run collects                                               *)
(* ---------------------------------------------------------------- *)

type acc = {
  mutable setups : float list;  (** host s per set-up *)
  mutable windows : (float * float * float) list;
      (** per job: simulated s, guest instructions, host s *)
  mutable ops_ms : float list;  (** host ms per operation *)
  mutable commands : (string * float * float) list;
      (** debug command, host ms, simulated ms to its reply *)
  counters : (string, float) Hashtbl.t;  (** simulated counts, all units *)
  mutable fingerprints : string list;  (** one per unit, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable host_s : float;  (** host s inside the windows *)
}

let create_acc () =
  {
    setups = []; windows = []; ops_ms = []; commands = [];
    counters = Hashtbl.create 64; fingerprints = []; attempted = 0; failed = 0;
    errors = []; host_s = 0.0;
  }

let error acc fmt = Printf.ksprintf (fun s -> acc.errors <- s :: acc.errors) fmt
let check_pins acc values = acc.errors <- Pins.check values @ acc.errors

let sim_seconds m c0 =
  Costs.seconds_of_cycles (Machine.costs m) (Int64.sub (Machine.now m) c0)

let instructions m = Int64.to_float (Cpu.instructions_retired (Machine.cpu m))

let add_window acc ~sim ~instructions ~host =
  acc.windows <- (sim, instructions, host) :: acc.windows;
  acc.host_s <- acc.host_s +. host

(* A job's window on a single machine. *)
let timed_window acc m f =
  let c0 = Machine.now m and i0 = instructions m and h0 = now_s () in
  f ();
  add_window acc ~sim:(sim_seconds m c0) ~instructions:(instructions m -. i0)
    ~host:(now_s () -. h0)

(* One operation: the unit of [op_ms_p50] and [op_ms_p90]. *)
let op acc f =
  let h0 = now_s () in
  let r = f () in
  acc.ops_ms <- ((now_s () -. h0) *. 1000.0) :: acc.ops_ms;
  acc.attempted <- acc.attempted + 1;
  r

let setup acc f =
  let h0 = now_s () in
  let r = Spans.span "setup" f in
  acc.setups <- (now_s () -. h0) :: acc.setups;
  r

(* A debug command, under its own span. *)
let command acc ?(group = false) session name f =
  let h0 = now_s () in
  let r = Spans.span ~group ("session." ^ name) f in
  acc.commands <-
    (name, (now_s () -. h0) *. 1000.0, Session.last_latency_s session *. 1000.0)
    :: acc.commands;
  r

(* ---------------------------------------------------------------- *)
(* Simulated counters                                                *)
(* ---------------------------------------------------------------- *)

let busy_categories =
  [ "guest"; "mon_cpu"; "mon_io"; "mon_pic"; "mon_pit"; "mon_shadow"; "irq"; "stub" ]

let machine_counters m mon =
  let cpu = Machine.cpu m in
  let st = Monitor.stats mon in
  let busy = Stats.busy_by_category (Machine.load m) in
  [
    ("sim.cycles", Int64.to_int (Machine.now m));
    ("cpu.instructions", Int64.to_int (Cpu.instructions_retired cpu));
    ("cpu.blocks_compiled", Cpu.blocks_compiled cpu);
    ("cpu.block_hits", Cpu.block_hits cpu);
    ("cpu.block_invalidations", Cpu.block_invalidations cpu);
    ("cpu.block_fallbacks", Cpu.block_fallbacks cpu);
    ("cpu.icache_hits", Cpu.icache_hits cpu);
    ("cpu.icache_misses", Cpu.icache_misses cpu);
    ("monitor.world_switches", st.Monitor.world_switches);
    ("monitor.shadow_fills", st.Monitor.shadow_fills);
    ("monitor.io_emulations", st.Monitor.io_emulations);
    ("monitor.pic_emulations", st.Monitor.pic_emulations);
    ("monitor.pit_emulations", st.Monitor.pit_emulations);
    ("monitor.reflected_irqs", st.Monitor.reflected_irqs);
    ("profiler.samples", Profiler.total_samples (Machine.profiler m));
  ]
  @ List.map
      (fun cat ->
        ( "sim.busy." ^ cat,
          Int64.to_int (Option.value ~default:0L (List.assoc_opt cat busy)) ))
      busy_categories

let session_counters s =
  [
    ("session.packets", Session.packets_sent s + Session.packets_received s);
    ("session.retransmissions", Session.retransmissions s);
  ]

let final_digest mon =
  Spans.span "check" (fun () -> Snapshot.Full.digest (Monitor.checkpoint_now mon))

(* Close one unit of simulated work (a job; on [faults], a campaign): its
   counters join the run's totals and, with its digest, form its
   fingerprint, which every run of the same seed must repeat. *)
let finish_unit acc counters digest =
  List.iter
    (fun (k, v) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc.counters k) in
      Hashtbl.replace acc.counters k (prev +. float_of_int v))
    counters;
  let fields = List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters in
  acc.fingerprints <-
    String.concat ";" (fields @ [ Printf.sprintf "digest=%016Lx" digest ])
    :: acc.fingerprints

(* What the post-window layer probes need from the last job. *)
type last = { l_monitor : Monitor.t; l_program : Asm.program; l_entry : int }

(* ---------------------------------------------------------------- *)
(* stream: the paper's Fig 3.1 arm                                   *)
(* ---------------------------------------------------------------- *)

let stream_rate_mbps = 150.0
let stream_warmup_s = 0.05
let stream_segment_s = 0.1
let stream_segments = 50

let stream_job acc =
  let m, mon, program =
    setup acc (fun () ->
        let m = Machine.create ~mem_size () in
        let mon = Monitor.install m in
        let program = Kernel.build (Kernel.default_config ~rate_mbps:stream_rate_mbps) in
        Monitor.boot_guest mon program ~entry:Kernel.entry;
        advance m stream_warmup_s;
        (m, mon, program))
  in
  let c0 = Machine.now m in
  let busy0 = Stats.busy_cycles (Machine.load m) in
  let bytes0 = Nic.bytes_sent (Machine.nic m) in
  timed_window acc m (fun () ->
      for _ = 1 to stream_segments do
        op acc (fun () -> advance m stream_segment_s)
      done);
  let bytes = Int64.sub (Nic.bytes_sent (Machine.nic m)) bytes0 in
  let busy = Int64.sub (Stats.busy_cycles (Machine.load m)) busy0 in
  let elapsed = Int64.sub (Machine.now m) c0 in
  let digest = final_digest mon in
  let counters = machine_counters m mon in
  check_pins acc
    [
      ( "stream.achieved_mbps",
        Printf.sprintf "%.6f" (Int64.to_float bytes *. 8.0 /. sim_seconds m c0 /. 1e6) );
      ("stream.cpu_load", Printf.sprintf "%.6f" (Int64.to_float busy /. Int64.to_float elapsed));
      ("stream.instructions", string_of_int (List.assoc "cpu.instructions" counters));
      ("stream.world_switches", string_of_int (List.assoc "monitor.world_switches" counters));
      ("stream.digest", Printf.sprintf "%016Lx" digest);
    ];
  finish_unit acc counters digest;
  { l_monitor = mon; l_program = program; l_entry = Kernel.entry }

(* ---------------------------------------------------------------- *)
(* compute: the CPU-bound loop as a ring-1 guest                     *)
(* ---------------------------------------------------------------- *)

let compute_origin = 0x1000
let compute_warmup_s = 0.001
let compute_segment_s = 0.002
let compute_segments = 25

(* The [sim-speed] loop: register, memory and stack traffic, no idling. *)
let compute_program () =
  let a = Asm.create ~origin:compute_origin () in
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
  Asm.assemble a

let compute_job acc =
  let m, mon, program =
    setup acc (fun () ->
        let m = Machine.create ~mem_size () in
        let mon = Monitor.install m in
        let program = compute_program () in
        Monitor.boot_guest mon program ~entry:compute_origin;
        advance m compute_warmup_s;
        (m, mon, program))
  in
  timed_window acc m (fun () ->
      for _ = 1 to compute_segments do
        op acc (fun () -> advance m compute_segment_s)
      done);
  let cpu = Machine.cpu m in
  let digest = final_digest mon in
  let counters = machine_counters m mon in
  let regs =
    String.concat "," (List.init 16 (fun r -> Printf.sprintf "%x" (Cpu.read_reg cpu r)))
  in
  check_pins acc
    [
      ("compute.registers", Printf.sprintf "%s,pc=%x" regs (Cpu.pc cpu));
      ("compute.instructions", string_of_int (List.assoc "cpu.instructions" counters));
    ];
  finish_unit acc counters digest;
  { l_monitor = mon; l_program = program; l_entry = compute_origin }

(* ---------------------------------------------------------------- *)
(* debug: a developer driving the default lwvmm_dbg configuration    *)
(* ---------------------------------------------------------------- *)

let debug_rate_mbps = 100.0

(* [boot] runs once, before any session exists, so a breakpoint there
   would never be reached. *)
let debug_sites =
  List.filter_map
    (fun (s, _) -> if s = "boot" then None else Some s)
    Kernel.interesting_symbols

(* Fisher-Yates, drawing from the workload's seeded stream. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let debug_job acc rng =
  let m, mon, program, s =
    setup acc (fun () ->
        let m = Machine.create ~mem_size () in
        let mon = Monitor.install m in
        Machine.set_profiling m ~period:Profiler.default_period;
        let program = Kernel.build (Kernel.default_config ~rate_mbps:debug_rate_mbps) in
        Monitor.boot_guest mon program ~entry:Kernel.entry;
        Monitor.checkpoint_start mon;
        advance m 0.02;
        (m, mon, program, Session.attach m))
  in
  let cmd name ok f =
    if not (ok (op acc (fun () -> command acc ~group:true s name f))) then begin
      acc.failed <- acc.failed + 1;
      error acc "debug: %s got a malformed or missing reply" name
    end
  in
  let step_done = function Some (Command.Step_done _) -> true | _ -> false in
  let code_len = Bytes.length program.Asm.code in
  (* Stratified draws: a job's rounds use every site twice, every eighth
     of the 16-255 B read lengths and every eighth of the 1-5 ms free
     runs once each, in seeded order and with seeded values inside each
     eighth.  How long a job spends halted (replies) versus running
     (checkpoints) then barely depends on the draw. *)
  let rounds = 2 * List.length debug_sites in
  let strata () = shuffle rng (List.init rounds Fun.id) in
  let plan =
    List.combine (shuffle rng (debug_sites @ debug_sites)) (List.combine (strata ()) (strata ()))
  in
  timed_window acc m (fun () ->
      List.iter
        (fun (site, (len_k, free_k)) ->
          let site = Asm.symbol program site in
          let len = 16 + (30 * len_k) + Rng.int rng 30 in
          let addr = program.Asm.origin + Rng.int rng (code_len - len) in
          cmd "halt"
            (function Some (Command.Halt_requested _) -> true | _ -> false)
            (fun () -> Session.halt s);
          cmd "g"
            (function Some regs -> Array.length regs >= 16 | None -> false)
            (fun () -> Session.read_registers s);
          cmd "m"
            (fun r -> r <> None && r = Monitor.guest_read mon ~addr ~len)
            (fun () -> Session.read_memory s ~addr ~len);
          (* halted first: a site planted on a running guest can fire
             before [c] arrives, and [c] would then resume past it *)
          cmd "Z0" Fun.id (fun () -> Session.insert_breakpoint s site);
          cmd "c_wait"
            (function Some (Command.Break pc) -> pc = site | _ -> false)
            (fun () -> Session.continue_ s; Session.wait_stop s);
          cmd "z0" Fun.id (fun () -> Session.remove_breakpoint s site);
          for _ = 1 to 4 do cmd "s" step_done (fun () -> Session.step s) done;
          cmd "rs" step_done (fun () -> Session.reverse_step s);
          cmd "c" (fun () -> true) (fun () -> Session.continue_ s);
          advance m (0.001 +. (0.0005 *. (float_of_int free_k +. Rng.float rng 1.0))))
        plan);
  if Session.unsolicited_errors s <> 0 then error acc "debug: the stub refused a resume";
  let digest = final_digest mon in
  finish_unit acc (machine_counters m mon @ session_counters s) digest;
  { l_monitor = mon; l_program = program; l_entry = Kernel.entry }

(* ---------------------------------------------------------------- *)
(* faults: recorded gauntlet campaigns, verified by replay            *)
(* ---------------------------------------------------------------- *)

(* A fast debug UART, as in the bench gauntlet, so a campaign's probes
   fit inside its fault windows. *)
let fault_costs = { Costs.default with Costs.uart_cycles_per_byte = 2000 }
let fault_rate_mbps = 20.0
let campaigns_per_job = 8
let classes_per_campaign = 3

type outcome = {
  survived : bool;
  reconnects : int;
  restarted : bool;
  probes_sent : int;
  probes_answered : int;
}

(* One pass of the bench gauntlet's campaign, without its embedded-
   debugger half.  [replay] re-runs it from a recorded trace; the
   recorder then checks every nondeterministic event against the trace.
   [on_booted] runs when the boot phase ends. *)
let campaign acc ?replay ~seed ~classes ~on_booted () =
  let rng = Rng.create ~seed in
  let cyc sec = Costs.cycles_of_seconds fault_costs sec in
  let phase name f = Spans.span ("campaign." ^ name) f in
  let m, mon, program, plan, s =
    phase "boot" (fun () ->
        let m = Machine.create ~mem_size ~costs:fault_costs () in
        let recorder = Machine.recorder m in
        (match replay with
         | None -> Recorder.start_record recorder
         | Some events -> Recorder.start_replay recorder events);
        let mon = Monitor.install m in
        let program = Kernel.build (Kernel.default_config ~rate_mbps:fault_rate_mbps) in
        Monitor.boot_guest mon program ~entry:Kernel.entry;
        Monitor.watchdog_start mon;
        advance m 0.01;
        let plan = Plan.create ~seed ~engine:(Machine.engine m) in
        let chaos = Plan.chaos plan in
        Chaos.set_recorder chaos recorder;
        let s =
          Session.attach
            ~wrap_to_target:(Chaos.wrap ~source:"chaos.h2t" chaos)
            ~wrap_to_host:(Chaos.wrap ~source:"chaos.t2h" chaos) m
        in
        (m, mon, program, plan, s))
  in
  on_booted m;
  let cmd name f = command acc s name f in
  let now = Machine.now m in
  List.iter
    (fun cls ->
      let at = Int64.add now (cyc (0.002 +. Rng.float rng 0.02)) in
      let until = Int64.add at (cyc (0.02 +. Rng.float rng 0.04)) in
      Plan.arm plan ~monitor:mon cls ~at ~until)
    classes;
  let reconnects = ref 0 and sent = ref 0 and answered = ref 0 in
  let reconnect () =
    incr reconnects;
    ignore (cmd "reconnect" (fun () -> Session.reconnect ~timeout_s:1.0 s))
  in
  let probe ?(timeout_s = 1.0) () =
    incr sent;
    match cmd "g" (fun () -> Session.read_registers ~timeout_s s) with
    | Some _ -> incr answered; true
    | None -> if not (Session.link_up s) then reconnect (); false
  in
  phase "windows" (fun () ->
      for _ = 1 to 16 do
        ignore (probe ~timeout_s:0.5 ());
        advance m 0.005
      done);
  (* Past the windows: probe until the link answers, resynchronising both
     ends after each miss. *)
  let rec recover tries =
    probe () || (tries > 0 && (reconnect (); recover (tries - 1)))
  in
  let link_ok = phase "recover" (fun () -> recover 8) in
  let crashed = Monitor.crashed mon in
  let wedged = (Monitor.stats mon).Monitor.wedge_breakins > 0 in
  let restarted =
    (crashed || wedged)
    && phase "restart" (fun () ->
           cmd "restart" (fun () -> Session.restart ~timeout_s:2.0 s) = Session.Restarted)
  in
  (* The gauntlet ends on a single probe.  A guest that faults as soon as
     [c] resumes it can leave that probe's reply unpaired in the host
     session (seeds 10 and 147 of the gauntlet), so the round trip ends
     with the same recovery loop instead. *)
  let roundtrip =
    phase "roundtrip" (fun () ->
        cmd "Z0" (fun () -> Session.insert_breakpoint s Kernel.entry)
        && cmd "m" (fun () -> Session.read_memory s ~addr:Kernel.entry ~len:16) <> None
        && cmd "z0" (fun () -> Session.remove_breakpoint s Kernel.entry)
        && (cmd "c" (fun () -> Session.continue_ s);
            cmd "?" (fun () -> Session.is_running s) <> None)
        && recover 8)
  in
  let recorder = Machine.recorder m in
  let digest = final_digest mon in
  let divergence =
    match replay with Some _ -> Recorder.finish_replay recorder | None -> None
  in
  let events = Recorder.recorded recorder in
  let counters =
    machine_counters m mon @ session_counters s
    @ [ ("recorder.events", Recorder.position recorder) ]
  in
  Recorder.stop recorder;
  let outcome =
    {
      survived = link_ok && roundtrip && ((not (crashed || wedged)) || restarted);
      reconnects = !reconnects;
      restarted;
      probes_sent = !sent;
      probes_answered = !answered;
    }
  in
  (outcome, events, digest, divergence, counters, (mon, program))

(* A campaign recorded and then replayed.  Its record-pass boot is the
   set-up; the rest, replay included, is one operation.  The record
   pass's machine is collected before the replay pass boots, outside the
   timing, so peak RSS is one pass's and does not depend on when the
   major GC happened to run. *)
let verified_campaign acc ~seed ~classes =
  let h0 = now_s () in
  let booted = ref (h0, 0L, 0.0) in
  let on_booted m = booted := (now_s (), Machine.now m, instructions m) in
  let r, events, digest, _, counters, _ =
    Spans.span "recorder.record" (campaign acc ~seed ~classes ~on_booted)
  in
  let h1, c1, i1 = !booted in
  let record_s = now_s () -. h1 in
  Spans.span "gc" Gc.full_major;
  let h2 = now_s () in
  let r', _, digest', divergence, counters', last =
    Spans.span "recorder.replay" (campaign acc ~replay:events ~seed ~classes ~on_booted:ignore)
  in
  let host = record_s +. now_s () -. h2 in
  acc.setups <- (h1 -. h0) :: acc.setups;
  acc.ops_ms <- (host *. 1000.0) :: acc.ops_ms;
  acc.attempted <- acc.attempted + 1;
  if not (r.survived && r' = r && divergence = None && digest' = digest) then begin
    acc.failed <- acc.failed + 1;
    error acc "faults: campaign seed %Ld %s" seed
      (if r.survived then "did not replay bit-exactly" else "did not survive")
  end;
  let both k = List.assoc k counters + List.assoc k counters' in
  finish_unit acc
    (List.map (fun (k, _) -> (k, both k)) counters
    @ [
        ("faults.reconnects", r.reconnects);
        ("faults.restarts", if r.restarted then 1 else 0);
        ("faults.probes_sent", r.probes_sent);
        ("faults.probes_answered", r.probes_answered);
      ])
    digest;
  let sim = Costs.seconds_of_cycles fault_costs (Int64.sub (Int64.of_int (both "sim.cycles")) c1) in
  (sim, float_of_int (both "cpu.instructions") -. i1, host, last)

(* Campaign i of a run uses seed + i, as in the bench gauntlet.  Which
   classes a campaign arms is drawn per job instead: two seeded
   permutations of every class, cut into campaigns of three, so each job
   arms every class exactly twice and its cost does not hinge on how many
   guest-killing classes the draw happened to pick. *)
let faults_job acc rng ~seed ~job =
  let slots = Array.of_list (shuffle rng Plan.all @ shuffle rng Plan.all) in
  let rec go c (sim, ins, host) =
    let seed = Int64.add seed (Int64.of_int ((job * campaigns_per_job) + c)) in
    let classes = Array.to_list (Array.sub slots (c * classes_per_campaign) classes_per_campaign) in
    Spans.span "gc" Gc.full_major;
    let s, i, h, (mon, program) = verified_campaign acc ~seed ~classes in
    let totals = (sim +. s, ins +. i, host +. h) in
    if c + 1 < campaigns_per_job then go (c + 1) totals
    else begin
      let sim, instructions, host = totals in
      add_window acc ~sim ~instructions ~host;
      { l_monitor = mon; l_program = program; l_entry = Kernel.entry }
    end
  in
  go 0 (0.0, 0.0, 0.0)

(* ---------------------------------------------------------------- *)
(* Runs                                                              *)
(* ---------------------------------------------------------------- *)

let names = [ "stream"; "compute"; "debug"; "faults" ]

(* Repeat jobs until their windows fill [seconds] of host time (at least
   one job).  A fresh heap per job keeps one job's garbage out of the
   next one's timing. *)
let run workload ~seed ~seconds =
  let acc = create_acc () in
  let rng = Rng.create ~seed in
  let job i =
    match workload with
    | "stream" -> stream_job acc
    | "compute" -> compute_job acc
    | "debug" -> debug_job acc (Rng.split rng)
    | "faults" -> faults_job acc (Rng.split rng) ~seed ~job:i
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let rec loop i last =
    if (i > 0 && acc.host_s >= seconds) || acc.errors <> [] then last
    else begin
      Gc.full_major ();
      let l = Spans.span ~group:true "job" (fun () -> job i) in
      loop (i + 1) (Some l)
    end
  in
  let last = loop 0 None in
  (acc, Option.get last)

(* Layer costs the windows do not isolate, timed after them on the last
   job's monitor: 20 calls each to the snapshot entry points and 5 to the
   load-time verifier. *)
let probe_layers last =
  Spans.span "probes" (fun () ->
      let mon = last.l_monitor in
      let fulls =
        List.init 20 (fun _ ->
            Spans.span "snapshot.capture" (fun () -> Monitor.checkpoint_now mon))
      in
      List.iter
        (fun f -> Spans.span "snapshot.restore" (fun () -> Monitor.restore_checkpoint mon f))
        fulls;
      List.iter
        (fun f -> ignore (Spans.span "snapshot.digest" (fun () -> Snapshot.Full.digest f)))
        fulls;
      for _ = 1 to 5 do
        ignore
          (Spans.span "verifier.verify" (fun () ->
               Monitor.verify_guest mon last.l_program ~entry:last.l_entry))
      done)
