module Machine = Vmm_hw.Machine
module Nic = Vmm_hw.Nic
module Costs = Vmm_hw.Costs
module Stats = Vmm_sim.Stats
module Kernel = Vmm_guest.Kernel
module Monitor = Core.Monitor
module Full_vmm = Vmm_baseline.Full_vmm

type system =
  | Bare_metal
  | Lightweight_vmm
  | Hosted_full_vmm

let system_name = function
  | Bare_metal -> "real hardware"
  | Lightweight_vmm -> "lightweight VMM"
  | Hosted_full_vmm -> "full VMM (hosted)"

let all_systems = [ Bare_metal; Lightweight_vmm; Hosted_full_vmm ]

type measurement = {
  system : system;
  requested_mbps : float;
  achieved_mbps : float;
  cpu_load : float;
  duration_s : float;
  frames : int;
  counters : Kernel.counters;
  busy_cycles : int64;
  elapsed_cycles : int64;
  breakdown : (string * int64) list;
  irq_latency_p50 : float;
  irq_latency_p99 : float;
}

type context =
  | Ctx_bare of Machine.t
  | Ctx_lw of Monitor.t
  | Ctx_full of Full_vmm.t

let machine_of = function
  | Ctx_bare m -> m
  | Ctx_lw mon -> Monitor.machine mon
  | Ctx_full vmm -> Full_vmm.machine vmm

let system_of_context = function
  | Ctx_bare _ -> Bare_metal
  | Ctx_lw _ -> Lightweight_vmm
  | Ctx_full _ -> Hosted_full_vmm

let prepare ?(costs = Costs.default) ?(mem_size = 16 * 1024 * 1024) system
    ~config =
  let m = Machine.create ~mem_size ~costs () in
  let program = Kernel.build config in
  let ctx =
    match system with
    | Bare_metal ->
      Machine.boot m program ~entry:Kernel.entry;
      Ctx_bare m
    | Lightweight_vmm ->
      let mon = Monitor.install m in
      Monitor.boot_guest mon program ~entry:Kernel.entry;
      Ctx_lw mon
    | Hosted_full_vmm ->
      let vmm = Full_vmm.install m in
      Full_vmm.boot_guest vmm program ~entry:Kernel.entry;
      Ctx_full vmm
  in
  (ctx, program)

(* Per-category deltas over a window.  [busy_by_category] values only
   grow, so every [before] category reappears in [after] and the deltas
   sum to the window's busy-cycle delta. *)
let breakdown_delta before after =
  List.filter_map
    (fun (cat, v) ->
      let v0 = Option.value ~default:0L (List.assoc_opt cat before) in
      let d = Int64.sub v v0 in
      if Int64.compare d 0L > 0 then Some (cat, d) else None)
    after

let measure ctx program ~config ~warmup_s ~duration_s =
  let m = machine_of ctx in
  let nic = Machine.nic m in
  Machine.run_seconds m warmup_s;
  (* Delivery latency comes from the interrupt controller the guest
     actually takes interrupts from: the monitor's virtual PIC when one
     is installed, the physical PIC otherwise.  Reset after warmup so the
     percentiles describe only the measurement window. *)
  let registry = Machine.registry m in
  let irq_hist =
    match
      Vmm_obs.Registry.find_histogram registry "vpic_delivery_latency_cycles"
    with
    | Some h -> Some h
    | None ->
      Vmm_obs.Registry.find_histogram registry "pic_delivery_latency_cycles"
  in
  Option.iter Stats.reset_histogram irq_hist;
  let t0 = Machine.now m in
  let busy0 = Stats.busy_cycles (Machine.load m) in
  let by_cat0 = Stats.busy_by_category (Machine.load m) in
  let bytes0 = Nic.bytes_sent nic in
  let frames0 = Nic.frames_sent nic in
  Machine.run_seconds m duration_s;
  let elapsed = Int64.sub (Machine.now m) t0 in
  let busy = Int64.sub (Stats.busy_cycles (Machine.load m)) busy0 in
  let bytes = Int64.sub (Nic.bytes_sent nic) bytes0 in
  let frames = Nic.frames_sent nic - frames0 in
  let costs = Machine.costs m in
  let seconds = Costs.seconds_of_cycles costs elapsed in
  let cpu_load = Machine.utilization m ~since:t0 ~since_busy:busy0 in
  let achieved_mbps =
    if seconds <= 0.0 then 0.0
    else Int64.to_float bytes *. 8.0 /. seconds /. 1e6
  in
  let percentile p =
    match irq_hist with Some h -> Stats.percentile h p | None -> 0.0
  in
  {
    system = system_of_context ctx;
    requested_mbps = config.Kernel.rate_mbps;
    achieved_mbps;
    cpu_load;
    duration_s = seconds;
    frames;
    counters = Kernel.read_counters (Machine.mem m) program;
    busy_cycles = busy;
    elapsed_cycles = elapsed;
    breakdown =
      breakdown_delta by_cat0 (Stats.busy_by_category (Machine.load m));
    irq_latency_p50 = percentile 50.0;
    irq_latency_p99 = percentile 99.0;
  }

let run ?costs ?mem_size ?(warmup_s = 0.05) system ~rate_mbps ~duration_s =
  let config = Kernel.default_config ~rate_mbps in
  let ctx, program = prepare ?costs ?mem_size system ~config in
  let m = measure ctx program ~config ~warmup_s ~duration_s in
  (m, ctx)

let sustains ?costs ~duration_s system rate =
  (* Widen the window at low rates so it covers enough segments that
     quantization noise cannot mask a sustained rate. *)
  let config = Kernel.default_config ~rate_mbps:rate in
  let segment_s =
    float_of_int (8 * config.Kernel.segment_bytes) /. (rate *. 1e6)
  in
  let duration_s = max duration_s (20.0 *. segment_s) in
  let m, _ = run ?costs system ~rate_mbps:rate ~duration_s in
  m.achieved_mbps >= 0.95 *. rate && m.cpu_load < 0.99

let max_sustainable_rate ?costs ?(duration_s = 0.2) system ~lo ~hi ~steps =
  let rec bisect lo hi steps =
    if steps = 0 then lo
    else
      let mid = (lo +. hi) /. 2.0 in
      if sustains ?costs ~duration_s system mid then bisect mid hi (steps - 1)
      else bisect lo mid (steps - 1)
  in
  if sustains ?costs ~duration_s system hi then hi
  else if not (sustains ?costs ~duration_s system lo) then lo
  else bisect lo hi steps
