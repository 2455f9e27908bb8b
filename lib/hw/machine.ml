module Engine = Vmm_sim.Engine
module Stats = Vmm_sim.Stats
module Registry = Vmm_obs.Registry
module Tracer = Vmm_obs.Tracer
module Recorder = Vmm_replay.Recorder
module Profiler = Vmm_profile.Profiler
module Flight = Vmm_profile.Flight

module Ports = struct
  let pic = 0x20
  let pit = 0x40
  let uart = 0x3F8
  let scsi = 0x1C0
  let nic = 0x2C0
end

module Irq = struct
  let timer = 0
  let uart = 4
  let nic = 5
  let scsi = 6
end

type t = {
  engine : Engine.t;
  mem : Phys_mem.t;
  bus : Io_bus.t;
  cpu : Cpu.t;
  pic : Pic.t;
  pit : Pit.t;
  uart : Uart.t;
  scsi : Scsi.t;
  nic : Nic.t;
  costs : Costs.t;
  trace : Flight.t;
  load : Stats.load;
  registry : Registry.t;
  tracer : Tracer.t;
  recorder : Recorder.t;
  profiler : Profiler.t;
  flight : Flight.t;
  mutable jit_counters_mark : int;
      (* sum of the CPU's block-cache counters at the last Perfetto
         counter-track emission; counters only grow, so an unchanged sum
         means nothing to emit *)
}

let default_mem_size = 16 * 1024 * 1024

let create ?(mem_size = default_mem_size) ?(costs = Costs.default) () =
  let engine = Engine.create () in
  let mem = Phys_mem.create ~size:mem_size in
  let bus = Io_bus.create () in
  let load = Stats.load () in
  let cpu = Cpu.create ~mem ~bus ~engine ~costs ~load () in
  let recorder = Recorder.create () in
  (* Record/replay taps: every nondeterministic event at the machine
     boundary reports to the recorder (a no-op until a recording or
     replay starts).  Device-internal scheduling is deterministic; what
     gets logged is the points where timing meets the instruction
     stream — IRQ raises from timer/DMA expiry — plus host-driven
     ingress (UART bytes, NIC frames). *)
  let flight = Flight.create () in
  (* Every nondeterministic event also lands in the always-on flight
     ring (one ring write of the typed payload, rendered only when the
     ring is dumped), so a crash dump shows the last moments even when
     nothing was recording. *)
  let emit source payload =
    let cycle = Engine.now engine in
    Recorder.emit recorder ~cycle ~source payload;
    Flight.note flight ~cycle ~kind:source (Flight.Event payload)
  in
  let pic = Pic.create () in
  Pic.attach pic bus ~base:Ports.pic;
  Cpu.set_pic cpu ~ack:(fun () -> Pic.ack pic) ~pending:(fun () -> Pic.pending pic);
  let pit_fires = ref 0 in
  let pit =
    Pit.create ~engine ~costs
      ~raise_irq:(fun () ->
        incr pit_fires;
        emit "pit" (Vmm_replay.Event.Timer_fire { count = !pit_fires });
        Pic.raise_irq pic Irq.timer)
      ()
  in
  Pit.attach pit bus ~base:Ports.pit;
  let uart = Uart.create ~engine ~costs () in
  Uart.set_irq uart (fun () -> Pic.raise_irq pic Irq.uart);
  Uart.set_rx_tap uart (fun byte ->
      emit "uart.rx" (Vmm_replay.Event.Uart_rx { byte }));
  Uart.attach uart bus ~base:Ports.uart;
  let scsi = Scsi.create ~engine ~costs ~mem ~targets:3 () in
  let scsi_seq = ref 0 in
  Scsi.set_irq scsi (fun () ->
      incr scsi_seq;
      emit "scsi.irq"
        (Vmm_replay.Event.Dma_complete { chan = "scsi"; seq = !scsi_seq });
      Pic.raise_irq pic Irq.scsi);
  Scsi.attach scsi bus ~base:Ports.scsi;
  let nic = Nic.create ~engine ~costs ~mem () in
  let nic_seq = ref 0 in
  Nic.set_irq nic (fun () ->
      incr nic_seq;
      emit "nic.irq"
        (Vmm_replay.Event.Dma_complete { chan = "nic"; seq = !nic_seq });
      Pic.raise_irq pic Irq.nic);
  Nic.set_rx_tap nic (fun frame ->
      emit "nic.rx" (Vmm_replay.Event.Nic_rx { len = Bytes.length frame }));
  Nic.attach nic bus ~base:Ports.nic;
  let trace = Flight.create ~capacity:4096 () in
  let registry = Registry.create () in
  let tracer = Tracer.create ~engine () in
  let profiler = Profiler.create () in
  Nic.set_tracer nic tracer;
  Scsi.set_tracer scsi tracer;
  (* Device metrics (subsystem_name_unit); monitor/link metrics join the
     same registry when a monitor is installed. *)
  Pic.set_latency_probe pic
    ~now:(fun () -> Engine.now engine)
    ~observe:
      (let h =
         Registry.histogram registry "pic_delivery_latency_cycles"
           ~buckets:64 ~width:2000.0
       in
       Stats.observe h);
  Registry.int_gauge registry "pic_irqs_raised_total" (fun () -> Pic.raises pic);
  Registry.int_gauge registry "pic_irqs_acked_total" (fun () -> Pic.acks pic);
  Registry.int_gauge registry "pit_ticks_total" (fun () -> Pit.ticks_fired pit);
  Registry.int_gauge registry "nic_frames_sent_total" (fun () ->
      Nic.frames_sent nic);
  Registry.gauge registry "nic_bytes_sent_bytes" (fun () ->
      Int64.to_float (Nic.bytes_sent nic));
  Registry.int_gauge registry "nic_tx_queued_frames" (fun () ->
      Nic.tx_queued nic);
  Registry.int_gauge registry "nic_tx_stalls_total" (fun () ->
      Nic.tx_stalls nic);
  Registry.gauge registry "nic_tx_stall_cycles_total" (fun () ->
      Int64.to_float (Nic.stall_cycles nic));
  Registry.int_gauge registry "nic_tx_overflows_total" (fun () ->
      Nic.overflows nic);
  Registry.int_gauge registry "nic_dma_refused_total"
    ~help:"NIC frames dropped because their buffer left the DMA window"
    (fun () -> Nic.dma_refused nic);
  Registry.int_gauge registry "scsi_reads_completed_total" (fun () ->
      Scsi.reads_completed scsi);
  Registry.int_gauge registry "scsi_writes_completed_total" (fun () ->
      Scsi.writes_completed scsi);
  Registry.gauge registry "scsi_bytes_read_bytes" (fun () ->
      Int64.to_float (Scsi.bytes_read scsi));
  Registry.int_gauge registry "scsi_read_errors_total" (fun () ->
      Scsi.read_errors scsi);
  Registry.int_gauge registry "scsi_busy_targets" (fun () ->
      Scsi.busy_targets scsi);
  Registry.int_gauge registry "cpu_icache_hits_total" (fun () ->
      Cpu.icache_hits cpu);
  Registry.int_gauge registry "cpu_icache_misses_total" (fun () ->
      Cpu.icache_misses cpu);
  Registry.int_gauge registry "cpu_icache_invalidations_total" (fun () ->
      Cpu.icache_invalidations cpu);
  Registry.int_gauge registry "mmu_tlb_hits_total" (fun () ->
      Mmu.tlb_hits (Cpu.mmu cpu));
  Registry.int_gauge registry "mmu_tlb_misses_total"
    ~help:"TLB misses: page-table walks, including walks that fault"
    (fun () -> Mmu.tlb_misses (Cpu.mmu cpu));
  Registry.int_gauge registry "mmu_tlb_flushes_total"
    ~help:"whole-TLB flushes (LPTB, TLBFLUSH and monitor shadow updates)"
    (fun () -> Mmu.tlb_flushes (Cpu.mmu cpu));
  Registry.int_gauge registry "cpu_block_compiled_total"
    ~help:"basic blocks compiled by the threaded-code translator" (fun () ->
      Cpu.blocks_compiled cpu);
  Registry.int_gauge registry "cpu_block_hits_total"
    ~help:"block-cache dispatches that revalidated a compiled block"
    (fun () -> Cpu.block_hits cpu);
  Registry.int_gauge registry "cpu_block_invalidations_total"
    ~help:"compiled blocks dropped by write-generation revalidation"
    (fun () -> Cpu.block_invalidations cpu);
  Registry.int_gauge registry "cpu_block_chain_follows_total"
    ~help:"superblock chain follows across taken transfers" (fun () ->
      Cpu.block_chain_follows cpu);
  Registry.int_gauge registry "cpu_block_interp_fallbacks_total"
    ~help:"translator dispatches that fell back to one interpreter step"
    (fun () -> Cpu.block_fallbacks cpu);
  Registry.gauge registry "cpu_busy_cycles_total" (fun () ->
      Int64.to_float (Stats.busy_cycles load));
  Registry.gauge registry "sim_now_cycles" (fun () ->
      Int64.to_float (Engine.now engine));
  Registry.int_gauge registry "profiler_samples_total"
    ~help:"pc samples taken by the continuous profiler" (fun () ->
      Profiler.total_samples profiler);
  Registry.gauge registry "profiler_period_cycles"
    ~help:"profiler sampling period in guest cycles (0 = off)" (fun () ->
      Int64.to_float (Profiler.period profiler));
  Registry.int_gauge registry "flight_events_total"
    ~help:"events ever written to the flight ring" (fun () ->
      Flight.total flight);
  Registry.int_gauge registry "flight_events_dropped_total"
    ~help:"flight-ring entries overwritten by wrap" (fun () ->
      Flight.dropped flight);
  {
    engine;
    mem;
    bus;
    cpu;
    pic;
    pit;
    uart;
    scsi;
    nic;
    costs;
    trace;
    load;
    registry;
    tracer;
    recorder;
    profiler;
    flight;
    jit_counters_mark = 0;
  }

let cpu t = t.cpu
let mem t = t.mem
let bus t = t.bus
let engine t = t.engine
let costs t = t.costs
let pic t = t.pic
let pit t = t.pit
let uart t = t.uart
let scsi t = t.scsi
let nic t = t.nic
let trace t = t.trace
let load t = t.load
let registry t = t.registry
let tracer t = t.tracer
let recorder t = t.recorder
let profiler t = t.profiler
let flight t = t.flight

(* Arm (period > 0) or disarm (period = 0) continuous pc sampling: the
   CPU's dispatch-loop cadence feeds the machine's profiler, attributing
   each sample to the load accumulator's current category (guest,
   mon_*, irq, stub, ...). *)
let set_profiling t ~period =
  Profiler.set_period t.profiler period;
  Cpu.set_sampling t.cpu ~period
    ~hook:(fun ~pc ~cpl ->
      Profiler.sample t.profiler ~pc ~ring:cpl ~cat:(Stats.category t.load))

let set_dma_limit t limit =
  Scsi.set_dma_limit t.scsi limit;
  Nic.set_dma_limit t.nic limit

let now t = Engine.now t.engine

let utilization t ~since ~since_busy =
  let elapsed = Int64.sub (now t) since in
  let busy = Int64.sub (Stats.busy_cycles t.load) since_busy in
  if Int64.compare elapsed 0L <= 0 then 0.0
  else
    let u = Int64.to_float busy /. Int64.to_float elapsed in
    if u < 0.0 then 0.0 else if u > 1.0 then 1.0 else u

let idle t = Cpu.halted t.cpu || Cpu.stopped t.cpu

(* Perfetto counter tracks for the block cache, sampled at batch
   granularity from the dispatcher (never from inside a chain, so the
   tracer stays invisible to guest timing).  Emitted only when armed and
   only when some counter moved — the counters are monotone, so an
   unchanged sum means an unchanged tuple. *)
let emit_block_counters t =
  if Tracer.enabled t.tracer then begin
    let compiled = Cpu.blocks_compiled t.cpu in
    let hits = Cpu.block_hits t.cpu in
    let inval = Cpu.block_invalidations t.cpu in
    let chains = Cpu.block_chain_follows t.cpu in
    let fallbacks = Cpu.block_fallbacks t.cpu in
    let mark = compiled + hits + inval + chains + fallbacks in
    if mark <> t.jit_counters_mark then begin
      t.jit_counters_mark <- mark;
      let c name v =
        Tracer.counter t.tracer ~cat:"jit" name (float_of_int v)
      in
      c "cpu_block_compiled" compiled;
      c "cpu_block_hits" hits;
      c "cpu_block_invalidations" inval;
      c "cpu_block_chain_follows" chains;
      c "cpu_block_interp_fallbacks" fallbacks
    end
  end

let run_until t ~time =
  while Int64.compare (Engine.now t.engine) time < 0 do
    ignore (Engine.dispatch_due t.engine);
    Cpu.poll_interrupts t.cpu;
    if idle t then begin
      (* Skip idle time to the next device event (or the horizon). *)
      match Engine.next_event_time t.engine with
      | Some te ->
        let target = if Int64.compare te time > 0 then time else te in
        Engine.run_until t.engine ~time:target
      | None -> Engine.run_until t.engine ~time
    end
    else begin
      (* Event-horizon batch: nothing can fire before the next scheduled
         event, so step in a tight loop up to it (or to [time]); the wake
         generation snaps the batch shut if an instruction schedules
         something new (device kick, monitor timer). *)
      let horizon =
        match Engine.next_event_time t.engine with
        | Some te when Int64.compare te time < 0 -> te
        | Some _ | None -> time
      in
      Cpu.run_batch t.cpu ~horizon ~wake:(Engine.wake_generation t.engine);
      emit_block_counters t
    end
  done

let run_for t ~cycles = run_until t ~time:(Int64.add (now t) cycles)

let run_seconds t s = run_for t ~cycles:(Costs.cycles_of_seconds t.costs s)

let run_steps t n =
  let retired = ref 0 in
  let stuck = ref false in
  while !retired < n && not !stuck do
    ignore (Engine.dispatch_due t.engine);
    Cpu.poll_interrupts t.cpu;
    if idle t then begin
      match Engine.next_event_time t.engine with
      | Some te -> Engine.run_until t.engine ~time:te
      | None -> stuck := true
    end
    else begin
      Cpu.step t.cpu;
      incr retired
    end
  done;
  !retired

let run_until_halted ?(limit = 1_000_000) t =
  let steps = ref 0 in
  let halted = ref (Cpu.halted t.cpu) in
  while (not !halted) && !steps < limit do
    ignore (Engine.dispatch_due t.engine);
    Cpu.poll_interrupts t.cpu;
    if Cpu.halted t.cpu then halted := true
    else if Cpu.stopped t.cpu then begin
      match Engine.next_event_time t.engine with
      | Some te -> Engine.run_until t.engine ~time:te
      | None -> steps := limit
    end
    else begin
      Cpu.step t.cpu;
      incr steps;
      if Cpu.halted t.cpu then halted := true
    end
  done;
  !halted

let load_program t program = Asm.load program t.mem

let boot t program ~entry =
  load_program t program;
  Cpu.set_pc t.cpu entry;
  Cpu.set_halted t.cpu false;
  Cpu.set_stopped t.cpu false
