(** A complete PC/AT-like target machine: CPU, memory, interrupt
    controller, timer, serial port, a three-target SCSI controller and a
    gigabit NIC, all sharing one simulation engine.

    The run loop interleaves instruction execution with device events and
    keeps the busy/idle accounting the CPU-load experiments rely on:
    instruction and emulation cycles are busy; time skipped while the CPU
    is halted (or stopped by the debugger) is idle. *)

(** Fixed port assignments, mirroring a PC/AT layout. *)
module Ports : sig
  val pic : int
  val pit : int
  val uart : int
  val scsi : int
  val nic : int
end

(** IRQ line assignments. *)
module Irq : sig
  val timer : int
  val uart : int
  val nic : int
  val scsi : int
end

type t

(** [create ?mem_size ?costs ()] builds and wires a machine.  Default
    memory is 16 MiB; the CPU starts at pc 0, ring 0, paging off,
    interrupts off. *)
val create : ?mem_size:int -> ?costs:Costs.t -> unit -> t

val cpu : t -> Cpu.t
val mem : t -> Phys_mem.t
val bus : t -> Io_bus.t
val engine : t -> Vmm_sim.Engine.t
val costs : t -> Costs.t
val pic : t -> Pic.t
val pit : t -> Pit.t
val uart : t -> Uart.t
val scsi : t -> Scsi.t
val nic : t -> Nic.t

(** [trace t] — the monitor's status log (capacity 4096): entries of
    kind ["monitor"] with their severity.  Kept apart from {!flight} so
    per-trap traffic cannot evict it. *)
val trace : t -> Vmm_profile.Flight.t

val load : t -> Vmm_sim.Stats.load

(** [registry t] — the machine-wide metrics registry.  Devices register
    their gauges at construction; the monitor, debug stub and host
    debugger add theirs on attach.  Dump with {!Vmm_obs.Registry.dump}. *)
val registry : t -> Vmm_obs.Registry.t

(** [tracer t] — the machine-wide span tracer (disabled until
    {!Vmm_obs.Tracer.set_enabled}); devices emit DMA spans into it and
    the monitor adds trap/interrupt/stub spans. *)
val tracer : t -> Vmm_obs.Tracer.t

(** [recorder t] — the machine-wide record/replay hub (off by default).
    Device taps report timer fires, DMA completion IRQs and UART/NIC
    ingress to it; the monitor adds virtual-IRQ, crash, wedge and
    checkpoint events.  Start a recording or replay through
    {!Vmm_replay.Recorder}. *)
val recorder : t -> Vmm_replay.Recorder.t

(** [profiler t] — the machine's continuous pc-sampling profiler
    (disabled until {!set_profiling}).  One per machine, like the
    registry and tracer, so fleets of instances never share state. *)
val profiler : t -> Vmm_profile.Profiler.t

(** [flight t] — the machine's always-on flight recorder.  Device taps
    write every nondeterministic boundary event (timer fires, DMA
    completion IRQs, UART/NIC ingress) into it regardless of recorder
    state; the monitor adds traps, IRQ deliveries, watchdog/chaos
    verdicts and lifecycle transitions. *)
val flight : t -> Vmm_profile.Flight.t

(** [set_profiling t ~period] arms ([period > 0]) or disarms
    ([period = 0]) continuous pc sampling at one sample every [period]
    guest cycles.  Samples attribute to the current cycle category and
    the guest's privilege ring.  Sampling never perturbs guest-visible
    behaviour (see {!Cpu.set_sampling}). *)
val set_profiling : t -> period:int64 -> unit

(** [set_dma_limit t limit] confines both DMA devices to physical
    [\[0, limit)] (see {!Scsi.set_dma_limit}, {!Nic.set_dma_limit}).
    A fresh machine's limit is its memory size. *)
val set_dma_limit : t -> int -> unit

(** [now t] — current simulation time in cycles. *)
val now : t -> int64

(** [utilization t ~since] — busy fraction over [\[since, now\]] given the
    busy-cycle snapshot [since_busy] taken at [since]. *)
val utilization : t -> since:int64 -> since_busy:int64 -> float

(** [run_until t ~time] advances the simulation to an absolute cycle
    count. *)
val run_until : t -> time:int64 -> unit

(** [run_for t ~cycles] advances by a relative amount. *)
val run_for : t -> cycles:int64 -> unit

(** [run_seconds t s] advances by wall time at the machine's clock rate. *)
val run_seconds : t -> float -> unit

(** [run_steps t n] retires up to [n] instructions (skipping over idle
    gaps); stops early when the machine is idle with no pending events.
    Returns instructions actually retired. *)
val run_steps : t -> int -> int

(** [run_until_halted ?limit t] runs until the CPU halts (useful for batch
    test programs that end in HLT with interrupts off); [limit] bounds the
    instruction count (default 1_000_000).  Returns [true] when the halt
    was reached. *)
val run_until_halted : ?limit:int -> t -> bool

(** [boot t program ~entry] loads the image, points pc at [entry] and
    clears halt state. *)
val boot : t -> Asm.program -> entry:int -> unit
