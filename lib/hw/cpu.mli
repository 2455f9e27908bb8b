(** The LWM-32 processor.

    Executes instructions against physical memory through the {!Mmu},
    dispatches port I/O through the {!Io_bus}, takes external interrupts
    from the interrupt controller and — crucially for this reproduction —
    exposes a {e hypervisor hook}: when installed, every fault, external
    interrupt, software interrupt and hypercall is presented to the hook
    before (instead of) hardware interrupt-table delivery.  The lightweight
    monitor of the paper is that hook; without a hook the CPU behaves like
    bare hardware and delivers through the guest's own table.

    Interrupt frames are uniform: the CPU pushes [old_sp], [old_flags],
    [return_pc], [error] (so the handler sees [error] at [sp+0]); IRET pops
    them in reverse.  Entering a more-privileged ring switches to that
    ring's entry stack (LSTK). *)

(** {2 Faults and events} *)

type gp_reason =
  | Privileged_instruction of Isa.instr
  | Io_denied of int  (** port *)
  | Bad_iret
  | Bad_int_gate of int  (** vector *)
  | Bad_vector of int  (** missing/not-present table entry *)
  | Bad_ring of int

type fault_kind =
  | Page of Mmu.fault
  | Gp of gp_reason
  | Undefined of int  (** opcode *)
  | Breakpoint_trap
  | Step_trap
  | Machine_check of int  (** physical address behind a bus error *)

(** What the hypervisor hook observes. *)
type event =
  | Fault of fault_kind * int  (** fault and the faulting instruction's pc *)
  | Irq of int  (** interrupt vector, already acknowledged at the PIC *)
  | Soft_int of int * int  (** INT vector, pc after the instruction *)
  | Hypercall of int * int  (** VMCALL immediate, pc after the instruction *)

type hook_result =
  | Handled  (** hook updated CPU state itself *)
  | Deliver  (** fall through to hardware table delivery *)

(** Raised when delivery is impossible (double fault, missing handler) and
    no hook is installed. *)
exception Panic of string

type t

(** {2 Construction} *)

(** [create ~mem ~bus ~engine ~costs ~load ()] — [load] accumulates busy
    cycles for utilization measurements. *)
val create :
  mem:Phys_mem.t ->
  bus:Io_bus.t ->
  engine:Vmm_sim.Engine.t ->
  costs:Costs.t ->
  load:Vmm_sim.Stats.load ->
  unit ->
  t

(** [set_pic t ~ack ~pending] wires the interrupt controller's acknowledge
    and level callbacks. *)
val set_pic : t -> ack:(unit -> int option) -> pending:(unit -> bool) -> unit

(** [set_hypervisor t hook] installs/removes the monitor. *)
val set_hypervisor : t -> (t -> event -> hook_result) option -> unit

(** {2 Architectural state} *)

val read_reg : t -> Isa.reg -> Word.t
val write_reg : t -> Isa.reg -> Word.t -> unit
val pc : t -> int
val set_pc : t -> int -> unit
val cpl : t -> int
val set_cpl : t -> int -> unit

(** Flags word layout: bit 0 Z, 1 N, 2 C, 8 TF, 9 IF, 12-13 CPL. *)
val flags_word : t -> int

val set_flags_word : t -> int -> unit
val interrupts_enabled : t -> bool
val set_interrupts_enabled : t -> bool -> unit
val trap_flag : t -> bool
val set_trap_flag : t -> bool -> unit
val ptb : t -> int

(** [set_ptb t v] loads the page-table base and flushes the TLB. *)
val set_ptb : t -> int -> unit

(** [flush_tlb t] drops the TLB.  Cached instructions and blocks are
    physically tagged and stay valid. *)
val flush_tlb : t -> unit

val halted : t -> bool
val set_halted : t -> bool -> unit

(** Debug stop: freezes instruction execution without affecting the halted
    flag; only the monitor/stub toggles it. *)
val stopped : t -> bool

val set_stopped : t -> bool -> unit

(** {2 I/O permission bitmap} *)

(** [allow_port t port allowed] grants/revokes direct port access for
    rings above 0 (the paper's pass-through mechanism). *)
val allow_port : t -> int -> bool -> unit

val port_allowed : t -> int -> bool

(** {2 Execution} *)

(** [charge t cycles] advances simulated time and books the cycles as busy
    (used by instruction execution and by the monitor for emulation work). *)
val charge : t -> int -> unit

(** [poll_interrupts t] accepts one pending external interrupt when IF is
    set: acknowledges the PIC, clears halt, and dispatches to the hook or
    the hardware table.  Call between instructions and while halted. *)
val poll_interrupts : t -> unit

(** [step t] executes exactly one instruction (the caller checks
    [halted]/[stopped] first): it fetches the instruction's compiled op
    (the same op the block translator chains), runs it on its own, moves
    its cycles and retirement to the engine and counters, then checks
    the retire stop and the trap flag.  Faults dispatch internally; the
    function returns normally unless the machine panics. *)
val step : t -> unit

(** [run_batch t ~horizon ~wake] is the CPU's one dispatch loop.  It
    runs until the clock reaches [horizon], the engine's wake generation
    moves past [wake] (something scheduled an event), or the CPU
    halts/stops.  Each iteration runs a chain of translated blocks when
    chaining is on and no per-instruction observer is armed, else one
    {!step}; then it samples the profiler, tests for exit and polls
    interrupts.  The caller must have dispatched due events and polled
    interrupts immediately before; the interleaving then matches
    step-at-a-time execution exactly. *)
val run_batch : t -> horizon:int64 -> wake:int -> unit

(** [read_instr t vaddr] fetches and decodes the instruction at a virtual
    address with supervisor rights (used by the monitor to inspect the
    guest instruction behind a trap). *)
val read_instr : t -> int -> Isa.instr

(** {2 Continuous pc sampling}

    The batched dispatch loop ({!run_batch}) checks a cadence after
    every retired instruction: when at least [period] cycles have
    elapsed since the last sample, it calls [hook ~pc ~cpl] — a pure
    read of the interrupted state, between instructions.  The hook must
    not advance the clock or schedule events; under that contract,
    enabling sampling leaves guest-visible behaviour (and therefore
    record/replay bit-equality) untouched.  With [period = 0] the whole
    feature costs one [Int64] compare per instruction. *)

(** [set_sampling t ~period ~hook] arms ([period > 0]) or disarms
    ([period = 0]) the sampler; the next sample is due one period from
    now.  @raise Invalid_argument on a negative period. *)
val set_sampling : t -> period:int64 -> hook:(pc:int -> cpl:int -> unit) -> unit

(** {2 Introspection} *)

val icache_hits : t -> int
val icache_misses : t -> int
val icache_invalidations : t -> int

(** {2 Block translator}

    Every instruction has one definition: a compiled op.  {!step} runs
    one op at a time; [run_batch] normally chains them through a
    basic-block threaded-code translator: straight-line decoded runs are
    compiled into chains of closures keyed by {e physical} pc, validated
    at every dispatch against the {!Phys_mem} granule write generations
    of their whole text (self-modifying code and DMA over text invalidate
    compiled blocks exactly as they invalidate cached instructions; a
    remap leads the fetch to a different physical key), and chained
    across taken jumps, calls and returns.  Architectural state, cycle
    accounting, trap ordering, IRQ delivery points and profiler sample
    boundaries are bit-identical to per-instruction stepping — the
    translator is disabled automatically while a per-instruction
    observer is armed (trap flag, retire stop, deliverable interrupt)
    and falls back to {!step} on any fault, budget boundary, or
    code-page TLB eviction. *)

(** [set_jit_enabled t v] turns block chaining on/off ([true] at
    creation).  Off, [run_batch] calls {!step} for every instruction:
    the per-instruction reference that tests and the [sim-speed] bench
    target compare against.  Toggling is safe at any instruction
    boundary and never changes guest-visible behaviour, only speed. *)
val set_jit_enabled : t -> bool -> unit

val jit_enabled : t -> bool

val blocks_compiled : t -> int
val block_hits : t -> int
val block_invalidations : t -> int

(** [block_chain_follows t] — dispatches that continued a chain within
    one translator run (superblock chaining across taken transfers). *)
val block_chain_follows : t -> int

(** [block_fallbacks t] — translator dispatches that fell back to one
    {!step} (I/O, privileged or other unchainable instruction, straddling
    fetch, out-of-RAM text). *)
val block_fallbacks : t -> int

val instructions_retired : t -> int64

(** {2 Reverse-debug support}

    Reverse-step/continue are implemented as checkpoint restore plus
    deterministic re-execution to an absolute retirement count. *)

(** [set_instructions_retired t n] rewinds (or forwards) the retirement
    counter — checkpoint restore only; the counter otherwise only
    increments. *)
val set_instructions_retired : t -> int64 -> unit

(** [set_retire_stop t (Some (target, f))] arms a stop: the CPU freezes
    ([stopped] set) between instructions as soon as [instructions_retired]
    reaches [target], then calls [f].  [None] disarms. *)
val set_retire_stop : t -> (int64 * (t -> unit)) option -> unit

val interrupts_taken : t -> int64
val faults_taken : t -> int64
val mmu : t -> Mmu.t
val costs : t -> Costs.t

