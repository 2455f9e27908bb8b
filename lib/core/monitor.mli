(** The lightweight virtual machine monitor (the paper's contribution).

    The monitor installs itself as the CPU's hypervisor hook and runs the
    guest OS deprivileged: guest "ring 0" executes in real ring 1, guest
    applications in real ring 3.  It emulates {e only} the hardware that
    the remote-debugging function depends on — the interrupt controller,
    the timer, the communication device and the privileged CPU resources
    (interrupt-handling table, page tables, interrupt flag) — while
    high-throughput devices (SCSI, NIC) are accessed {e directly} by the
    guest through the I/O permission bitmap.  Guest memory is virtualized
    with lazily-filled shadow page tables that never map monitor frames,
    yielding the application / guest-OS / monitor three-level protection
    the paper describes on two-level hardware.  The virtualized CPU state
    and its semantics are {!Vcpu}'s, shared with the hosted-VMM baseline;
    this module adds the monitor's costs, device emulation, failure
    policy and debug plane.

    The embedded {!Stub} services the host debugger; the monitor routes
    UART interrupts to it and escalates unrecoverable guest faults (e.g. a
    corrupted interrupt table) to it instead of dying — the stability
    property. *)

type t

(** Pass-through port ranges: these ports are opened in the I/O permission
    bitmap so the guest reaches the devices without monitor involvement. *)
type passthrough = { base : int; count : int }

(** The default pass-through set: the SCSI controller and the NIC. *)
val default_passthrough : passthrough list

(** Cumulative event counts, exposed for tests and the benchmarks. *)
type stats = {
  world_switches : int;
  pic_emulations : int;
  pit_emulations : int;
  cpu_emulations : int;
      (** privileged instructions emulated plus software [INT]s reflected *)
  io_emulations : int;
  shadow_fills : int;
  reflected_irqs : int;
  reflected_faults : int;
  hypercalls : int;
  escalations : int;
  link_retransmits : int;
  link_bad_checksums : int;
  link_resets : int;
  link_downs : int;
  injected_faults : int;
  wedge_breakins : int;
  crashes : int;
  restarts : int;
}

(** {2 Guest lifecycle}

    A guest the monitor cannot reflect a fault into — double fault,
    unmapped exception stack, wild jump beyond mapped memory — is moved
    to [Crashed]: frozen and quarantined, but fully inspectable through
    the stub.  Resume is refused ([E03]) until a {!restart_guest}. *)

type crash_report = {
  cause : string;  (** single-token classification, e.g. [double_fault] *)
  vector : int;
  pc : int;
  chain : (int * int) list;
      (** nested delivery attempts (vector, pc), innermost last *)
}

type lifecycle = Healthy | Crashed of crash_report

(** [install ?passthrough machine] takes ownership of the machine:
    registers the hypervisor hook, opens pass-through ports, unmasks the
    physical interrupt controller, enables the debug UART's receive
    interrupt and prepares empty shadow tables. *)
val install : ?passthrough:passthrough list -> Vmm_hw.Machine.t -> t

(** [boot_guest t program ~entry] returns the virtual PIC/PIT, SCSI and
    NIC to their state at {!install}, loads a guest image into
    guest-owned memory and starts it at guest ring 0 with interrupts
    disabled and paging off (behind the identity shadow).  The state
    it leaves is the one {!restart_guest} returns to.
    @raise Invalid_argument if the image overlaps monitor memory. *)
val boot_guest : t -> Vmm_hw.Asm.program -> entry:int -> unit

(** {2 Guest-visible state} *)

val guest_interrupts_enabled : t -> bool
val guest_cpl : t -> int
val guest_iht : t -> int
val guest_ptb : t -> int
val guest_halted : t -> bool

(** [guest_read t ~addr ~len] reads guest-virtual memory through the
    guest's own page tables; [None] when any page is unmapped. *)
val guest_read : t -> addr:int -> len:int -> string option

(** {2 Components} *)

val stub : t -> Stub.t
val machine : t -> Vmm_hw.Machine.t
val layout : t -> Vm_layout.t
val shadow : t -> Shadow.t
val watchpoints : t -> Watchpoints.t

(** [profile_dump t] — the [qP] payload: the continuous profiler's
    {!Vmm_profile.Profiler.dump} (arm it with
    {!Vmm_hw.Machine.set_profiling}) plus a block-translator counter
    line. *)
val profile_dump : t -> string

(** [flight_report t] — the machine's live flight-ring dump
    ({!Vmm_profile.Flight.dump}). *)
val flight_report : t -> string

(** [crash_bundle t] — the most recent crash/wedge bundle
    ({!Vmm_profile.Bundle} format: crash report, flight ring, profile,
    snapshot digest, replay-trace tail, metrics registry), captured
    eagerly at the first escalation and at each watchdog break-in of a
    healthy guest.  Sticky across warm restarts; cleared by a fresh
    {!boot_guest}. *)
val crash_bundle : t -> string option
val stats : t -> stats

(** [console t] — text the guest wrote via the console hypercall or its
    (virtualized) serial port. *)
val console : t -> string

(** [shutdown_requested t] — the guest invoked the shutdown hypercall. *)
val shutdown_requested : t -> bool

(** {2 Fault injection}

    Adversarial-guest behaviours, driven through the monitor's own
    emulation paths so the damage is exactly what a misbehaving guest
    could cause — never more.  The stability claim under test: whatever
    the guest does, the monitor and its debug stub survive and the host
    session keeps working. *)

type injected_fault =
  | Wild_jump of int  (** guest pc teleports to an arbitrary address *)
  | Wild_store of int
      (** guest store into an address its tables do not map (e.g. a
          monitor-reserved frame): vectors through the page-fault path *)
  | Iht_clobber  (** the guest's interrupt-handler table is zeroed *)
  | Ptb_clobber
      (** the guest loads a garbage page-table base (paging off) *)
  | Irq_storm of { lines : int; rounds : int }
      (** a burst of [lines * rounds] virtual interrupts *)
  | Guest_wedge  (** interrupts off + halt: the classic hard hang *)

(** [inject t fault] perturbs the running guest.  The guest may crash —
    that is the point — but the monitor must not. *)
val inject : t -> injected_fault -> unit

(** {2 Lifecycle & recovery} *)

val lifecycle : t -> lifecycle
val crashed : t -> bool

(** [watchdog_start ?period_cycles ?max_stalled_periods t] arms the
    monitor-owned watchdog (default: 1 ms periods, 5 progress-free
    periods to a break-in).  Runs on the monitor's timer — a periodic
    engine event, never the physical PIT — and charges no guest cycles,
    so workload telemetry is unchanged.  Restarting replaces any
    previous watchdog. *)
val watchdog_start :
  ?period_cycles:int64 -> ?max_stalled_periods:int -> t -> unit

(** [restart_guest t] loads the boot state {!boot_guest} captured — the
    same load as {!restore_checkpoint}: memory, registers, virtualized
    privileged state, the virtual and real PIC/PIT (the virtual PIT's
    reload back at power-on), SCSI and NIC (an armed wire stall ends) —
    without touching the stub, the reliable link, the breakpoint table
    or the watchpoint table; armed breakpoints re-arm lazily on the
    cleared shadow.  The instruction counter keeps counting.  Held
    checkpoints are dropped.  False when no guest was ever booted. *)
val restart_guest : t -> bool

(** {2 Mid-run checkpoints & reverse execution}

    Periodic {!Snapshot.Full} checkpoints make reverse debugging a
    restore-then-re-execute operation: the stub's [rs]/[rc] verbs pick
    the newest checkpoint at or before the target retirement boundary,
    the monitor restores it (a {e forward} time-shift — the engine clock
    never rewinds; device restores re-arm pending DMA at
    [now + remaining]), and the CPU replays deterministically to the
    requested instruction count.  The debug plane (stub, link,
    breakpoint table, host session) is never touched by a restore. *)

(** [checkpoint_now t] captures a full checkpoint immediately and adds
    it to the ring. *)
val checkpoint_now : t -> Snapshot.Full.t

(** [checkpoint_start ?period_cycles ?keep t] captures one checkpoint
    now and then every [period_cycles] (default: 1 ms of guest time),
    keeping the newest [keep] (default 8).  Capture is skipped while the
    guest is quarantined or a reverse operation is re-executing
    history. *)
val checkpoint_start : ?period_cycles:int64 -> ?keep:int -> t -> unit

(** [restore_checkpoint t full] puts the guest back to [full]'s
    instruction boundary.  Guest memory, CPU context, virtualized
    privileged state and device state are reinstated; the lifecycle
    returns to healthy; the reliable link and stub state are untouched.
    The retired count is set to [full]'s.  {!restart_guest} is the same
    load of the boot state.  Only the guest pages that may differ from
    [full] are written ({!Snapshot.Pages}).  Used by the stub's reverse
    verbs, exposed for tests and tooling.
    @raise Invalid_argument, before any state changes, if [full]'s
    image does not have this monitor's page count. *)
val restore_checkpoint : t -> Snapshot.Full.t -> unit

(** {2 Load-time static verification}

    On every {!boot_guest} (and again on each warm restart, since the
    restore puts the boot image back) the monitor runs the
    {!Vmm_analysis.Verifier} over the guest image: the same
    guest-owns-memory and I/O-bitmap policy it enforces dynamically at
    trap time, proven statically at load time.  Verification is
    record-only — a dirty report never blocks the boot — and is
    published as [analysis_*] registry gauges and over the [qV] debug
    query. *)

(** [verify_guest t program ~entry] runs the verifier immediately under
    the monitor's memory/port policy and records the report. *)
val verify_guest : t -> Vmm_hw.Asm.program -> entry:int -> Vmm_analysis.Verifier.report

(** {2 Race-witness cross-validation}

    The verifier's interprocedural race pass ({!Vmm_analysis.Races})
    reports static [irq-race] sites.  When witnessing is enabled the
    monitor arms observe-only virtual breakpoints on a sample of those
    sites' load addresses: every execution of the load is counted as an
    open window ([race.window] flight note), and a virtual-interrupt
    delivery landing strictly inside the window with the reported vector
    upgrades the site to "witnessed" ([race.witness] flight note, [qV]
    trailer, [static-races] crash-bundle section).  Observation is
    flight-ring only — the record/replay event stream and golden digests
    are unchanged. *)

(** [set_race_witness t flag] — arm (sampling the latest report) or
    disarm.  Sites re-sample automatically on the next boot. *)
val set_race_witness : t -> bool -> unit

(** Number of sites currently under observation. *)
val race_witness_sites : t -> int

(** Total open windows observed (executions of a sampled load). *)
val race_windows : t -> int

(** Total witnessed interleavings (deliveries inside an open window). *)
val race_witnessed : t -> int
