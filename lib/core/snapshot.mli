(** Boot-time snapshot of guest-visible machine state, for warm restart.

    Captured by the monitor immediately after loading a guest image:
    every guest-owned physical byte (the region below the monitor
    reservation) plus the entry point.  Registers are architecturally
    zero at boot and device queues empty, so image + entry is the whole
    guest-visible state; the monitor re-establishes device power-on
    state via the per-device [reset] hooks when it restores.

    Restore writes through the normal store path, so physically tagged
    caches (the CPU's instruction cache) invalidate without
    explicit flushes. *)

type t

(** [capture ~mem ~layout ~entry] copies the guest-owned region out. *)
val capture : mem:Vmm_hw.Phys_mem.t -> layout:Vm_layout.t -> entry:int -> t

(** [restore t ~mem] writes the captured image back. *)
val restore : t -> mem:Vmm_hw.Phys_mem.t -> unit

val entry : t -> int

(** [image_bytes t] — size of the captured image (metrics/tests). *)
val image_bytes : t -> int

(** Mid-run full checkpoints for reverse debugging.

    A [Full.t] captures everything needed to put the guest back on an
    exact instruction boundary: the guest memory image, CPU architectural
    state, the monitor's virtualized privileged state, real and virtual
    interrupt-controller/timer state, SCSI/NIC device state including
    in-flight DMA, and the reliable-link sequence numbers.  All time-like
    fields are stored {e relative} to the capture instant, so a restore
    at any later absolute engine time re-arms the same schedule without
    rewinding the clock.

    {!Full.digest} hashes the guest-visible subset (FNV-1a 64) —
    excluding the engine cycle and debug-plane link state — so
    capture→restore→recapture digests compare equal and record/replay
    runs can assert bit-exact convergence. *)
module Full : sig
  (** The monitor's virtualized privileged state, supplied by the
      monitor at capture time (it is not reachable from the machine). *)
  type monitor_state = {
    v_if : bool;  (** virtual interrupt-enable flag *)
    v_iht : int;  (** virtual interrupt-handler table base *)
    v_ptb : int;  (** virtual page-table base *)
    v_cpl : int;  (** virtualized guest privilege level *)
    v_stacks : int array;  (** per-ring virtual stack pointers *)
    v_halted : bool;  (** guest executed virtual HLT *)
    console : string;  (** pending console buffer contents *)
  }

  type t = {
    cycle : int64;  (** absolute engine time at capture *)
    retired : int64;  (** instructions retired at capture *)
    image : Bytes.t;  (** guest-owned physical memory *)
    regs : int array;  (** r0..r15 *)
    pc : int;
    flags : int;  (** real CPU flags word *)
    cpl : int;
    halted : bool;
    mon : monitor_state;
    vpic : Vmm_hw.Pic.state;  (** virtual PIC presented to the guest *)
    vpit : Vmm_hw.Pit.phase;  (** virtual PIT presented to the guest *)
    pic : Vmm_hw.Pic.state;  (** real interrupt controller *)
    pit : Vmm_hw.Pit.phase;  (** real timer *)
    scsi : Vmm_hw.Scsi.state;
    nic : Vmm_hw.Nic.state;
    link : Vmm_proto.Reliable.seq_state;
  }

  val capture :
    machine:Vmm_hw.Machine.t ->
    layout:Vm_layout.t ->
    vpic:Vmm_hw.Pic.t ->
    vpit:Vmm_hw.Pit.t ->
    link:Vmm_proto.Reliable.t ->
    mon:monitor_state ->
    t

  val cycle : t -> int64
  val retired : t -> int64

  (** [digest t] — FNV-1a 64 over the guest-visible state.  Equal
      digests ⇒ bit-identical guest-visible state (memory, registers,
      virtualized privileged state, device state with relative DMA
      offsets).  Excludes the absolute capture cycle and link state. *)
  val digest : t -> int64
end
