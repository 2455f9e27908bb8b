(** Full guest-state checkpoints: one type for boot, warm restart and
    rewind.  The monitor captures the boot state at boot; a warm restart
    loads it exactly as the reverse verbs ([rs]/[rc]) load a mid-run
    checkpoint.  So a restart also puts back the real PIC/PIT and the
    virtual PIT's power-on reload, and it ends an armed NIC wire stall
    ([Nic.stall_tx]), as [rs]/[rc] already do.

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
