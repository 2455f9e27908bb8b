(** Page-sharing copies of guest memory, the memory half of every
    {!Full} checkpoint.

    One [Pages.t] per monitor holds, for each 4 KiB page of guest memory,
    the newest copy of the page and the {!Vmm_hw.Phys_mem.page_generation}
    at which memory last equalled it.  A capture copies only the pages
    whose generation moved since and shares every other copy, by
    reference, with the checkpoints before it; a restore writes a page
    only when the image's copy is not physically the cached one or the
    page was written since.  A copy is never mutated once made.

    Every never-written page is one zero page shared by all monitors, so
    restoring another monitor's checkpoint skips the pages neither
    machine wrote. *)
module Pages : sig
  type t

  (** [page_size] is [1 lsl Phys_mem.page_bits], 4 KiB. *)
  val page_size : int

  (** [create mem ~len] covers [\[0, len)] of [mem]; [len] must be a
      page multiple within [mem].  Pages never written yet share one
      zero page, the same one in every [Pages.t]; any other page is
      copied at the first capture. *)
  val create : Vmm_hw.Phys_mem.t -> len:int -> t

  (** [capture t] is an image of the covered pages, copying only the
      pages written since the last capture or restore. *)
  val capture : t -> Bytes.t array

  (** [restore t image] makes memory equal to [image], writing (through
      the store path, so write generations move) only the pages that
      may differ.  Raises [Invalid_argument], before writing anything,
      when [image] does not have one [page_size]-byte copy per covered
      page. *)
  val restore : t -> Bytes.t array -> unit

  (** [copied t] is the number of pages captures have copied so far. *)
  val copied : t -> int

  (** [written t] is the number of pages restores have written so far. *)
  val written : t -> int
end

(** Full guest-state checkpoints: one type for boot, warm restart and
    rewind.  The monitor captures the boot state at boot; a warm restart
    loads it exactly as the reverse verbs ([rs]/[rc]) load a mid-run
    checkpoint.  So a restart also puts back the real PIC/PIT and the
    virtual PIT's power-on reload, and it ends an armed NIC wire stall
    ([Nic.stall_tx]), as [rs]/[rc] already do.

    A [Full.t] captures everything needed to put the guest back on an
    exact instruction boundary: the guest memory image (as {!Pages}
    copies), CPU architectural state, the monitor's virtualized
    privileged state, real and virtual interrupt-controller/timer state,
    SCSI/NIC device state including in-flight DMA, and the reliable-link
    sequence numbers.  All time-like
    fields are stored {e relative} to the capture instant, so a restore
    at any later absolute engine time re-arms the same schedule without
    rewinding the clock.

    {!Full.digest} hashes everything above except the absolute engine
    cycle (FNV-1a 64), the reliable-link sequence numbers included, so
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
    image : Bytes.t array;
        (** guest-owned physical memory, one immutable {!Pages.page_size}
            copy per page, shared with other checkpoints of the same
            {!Pages.t} *)
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
    pages:Pages.t ->
    vpic:Vmm_hw.Pic.t ->
    vpit:Vmm_hw.Pit.t ->
    link:Vmm_proto.Reliable.t ->
    mon:monitor_state ->
    t

  val cycle : t -> int64
  val retired : t -> int64

  (** [digest t] — FNV-1a 64 over the captured state.  Equal digests ⇒
      bit-identical guest-visible state (memory, registers, virtualized
      privileged state, device state with relative DMA offsets) and
      equal reliable-link sequence state ({!Vmm_proto.Reliable.seq_state}).
      Excludes only the absolute capture cycle.  The image is hashed as
      one contiguous byte string, a length prefix and then the pages in
      order.  A never-written page, the shared zero page of {!Pages},
      costs O(1): one pointer test and one multiply (a zero byte's
      FNV-1a step is a multiply by the prime).  A written page that is
      all zero costs one compare more.  So a digest costs time in
      proportion to the written pages; the value is the byte-by-byte
      one. *)
  val digest : t -> int64
end
