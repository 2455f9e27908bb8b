(** Streaming SCSI controller with several disk targets (the paper's three
    Ultra160 drives hang off one of these).

    Reads stream at the per-disk media rate ({!Costs.t.disk_rate_mbps}) and
    complete with a DMA transfer into physical memory followed by an
    interrupt (PIC line 6).  Disk contents are synthetic but stable: a
    deterministic byte pattern per (target, byte offset), overridden by any
    data previously written — so data integrity is checkable end-to-end.

    Port map (offsets):
    - +0 target select (write)
    - +1 logical block address, 512-byte sectors (write)
    - +2 transfer length in bytes (write)
    - +3 DMA physical address (write)
    - +4 command (write): 1 = read, 2 = write
    - +5 status (read): bits 0..targets-1 completion flags,
      bits 16..16+targets-1 busy flags, bit 31 command error (a bad
      target, a busy target, an empty transfer or one leaving the DMA
      window)
    - +6 completion acknowledge (write): value = target number *)

type t

val sector_size : int

val create :
  engine:Vmm_sim.Engine.t ->
  costs:Costs.t ->
  mem:Phys_mem.t ->
  targets:int ->
  unit ->
  t

(** [set_irq t f] wires the completion interrupt. *)
val set_irq : t -> (unit -> unit) -> unit

(** [set_tracer t tracer] — emit a ["dma"]-category span per command
    covering its media transfer window. *)
val set_tracer : t -> Vmm_obs.Tracer.t -> unit

(** [set_dma_limit t limit] — commands may transfer to or from physical
    [\[0, limit)] only (initially all of memory).  A command whose range
    leaves it is refused when issued: status bit 31 rises and nothing
    transfers. *)
val set_dma_limit : t -> int -> unit

(** [pattern_byte ~target ~offset] is the synthetic content of an
    unwritten byte (exposed so tests and the guest can validate data). *)
val pattern_byte : target:int -> offset:int -> int

val attach : t -> Io_bus.t -> base:int -> unit

(** Counters for tests/benches. *)
val reads_completed : t -> int

val bytes_read : t -> int64
val writes_completed : t -> int

(** [busy_targets t] — targets with a command in flight (queue-depth
    gauge). *)
val busy_targets : t -> int

(** {2 Checkpoint support}

    Captures the full controller state — selection registers, per-target
    completion/busy flags, written sectors, write staging and the
    in-flight command descriptors with their {e relative} completion
    offsets — so a restore at any later absolute time re-arms the same
    DMA schedule.  Restore abandons whatever was in flight (epoch
    guard), then reinstates the captured state. *)

type op_state = {
  os_target : int;
  os_cmd : int;  (** 1 = read, 2 = write *)
  os_lba : int;
  os_count : int;
  os_dma : int;
  os_remaining : int64;  (** cycles until completion, relative to capture *)
}

type tgt_state = {
  ts_busy : bool;
  ts_done : bool;
  ts_sectors : (int * Bytes.t) list;  (** sorted by sector index *)
  ts_staging : Bytes.t;
}

type state = {
  s_targets : tgt_state array;
  s_sel_target : int;
  s_sel_lba : int;
  s_sel_count : int;
  s_sel_dma : int;
  s_error : bool;
  s_inflight : op_state list;
}

val capture : t -> state
val restore : t -> state -> unit

(** {2 Fault injection} *)

(** [inject_read_errors t n] — the next [n] reads fail at the medium: the
    command completes (busy clears, done sets) but no data transfers and
    the error status bit is raised. *)
val inject_read_errors : t -> int -> unit

val read_errors : t -> int
