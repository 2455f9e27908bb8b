(** Programmable interrupt controller (8259-flavoured, simplified
    programming model).

    Eight level-latched request lines with fixed priority (line 0 highest).
    Port map (offsets from the attach base):
    - +0 command/status — write [0x20] = EOI (retire the highest-priority
      in-service line); read = in-service bitmask
    - +1 mask register (read/write; bit set = masked)
    - +2 vector base (read/write)

    The same module implements both the machine's physical PIC and the
    monitor's {e virtual} PIC (created unattached and driven through
    {!io_read}/{!io_write} — the paper's "interruption-controller
    emulator" presents this identical interface to the guest). *)

type t

val lines : int

(** [create ?vector_base ()] — default base {!Isa.vec_irq_base_default}. *)
val create : ?vector_base:int -> unit -> t

(** [set_intr t f] wires the INTR line; [f true] is called when an
    unmasked request becomes deliverable, [f false] when none is. *)
val set_intr : t -> (bool -> unit) -> unit

(** [raise_irq t line] latches a request. *)
val raise_irq : t -> int -> unit

(** [pending t] — would an acknowledge succeed now?  The level last
    passed to the {!set_intr} callback. *)
val pending : t -> bool

(** [ack t] acknowledges the highest-priority deliverable request: moves it
    to in-service and returns its vector. *)
val ack : t -> int option

(** [vector_base t] — current programmed base. *)
val vector_base : t -> int

(** Direct register access (offset 0-2), used by the bus attachment and by
    the monitor's emulation path. *)
val io_read : t -> int -> int

val io_write : t -> int -> int -> unit

(** [attach t bus ~base] claims three ports at [base]. *)
val attach : t -> Io_bus.t -> base:int -> unit

(** Checkpoint support: the four programming registers, the whole
    guest-visible state. *)
type state = {
  st_vector_base : int;
  st_request : int;
  st_service : int;
  st_mask : int;
}

val capture : t -> state

(** [restore t s] reinstates captured registers and recomputes INTR. *)
val restore : t -> state -> unit

(** [set_latency_probe t ~now ~observe] arms delivery-latency
    measurement: each {!ack} calls [observe] with the cycles between the
    line's (first) raise and the acknowledge.  Re-raising a pending line
    keeps the original timestamp.  [now] supplies the clock — the PIC
    itself is clockless. *)
val set_latency_probe : t -> now:(unit -> int64) -> observe:(float -> unit) -> unit

(** Introspection for tests. *)
val requested : t -> int

val mask : t -> int

(** [raises t] / [acks t] — cumulative {!raise_irq} and successful
    {!ack} counts (metrics feed). *)
val raises : t -> int

val acks : t -> int
