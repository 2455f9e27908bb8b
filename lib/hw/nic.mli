(** Gigabit Ethernet controller.

    Transmit-side model: the driver points the NIC at a frame in physical
    memory and issues a send; the NIC DMAs the frame, serializes it at the
    wire rate ({!Costs.t.nic_gbps}) and raises a completion interrupt (PIC
    line 5).  Up to 64 frames may be queued; a send into a
    full ring sets the overflow flag and is dropped (like a driver bug
    would on real hardware).  Transmitted frames are handed to the host
    harness via {!set_on_frame} for validation and rate measurement.

    A minimal receive path exists for completeness: the harness calls
    {!inject_rx}; the driver reads RX_LEN, points RX_ADDR at a buffer and
    issues command 2 to DMA the frame in.

    Port map (offsets):
    - +0 TX frame physical address (write)
    - +1 TX frame length in bytes (write)
    - +2 command (write): 1 = send, 2 = receive-into-buffer, 3 = TX-ring
      reset (drop queued frames and pending completions, clear overflow;
      the wire itself — including an armed stall — is untouched)
    - +3 status (read): bit 0 ring full, bit 1 completions pending,
      bit 2 overflow happened, bit 3 rx frame waiting
    - +4 acknowledge (write): 1 = consume one tx completion, 2 = clear
      overflow
    - +5 frames transmitted, total (read)
    - +6 RX buffer physical address (write)
    - +7 length of the waiting rx frame (read; 0 = none) *)

type t

val create :
  engine:Vmm_sim.Engine.t -> costs:Costs.t -> mem:Phys_mem.t -> unit -> t

val set_irq : t -> (unit -> unit) -> unit

(** [set_on_frame t f] — [f frame] runs when a frame finishes on the wire.
    Registering a consumer costs a per-frame copy (consumers may retain
    the frame); detach with {!clear_on_frame} to get the copy-free path
    back. *)
val set_on_frame : t -> (bytes -> unit) -> unit

(** [clear_on_frame t] detaches the consumer, so completions stop paying
    the per-frame copy that {!set_on_frame} enables. *)
val clear_on_frame : t -> unit

(** [set_tracer t tracer] — emit a ["dma"]-category span per transmitted
    frame covering its wire serialization window. *)
val set_tracer : t -> Vmm_obs.Tracer.t -> unit

(** [inject_rx t frame] queues an inbound frame and raises the IRQ. *)
val inject_rx : t -> bytes -> unit

(** [set_rx_tap t f] — [f frame] runs on every {!inject_rx}, before the
    frame queues.  The machine's record/replay taps use this to log
    network ingress, one of the nondeterministic inputs. *)
val set_rx_tap : t -> (bytes -> unit) -> unit

val attach : t -> Io_bus.t -> base:int -> unit

val frames_sent : t -> int
val bytes_sent : t -> int64
val overflows : t -> int

(** [tx_queued t] — frames in the ring not yet off the wire (queue-depth
    gauge). *)
val tx_queued : t -> int

(** {2 Fault injection} *)

(** [stall_tx t ~cycles] — the wire refuses to serialize for [cycles];
    frames submitted meanwhile queue behind the stall (and overflow the
    ring if the driver keeps pushing). *)
val stall_tx : t -> cycles:int64 -> unit

val tx_stalls : t -> int

(** [stall_cycles t] — cumulative wire time added by {!stall_tx} beyond
    serialization that was already queued. *)
val stall_cycles : t -> int64

(** {2 Checkpoint support}

    Captures registers, pending completions, the receive queue and the
    in-flight TX frames with {e relative} wire/completion offsets, so a
    restore at any later absolute time re-arms the same serialization
    schedule.  Restore abandons whatever was in flight (epoch guard),
    then reinstates the captured state. *)

type tx_op_state = {
  xs_data : Bytes.t;
  xs_remaining : int64;  (** cycles until completion, relative to capture *)
}

type state = {
  n_tx_addr : int;
  n_tx_len : int;
  n_completions : int;
  n_overflow : bool;
  n_wire_remaining : int64;
  n_rx : Bytes.t list;
  n_rx_addr : int;
  n_inflight : tx_op_state list;
}

val capture : t -> state
val restore : t -> state -> unit
