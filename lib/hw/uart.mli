(** Serial port (16550-flavoured, fixed 115200 8N1).

    The host side of the debug link talks to the UART through
    {!set_on_tx}/{!inject_rx}; the target side uses the ports.  Port map
    (offsets):
    - +0 data — write enqueues a byte for transmission; read pops the
      receive FIFO (0 when empty)
    - +1 status (read) — bit 0 receive-data-ready, bit 1 transmit-idle
    - +2 interrupt enable — bit 0 raise the IRQ while receive data is
      pending

    Transmission is paced at the serial line rate
    ({!Costs.t.uart_cycles_per_byte}); bytes arrive at the host in order,
    each after its serialization delay. *)

type t

val create : engine:Vmm_sim.Engine.t -> costs:Costs.t -> unit -> t

(** [set_irq t f] wires the receive interrupt line (PIC line 4). *)
val set_irq : t -> (unit -> unit) -> unit

(** [set_on_tx t f] — [f byte] runs when a transmitted byte finishes
    serializing onto the wire. *)
val set_on_tx : t -> (int -> unit) -> unit

(** [inject_rx t byte] — the host wire delivers a byte; raises the IRQ when
    enabled. *)
val inject_rx : t -> int -> unit

(** [set_rx_tap t f] — [f byte] runs on every {!inject_rx}, before the
    byte queues.  The machine's record/replay taps use this to log
    debug-link ingress, one of the nondeterministic inputs. *)
val set_rx_tap : t -> (int -> unit) -> unit

val io_read : t -> int -> int
val io_write : t -> int -> int -> unit
val attach : t -> Io_bus.t -> base:int -> unit
