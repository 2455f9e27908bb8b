(** Programmable interval timer (8253-flavoured).

    Driven by a 1.193182 MHz input clock regardless of CPU frequency, like
    the PC/AT part.  Port map (offsets):
    - +0 reload counter, low 16 bits (write); current count low (read)
    - +1 reload counter, high 16 bits (write); current count high (read)
    - +2 control — write 1 start periodic, 2 start one-shot, 0 stop;
      read 1 while running

    The monitor instantiates a second, unattached timer as the guest's
    virtual PIT (the paper's "timer emulator"). *)

type t

(** [create ~engine ~costs ~raise_irq ()] — [raise_irq] fires on expiry
    (wired to PIC line 0 for the physical instance). *)
val create :
  engine:Vmm_sim.Engine.t -> costs:Costs.t -> raise_irq:(unit -> unit) -> unit -> t

val io_read : t -> int -> int
val io_write : t -> int -> int -> unit
val attach : t -> Io_bus.t -> base:int -> unit

(** [ticks_fired t] counts expiries since creation. *)
val ticks_fired : t -> int

(** Checkpoint support: reload, mode (0 stopped / 1 periodic / 2
    one-shot) and cycles remaining until the pending expiry —
    {e relative}, so a restore at a later absolute time re-arms with the
    same offset. *)
type phase = { ph_reload : int; ph_mode : int; ph_remaining : int64 }

val capture_phase : t -> phase

(** [restore_phase t ph] cancels any pending expiry and re-arms from the
    captured phase. *)
val restore_phase : t -> phase -> unit
