(** A software debugger {e embedded in the operating system under
    development} — the conventional alternative the paper's introduction
    rules out for stability reasons.

    The agent lives inside guest-reachable memory and depends on the
    guest's own integrity: its code/data region can be overwritten by a
    wild store, and it can only run when the guest kernel is well enough
    to dispatch it.  [service] models the agent's command loop: it first
    verifies its own integrity (checksum over its region) and the
    machine's liveness; once either is violated the agent never answers
    again — unlike the lightweight monitor's stub, which survives
    arbitrary guest failure (experiment E3). *)

type t

(** [attach machine ~region] plants the agent's image at physical
    [region] (guest-reachable) and takes over the UART. *)
val attach : Vmm_hw.Machine.t -> region:int -> t

(** [alive t] — integrity check: region unmodified and machine not
    panicked. *)
val alive : t -> bool

(** [mark_machine_dead t] — the harness calls this when the bare-metal
    machine panics (triple fault); the embedded agent dies with it. *)
val mark_machine_dead : t -> unit

(** [service t] processes any debugger bytes waiting in the UART: replies
    while [alive], stays silent forever otherwise.  Returns the number of
    commands answered. *)
val service : t -> int
