(** Discrete-event simulation engine.

    Time is counted in CPU cycles ([int64]).  Components schedule thunks at
    absolute or relative times; [run_until] advances the clock to each event
    in order and executes it.  The machine simulator interleaves instruction
    execution with event dispatch by consulting [next_event_time].

    The clock is kept as a native [int] and converted at this interface,
    so {!advance} — called on every cycle charge — allocates nothing.
    Times must stay below 2{^62} cycles, about 116 simulated years at
    1.26 GHz. *)

type t

(** [create ()] is an engine with the clock at cycle 0. *)
val create : unit -> t

(** [now engine] is the current simulation time in cycles. *)
val now : t -> int64

(** [advance engine cycles] moves the clock forward by [cycles] without
    dispatching events (used by the CPU to account instruction time).
    Allocation-free.
    @raise Invalid_argument if [cycles] is negative. *)
val advance : t -> int64 -> unit

(** [at engine ~time f] schedules [f] to run when the clock reaches [time].
    Scheduling in the past clamps to the current time. *)
val at : t -> time:int64 -> (unit -> unit) -> Event_queue.handle

(** [after engine ~delay f] schedules [f] at [now + delay]. *)
val after : t -> delay:int64 -> (unit -> unit) -> Event_queue.handle

(** [cancel engine handle] cancels a scheduled thunk; false if already run. *)
val cancel : t -> Event_queue.handle -> bool

(** [next_event_time engine] is the timestamp of the next pending event. *)
val next_event_time : t -> int64 option

(** [wake_generation engine] increments every time something is scheduled.
    A batched run loop captures it before entering a tight stepping loop and
    re-checks it each iteration: any change means the event horizon it
    computed may be stale (e.g. a port write scheduled an earlier event),
    so the batch must fall back to the dispatcher. *)
val wake_generation : t -> int

(** [dispatch_due engine] runs every event whose time is [<= now], in order.
    Returns the number of events dispatched. *)
val dispatch_due : t -> int

(** [run_until engine ~time] dispatches events in time order, advancing the
    clock to each, until the queue holds nothing at or before [time]; the
    clock finishes at exactly [time]. *)
val run_until : t -> time:int64 -> unit

(** [run_until_idle ?max_events engine] dispatches until the queue is empty
    or [max_events] (default 10_000_000) have run; returns events run. *)
val run_until_idle : ?max_events:int -> t -> int

(** [pending engine] is the number of scheduled events. *)
val pending : t -> int
