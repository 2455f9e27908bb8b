(** Monitor-owned guest watchdog.

    The paper gives the monitor exclusive ownership of its timer; this
    module uses that timer (a periodic simulation-engine event — the
    physical PIT stays untouched) to notice a guest that has stopped
    making progress.  Each period it samples retired instructions,
    virtual-interrupt acknowledgements and the halt/IF state; after
    [max_stalled_periods] consecutive progress-free periods it calls
    [on_wedge], which the monitor turns into a forced break-in reported
    to the host as a [Wedged] stop.

    Checks charge no CPU cycles and mutate no guest state, so arming the
    watchdog leaves workload telemetry untouched. *)

type config = { period_cycles : int64; max_stalled_periods : int }

(** One progress observation, supplied by the monitor. *)
type sample = {
  retired : int64;  (** cumulative instructions retired *)
  irq_acks : int;  (** cumulative virtual-PIC acknowledgements *)
  interruptible : bool;  (** guest IF *)
  halted : bool;  (** guest executed HLT *)
  suspended : bool;
      (** stopped by the debugger / crashed / shut down — periods in this
          state never count as stalls *)
}

type t

(** [create ?config ~engine ~sample ~on_wedge ()] — inert until
    {!start}.  [sample] must be cheap and side-effect-free.
    @raise Invalid_argument on a non-positive period or stall budget. *)
val create :
  ?config:config ->
  engine:Vmm_sim.Engine.t ->
  sample:(unit -> sample) ->
  on_wedge:(stalled_periods:int -> unit) ->
  unit ->
  t

val start : t -> unit
val stop : t -> unit

(** [note_reset t] clears the consecutive-stall count and re-baselines —
    called after a warm restart. *)
val note_reset : t -> unit

val running : t -> bool

(** [stalled_periods t] — current consecutive progress-free periods. *)
val stalled_periods : t -> int

(** Cumulative counters (metrics feed). *)
val checks : t -> int

val stalled_total : t -> int
val breakins : t -> int
