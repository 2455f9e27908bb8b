(** Record/replay hub.

    One recorder hangs off each {!Vmm_hw.Machine.t}; every tap at the
    monitor boundary reports nondeterministic events through {!emit} (or
    {!decide_chaos} for decisions that must {e drive} behaviour on
    replay).  Modes:

    - [Off] (default): every call is a cheap no-op.
    - [Record]: events append, in order, to an in-memory log.
    - [Replay]: each reported event is checked against the next scripted
      one; the first mismatch is latched as a {!divergence} (index,
      cycle, source, expected-vs-actual) and checking stops.  Chaos
      verdicts are {e taken from the script} instead of the live RNG, so
      a replayed run is closed under the trace.

    {!set_muted} suppresses reporting during reverse-debug re-execution:
    the replayed window's events are already in the log and must be
    neither re-appended nor re-checked. *)

type mode = Off | Record | Replay

type divergence = {
  index : int;  (** position in the global event sequence (0-based) *)
  cycle : int64;  (** cycle of the event actually observed *)
  source : string;  (** source of the event actually observed *)
  expected : Event.t option;  (** [None]: live run produced extra events *)
  actual : Event.t option;  (** [None]: live run ended with script left *)
}

val pp_divergence : Format.formatter -> divergence -> unit

type t

val create : unit -> t
val mode : t -> mode

(** [start_record t] clears any previous log and begins recording. *)
val start_record : t -> unit

(** [start_replay t events] begins checking against [events]. *)
val start_replay : t -> Event.t list -> unit

(** [stop t] returns to [Off]; the log (or script position) survives for
    inspection. *)
val stop : t -> unit

(** [recorded t] — the events logged so far, in order. *)
val recorded : t -> Event.t list

(** [position t] — events logged (Record) or consumed (Replay). *)
val position : t -> int

(** [emit t ~cycle ~source payload] — report one nondeterministic
    event. *)
val emit : t -> cycle:int64 -> source:string -> Event.payload -> unit

(** [decide_chaos t ~cycle ~source ~roll] — obtain the chaos verdict for
    one byte.  [Off]: [roll ()].  [Record]: [roll ()], logged.
    [Replay]: the scripted verdict (the RNG is not consulted); on
    mismatch the divergence latches and [roll ()] is used. *)
val decide_chaos :
  t -> cycle:int64 -> source:string -> roll:(unit -> Event.chaos_verdict) ->
  Event.chaos_verdict

(** [finish_replay t] — end-of-run check: latches a divergence if
    scripted events remain unconsumed.  Returns {!divergence}. *)
val finish_replay : t -> divergence option

val set_muted : t -> bool -> unit
