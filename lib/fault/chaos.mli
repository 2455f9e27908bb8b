(** A lossy wire: wraps a byte sink and, while active, drops, corrupts,
    duplicates or delays each byte independently, drawing every decision
    from a seeded {!Vmm_sim.Rng} stream — a failing run replays from its
    seed.  When a recorder is attached ({!set_recorder}), every per-byte
    verdict also routes through {!Vmm_replay.Recorder.decide_chaos}:
    recording logs it; replaying substitutes the scripted verdict for
    the live RNG.

    Delayed bytes are re-submitted through an Engine event, so they can
    land behind later traffic; reordering is deliberately part of the
    menu.  To the framing layer it reads as corruption, and the ARQ layer
    must recover either way. *)

type profile = {
  drop_p : float;
  corrupt_p : float;
  dup_p : float;
  delay_p : float;
  max_delay_cycles : int;  (** uniform in [1, max] when a delay fires *)
}

(** All-zero probabilities: a perfect wire. *)
val quiet : profile

type counters = {
  mutable passed : int;
  mutable dropped : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable delayed : int;
}

type t

(** [create ~engine ~rng ()] starts inactive (pass-through). *)
val create : engine:Vmm_sim.Engine.t -> rng:Vmm_sim.Rng.t -> unit -> t

(** [set_profile t p] — @raise Invalid_argument on probabilities outside
    [0,1] or [max_delay_cycles < 1]. *)
val set_profile : t -> profile -> unit

val set_active : t -> bool -> unit

(** [set_recorder t r] routes every per-byte verdict through [r]: logged
    under the wrap's [source] when recording, scripted when replaying. *)
val set_recorder : t -> Vmm_replay.Recorder.t -> unit

val stats : t -> counters

(** [wrap ?source t sink] is a sink that applies the chaos (when active)
    before forwarding to [sink].  [source] (default ["chaos"]) labels
    this wrap's verdicts in the recorded trace — give each direction its
    own label so replay matches them positionally. *)
val wrap : ?source:string -> t -> (int -> unit) -> int -> unit
