(** Deterministic pseudo-random number generator (PCG-32).

    Simulations must be reproducible, so every stochastic component draws
    from an explicitly seeded stream rather than [Random].  Streams can be
    split so independent devices do not perturb each other's sequences. *)

type t

(** [create ~seed] makes a generator; equal seeds yield equal sequences. *)
val create : seed:int64 -> t

(** [split t] derives an independent generator; deterministic in [t]'s
    state and advance count. *)
val split : t -> t

(** [bits32 t] is the next raw 32-bit draw (in [0, 2{^32})). *)
val bits32 : t -> int64

(** [int t bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [0, bound). *)
val float : t -> float -> float

(** [exponential t ~mean] draws from Exp(1/mean); used for jittered device
    service times. *)
val exponential : t -> mean:float -> float
