(** 32-bit machine words represented as OCaml [int]s in [0, 2{^32}).

    All arithmetic wraps modulo 2{^32}; helpers exist for the signed view
    used by comparisons.  Keeping words as plain [int]s (OCaml ints are 63
    bits) avoids boxing in the interpreter's hot path. *)

type t = int

val mask : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

(** Shift amounts are taken modulo 32, as on x86. *)
val shift_left : t -> int -> t

val shift_right : t -> int -> t

(** [to_signed w] reinterprets the word as a two's-complement 32-bit value. *)
val to_signed : t -> int

(** [of_signed v] wraps a (possibly negative) integer into a word. *)
val of_signed : int -> t

(** [byte w i] extracts byte [i] (0 = least significant). *)
val byte : t -> int -> int

(** [equal], [unsigned_lt], [signed_lt] are the comparison predicates the
    CPU flags are derived from. *)
val equal : t -> t -> bool

val unsigned_lt : t -> t -> bool
val signed_lt : t -> t -> bool
