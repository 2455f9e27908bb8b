(** Abstract values for the guest-image verifier.

    A flat constant/interval domain over 32-bit words.  [Top] is "any
    word"; [Iv (lo, hi)] the inclusive unsigned range (a constant is the
    singleton interval).  Transfers that could wrap modulo 2{^32} give up
    to [Top] — the verifier only flags when a {e bounded} value proves a
    violation, so [Top] never causes a false positive. *)

type value = Top | Iv of int * int

val top : value
val const : int -> value

(** [range lo hi] — [Top] when the bounds are out of the 32-bit unsigned
    order. *)
val range : int -> int -> value

val is_const : value -> int option
val bounds : value -> (int * int) option
val equal : value -> value -> bool

(** Least upper bound (interval hull). *)
val join : value -> value -> value

(** {2 Transfer functions}

    Exact (wrapping, via {!Vmm_hw.Word}) on constants; conservative on
    intervals — bitwise and shift operations only track constants. *)

val add : value -> value -> value
val sub : value -> value -> value
val mul : value -> value -> value
val logand : value -> value -> value
val logor : value -> value -> value
val logxor : value -> value -> value
val shl : value -> value -> value
val shr : value -> value -> value
