type t = int

let mask v = v land 0xFFFFFFFF
let add a b = mask (a + b)
let sub a b = mask (a - b)
let mul a b = mask (a * b)
let logand a b = a land b
let logor a b = a lor b
let logxor a b = a lxor b
let shift_left a n = mask (a lsl (n land 31))
let shift_right a n = mask a lsr (n land 31)
let to_signed w = if w land 0x80000000 <> 0 then w - 0x100000000 else w
let of_signed v = v land 0xFFFFFFFF
let byte w i = (w lsr (8 * i)) land 0xFF
let equal a b = mask a = mask b
let unsigned_lt a b = mask a < mask b
let signed_lt a b = to_signed a < to_signed b
