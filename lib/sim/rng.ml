(* PCG-XSH-RR 64/32 (O'Neill 2014).  64-bit LCG state, 32-bit output with a
   random rotation; small, fast and statistically solid for simulation. *)

type t = {
  mutable state : int64;
  inc : int64; (* stream selector, must be odd *)
}

let multiplier = 6364136223846793005L

let step t = t.state <- Int64.add (Int64.mul t.state multiplier) t.inc

let output state =
  let xorshifted =
    Int64.to_int
      (Int64.logand
         (Int64.shift_right_logical
            (Int64.logxor (Int64.shift_right_logical state 18) state)
            27)
         0xFFFFFFFFL)
  in
  let rot = Int64.to_int (Int64.shift_right_logical state 59) in
  let v = (xorshifted lsr rot) lor (xorshifted lsl (-rot land 31)) in
  Int64.of_int (v land 0xFFFFFFFF)

let create_stream ~seed ~stream =
  let inc = Int64.logor (Int64.shift_left stream 1) 1L in
  let t = { state = 0L; inc } in
  step t;
  t.state <- Int64.add t.state seed;
  step t;
  t

let create ~seed = create_stream ~seed ~stream:0x14057B7EF767814FL

let bits32 t =
  step t;
  output t.state

let split t =
  let seed = bits32 t and stream = bits32 t in
  create_stream
    ~seed:(Int64.logor (Int64.shift_left seed 32) (bits32 t))
    ~stream:(Int64.logor (Int64.shift_left stream 16) (bits32 t))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.mul (Int64.div 0x1_0000_0000L bound64) bound64 in
  let rec draw () =
    let v = bits32 t in
    if Int64.compare v limit < 0 then Int64.to_int (Int64.rem v bound64)
    else draw ()
  in
  draw ()

let float t bound =
  let v = Int64.to_float (bits32 t) /. 4294967296.0 in
  v *. bound

let exponential t ~mean =
  let rec positive () =
    let u = float t 1.0 in
    if u > 0.0 then u else positive ()
  in
  -.mean *. log (positive ())
