(* Abstract values for the guest-image verifier: a flat constant/interval
   domain over 32-bit words.  [Top] means "any word"; [Iv (lo, hi)] is an
   inclusive unsigned range.  Constant operands are computed exactly with
   {!Vmm_hw.Word} (matching the interpreter, wrap included); genuine
   intervals give up to [Top] whenever the result could wrap modulo 2^32.
   The verifier only flags a violation when a *bounded* value proves it,
   so [Top] can never produce a false positive. *)

module Word = Vmm_hw.Word

type value = Top | Iv of int * int

let mask = 0xFFFFFFFF
let top = Top

let const n =
  let n = n land mask in
  Iv (n, n)

let range lo hi = if lo < 0 || hi > mask || lo > hi then Top else Iv (lo, hi)
let is_const = function Iv (lo, hi) when lo = hi -> Some lo | _ -> None
let bounds = function Top -> None | Iv (lo, hi) -> Some (lo, hi)

let equal a b =
  match (a, b) with
  | Top, Top -> true
  | Iv (l1, h1), Iv (l2, h2) -> l1 = l2 && h1 = h2
  | _ -> false

let join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Iv (l1, h1), Iv (l2, h2) -> Iv (min l1 l2, max h1 h2)

(* Exact on constants (wrap and all); [ivop] handles the interval case. *)
let binop word_op iv_op a b =
  match (is_const a, is_const b) with
  | Some x, Some y -> const (word_op x y)
  | _ -> iv_op a b

let add =
  binop Word.add (fun a b ->
      match (a, b) with
      | Iv (l1, h1), Iv (l2, h2) when h1 + h2 <= mask -> Iv (l1 + l2, h1 + h2)
      | _ -> Top)

let sub =
  binop Word.sub (fun a b ->
      match (a, b) with
      | Iv (l1, h1), Iv (l2, h2) when l1 - h2 >= 0 -> Iv (l1 - h2, h1 - l2)
      | _ -> Top)

let mul =
  binop Word.mul (fun a b ->
      match (a, b) with
      | Iv (l1, h1), Iv (l2, h2) when h1 * h2 <= mask -> Iv (l1 * l2, h1 * h2)
      | _ -> Top)

let const_only word_op = binop word_op (fun _ _ -> Top)
let logand = const_only Word.logand
let logor = const_only Word.logor
let logxor = const_only Word.logxor
let shl = const_only (fun x y -> Word.shift_left x y)
let shr = const_only (fun x y -> Word.shift_right x y)
