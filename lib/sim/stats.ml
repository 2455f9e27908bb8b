type category =
  | Guest
  | Mon_cpu
  | Mon_io
  | Mon_pic
  | Mon_pit
  | Mon_shadow
  | Irq
  | Stub

let categories =
  [| Guest; Mon_cpu; Mon_io; Mon_pic; Mon_pit; Mon_shadow; Irq; Stub |]

let category_index = function
  | Guest -> 0
  | Mon_cpu -> 1
  | Mon_io -> 2
  | Mon_pic -> 3
  | Mon_pit -> 4
  | Mon_shadow -> 5
  | Irq -> 6
  | Stub -> 7

let category_name = function
  | Guest -> "guest"
  | Mon_cpu -> "mon_cpu"
  | Mon_io -> "mon_io"
  | Mon_pic -> "mon_pic"
  | Mon_pit -> "mon_pit"
  | Mon_shadow -> "mon_shadow"
  | Irq -> "irq"
  | Stub -> "stub"

(* Busy totals are native ints so [note_busy] — called on every charge —
   stores without boxing; [cur] is the current category's index into
   [by_cat]. *)
type load = {
  mutable busy : int;
  mutable cur : int;
  by_cat : int array;
}

let load () =
  {
    busy = 0;
    cur = category_index Guest;
    by_cat = Array.make (Array.length categories) 0;
  }

let note_busy l cycles =
  let c = Int64.to_int cycles in
  l.busy <- l.busy + c;
  l.by_cat.(l.cur) <- l.by_cat.(l.cur) + c

let busy_cycles l = Int64.of_int l.busy
let category l = categories.(l.cur)

let with_category l cat f =
  let prev = l.cur in
  l.cur <- category_index cat;
  match f () with
  | v ->
    l.cur <- prev;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    l.cur <- prev;
    Printexc.raise_with_backtrace e bt

let busy_by_category l =
  Array.to_list categories
  |> List.filter_map (fun c ->
         let v = l.by_cat.(category_index c) in
         if v = 0 then None else Some (category_name c, Int64.of_int v))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type histogram = {
  width : float;
  counts : int array; (* last slot is the overflow bucket *)
  mutable total : int;
  mutable sum : float;
}

let histogram ~buckets ~width =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets <= 0";
  if width <= 0.0 then invalid_arg "Stats.histogram: width <= 0";
  { width; counts = Array.make (buckets + 1) 0; total = 0; sum = 0.0 }

let observe h v =
  let buckets = Array.length h.counts - 1 in
  let index =
    if v < 0.0 then 0
    else
      let i = int_of_float (v /. h.width) in
      if i >= buckets then buckets else i
  in
  h.counts.(index) <- h.counts.(index) + 1;
  h.total <- h.total + 1;
  h.sum <- h.sum +. v

let reset_histogram h =
  Array.fill h.counts 0 (Array.length h.counts) 0;
  h.total <- 0;
  h.sum <- 0.0

let histogram_count h = h.total

let histogram_mean h = if h.total = 0 then 0.0 else h.sum /. float_of_int h.total

let histogram_sum h = h.sum
let histogram_width h = h.width

let bucket_counts h = Array.copy h.counts

let percentile h p =
  if h.total = 0 then 0.0
  else begin
    let rank = p /. 100.0 *. float_of_int h.total in
    let rec scan i acc =
      if i >= Array.length h.counts then
        h.width *. float_of_int (Array.length h.counts)
      else
        let acc = acc + h.counts.(i) in
        if float_of_int acc >= rank then (float_of_int i +. 0.5) *. h.width
        else scan (i + 1) acc
    in
    scan 0 0
  end
