module Engine = Vmm_sim.Engine
module Stats = Vmm_sim.Stats
module Json = Vmm_obs.Json

type key = {
  k_pc : int;
  k_ring : int;
  k_cat : string;
}

(* Internally a bucket is a packed int — [pc lsl 5 | ring lsl 3 |
   category index] — so the steady-state path hashes machine integers
   instead of a record holding a string, and the recent ring is two
   plain int arrays (no write barriers, no boxing).  The public {!key}
   record is reconstructed on demand.  Ring takes 2 bits (CPL is 0..3)
   and the category index 3 (there are eight {!Stats.category}s). *)
let cat_bits = 3
let cat_mask = (1 lsl cat_bits) - 1
let ring_shift = cat_bits
let pc_shift = cat_bits + 2

type t = {
  engine : Engine.t;
  mutable period : int64;
  counts : (int, int ref) Hashtbl.t; (* packed bucket -> hits *)
  (* One-entry cache: tight guest loops sample the same bucket over and
     over. *)
  mutable memo_packed : int;
  mutable memo_count : int ref;
  (* Bounded ring of the most recent samples, for time-resolved export
     (Perfetto counter tracks).  The aggregate table above is unbounded
     in distinct buckets but those are few; the ring is what bounds
     per-sample memory.  Cycles fit 63-bit ints with room to spare. *)
  recent_cycle : int array;
  recent_packed : int array;
  mutable recent_next : int;
  mutable recent_total : int;
  mutable total : int;
}

let default_period = 8192L

let create ?(recent_capacity = 4096) ~engine () =
  if recent_capacity < 1 then
    invalid_arg "Profiler.create: recent_capacity < 1";
  {
    engine;
    period = 0L;
    counts = Hashtbl.create 256;
    memo_packed = -1;
    memo_count = ref 0;
    recent_cycle = Array.make recent_capacity 0;
    recent_packed = Array.make recent_capacity 0;
    recent_next = 0;
    recent_total = 0;
    total = 0;
  }

let pack ~pc ~ring ~cat =
  (pc lsl pc_shift)
  lor ((ring land 3) lsl ring_shift)
  lor Stats.category_index cat

let key_of_packed packed =
  {
    k_pc = packed lsr pc_shift;
    k_ring = (packed lsr ring_shift) land 3;
    k_cat = Stats.category_name Stats.categories.(packed land cat_mask);
  }

let period t = t.period
let enabled t = Int64.compare t.period 0L > 0

let set_period t p =
  if Int64.compare p 0L < 0 then invalid_arg "Profiler.set_period: negative";
  t.period <- p

(* The steady-state cost of an armed profiler is this function, so the
   common path stays cheap: pack the bucket into one int, and a repeat
   of the last bucket is an int compare plus an increment.  A miss is an
   int-keyed hashtable probe — no string hashing, no key allocation. *)
let sample t ~pc ~ring ~cat =
  let packed = pack ~pc ~ring ~cat in
  if packed = t.memo_packed then incr t.memo_count
  else begin
    let r =
      match Hashtbl.find_opt t.counts packed with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.add t.counts packed r;
        r
    in
    incr r;
    t.memo_packed <- packed;
    t.memo_count <- r
  end;
  t.recent_cycle.(t.recent_next) <- Int64.to_int (Engine.now t.engine);
  t.recent_packed.(t.recent_next) <- packed;
  t.recent_next <- (t.recent_next + 1) mod Array.length t.recent_packed;
  t.recent_total <- t.recent_total + 1;
  t.total <- t.total + 1

let total_samples t = t.total

let buckets t =
  Hashtbl.fold (fun packed r acc -> (key_of_packed packed, !r) :: acc)
    t.counts []
  |> List.sort (fun (ka, ca) (kb, cb) ->
         if ca <> cb then compare cb ca
         else compare (ka.k_pc, ka.k_ring, ka.k_cat) (kb.k_pc, kb.k_ring, kb.k_cat))

let sum_by proj t =
  let table = Hashtbl.create 16 in
  Hashtbl.iter
    (fun packed r ->
      let k = proj (key_of_packed packed) in
      match Hashtbl.find_opt table k with
      | Some acc -> acc := !acc + !r
      | None -> Hashtbl.add table k (ref !r))
    t.counts;
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) table []

let by_pc t =
  sum_by (fun k -> k.k_pc) t
  |> List.sort (fun (pa, ca) (pb, cb) ->
         if ca <> cb then compare cb ca else compare pa pb)

let by_ring t =
  sum_by (fun k -> k.k_ring) t |> List.sort (fun (a, _) (b, _) -> compare a b)

let by_category t =
  sum_by (fun k -> k.k_cat) t
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let clear t =
  Hashtbl.reset t.counts;
  t.memo_packed <- -1;
  t.memo_count <- ref 0;
  t.recent_next <- 0;
  t.recent_total <- 0;
  t.total <- 0

(* Self-describing text dump — the [qP] payload.  First line is the
   header; every following line is one aggregate bucket, hottest
   first. *)
let dump t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "samples=%d period=%Ld buckets=%d\n" t.total t.period
       (Hashtbl.length t.counts));
  List.iter
    (fun (key, count) ->
      Buffer.add_string buf
        (Printf.sprintf "pc=0x%x ring=%d cat=%s count=%d\n" key.k_pc
           key.k_ring key.k_cat count))
    (buckets t);
  Buffer.contents buf

(* Parse [dump] output back into (header fields, buckets); the session
   layer uses this on the qP payload. *)
let parse_dump text =
  let fields line =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
          Some
            ( String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1) )
        | None -> None)
      (String.split_on_char ' ' line)
  in
  match String.split_on_char '\n' (String.trim text) with
  | [] -> None
  | header :: rest ->
    let hdr = fields header in
    if not (List.mem_assoc "samples" hdr) then None
    else
      let bucket line =
        let f = fields line in
        match
          ( List.assoc_opt "pc" f,
            List.assoc_opt "ring" f,
            List.assoc_opt "cat" f,
            List.assoc_opt "count" f )
        with
        | Some pc, Some ring, Some cat, Some count ->
          (try
             Some
               ( { k_pc = int_of_string pc;
                   k_ring = int_of_string ring;
                   k_cat = cat;
                 },
                 int_of_string count )
           with Failure _ -> None)
        | _ -> None
      in
      Some (hdr, List.filter_map bucket (List.filter (( <> ) "") rest))

let default_resolve pc = Printf.sprintf "0x%x" pc

(* Collapsed-stack ("folded") text: one line per bucket,
   [cat;ring<r>;<frame> <count>], directly consumable by flamegraph
   tooling.  [resolve] maps a pc to a frame name (CFG/symbol attribution
   lives with the caller so this library stays dependency-light). *)
let collapsed ?(resolve = default_resolve) t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (key, count) ->
      Buffer.add_string buf
        (Printf.sprintf "%s;ring%d;%s %d\n" key.k_cat key.k_ring
           (resolve key.k_pc) count))
    (buckets t);
  Buffer.contents buf

(* Perfetto counter tracks from the recent-sample ring: the retained
   window is sliced into fixed time buckets and each slice emits one
   "C" (counter) event per track — per-ring sample counts on one track,
   per-category on another.  Opens directly in Perfetto/about:tracing
   alongside Tracer.to_chrome_json output. *)
let perfetto_counters ?(cpu_hz = 1.26e9) ?(slices = 64) t =
  let us_of_cycles c = Int64.to_float c /. cpu_hz *. 1e6 in
  let capacity = Array.length t.recent_packed in
  let retained = min t.recent_total capacity in
  let samples =
    (* oldest first *)
    List.init retained (fun i ->
        let idx = (t.recent_next - retained + i + (2 * capacity)) mod capacity in
        (Int64.of_int t.recent_cycle.(idx), key_of_packed t.recent_packed.(idx)))
  in
  match samples with
  | [] -> Json.Obj [ ("traceEvents", Json.List []) ]
  | (first_cycle, _) :: _ ->
    let last_cycle =
      List.fold_left (fun _ (c, _) -> c) first_cycle samples
    in
    let span = Int64.sub last_cycle first_cycle in
    let slices = max 1 slices in
    let slice_width =
      let w = Int64.div span (Int64.of_int slices) in
      if Int64.compare w 1L < 0 then 1L else w
    in
    let slice_of c =
      let i = Int64.to_int (Int64.div (Int64.sub c first_cycle) slice_width) in
      if i >= slices then slices - 1 else i
    in
    let rings = Hashtbl.create 8 and cats = Hashtbl.create 8 in
    let bump table k slice =
      let arr =
        match Hashtbl.find_opt table k with
        | Some a -> a
        | None ->
          let a = Array.make slices 0 in
          Hashtbl.add table k a;
          a
      in
      arr.(slice) <- arr.(slice) + 1
    in
    List.iter
      (fun (cycle, key) ->
        let s = slice_of cycle in
        bump rings (Printf.sprintf "ring%d" key.k_ring) s;
        bump cats key.k_cat s)
      samples;
    let counter_events name table =
      List.concat
        (List.init slices (fun s ->
             let ts =
               us_of_cycles
                 (Int64.add first_cycle
                    (Int64.mul (Int64.of_int s) slice_width))
             in
             let args =
               Hashtbl.fold (fun k arr acc -> (k, Json.Int arr.(s)) :: acc)
                 table []
               |> List.sort (fun (a, _) (b, _) -> String.compare a b)
             in
             if args = [] then []
             else
               [
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("ph", Json.String "C");
                     ("pid", Json.Int 0);
                     ("ts", Json.Float ts);
                     ("args", Json.Obj args);
                   ];
               ]))
    in
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            (counter_events "profile_samples_by_ring" rings
            @ counter_events "profile_samples_by_category" cats) );
        ("displayTimeUnit", Json.String "ns");
      ]
