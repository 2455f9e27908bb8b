module Stats = Vmm_sim.Stats

type key = {
  k_pc : int;
  k_ring : int;
  k_cat : string;
}

(* Internally a bucket is a packed int — [pc lsl 5 | ring lsl 3 |
   category index] — so the steady-state path hashes machine integers
   instead of a record holding a string.  The public {!key} record is
   reconstructed when a dump is rendered.  Ring takes 2 bits (CPL is
   0..3) and the category index 3 (there are eight {!Stats.category}s). *)
let cat_bits = 3
let cat_mask = (1 lsl cat_bits) - 1
let ring_shift = cat_bits
let pc_shift = cat_bits + 2

type t = {
  mutable period : int64;
  counts : (int, int ref) Hashtbl.t; (* packed bucket -> hits *)
  (* One-entry cache: tight guest loops sample the same bucket over and
     over. *)
  mutable memo_packed : int;
  mutable memo_count : int ref;
  mutable total : int;
}

let default_period = 8192L

let create () =
  {
    period = 0L;
    counts = Hashtbl.create 256;
    memo_packed = -1;
    memo_count = ref 0;
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

let set_period t p =
  if Int64.compare p 0L < 0 then invalid_arg "Profiler.set_period: negative";
  t.period <- p

(* The steady-state cost of an armed profiler is this function, so the
   common path stays cheap: pack the bucket into one int, and a repeat
   of the last bucket is an int compare plus an increment.  A miss is an
   int-keyed hashtable probe — no string hashing, no key allocation, and
   [find] rather than [find_opt] so a hit builds no option. *)
let sample t ~pc ~ring ~cat =
  let packed = pack ~pc ~ring ~cat in
  if packed = t.memo_packed then incr t.memo_count
  else begin
    let r =
      match Hashtbl.find t.counts packed with
      | r -> r
      | exception Not_found ->
        let r = ref 0 in
        Hashtbl.add t.counts packed r;
        r
    in
    incr r;
    t.memo_packed <- packed;
    t.memo_count <- r
  end;
  t.total <- t.total + 1

let total_samples t = t.total

let buckets t =
  Hashtbl.fold (fun packed r acc -> (key_of_packed packed, !r) :: acc)
    t.counts []
  |> List.sort (fun (ka, ca) (kb, cb) ->
         if ca <> cb then compare cb ca
         else compare (ka.k_pc, ka.k_ring, ka.k_cat) (kb.k_pc, kb.k_ring, kb.k_cat))

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
