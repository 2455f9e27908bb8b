(* Host-time spans recorded from the benchmark's side of each layer call.

   Only the traced child process enables recording; in the untraced child
   every [span] is one branch.  Spans nest through an explicit stack: a
   closing span adds its duration minus its children's to its layer's self
   time, so the layer self times of one run sum to the wall time the root
   spans cover.  The first [raw_cap] spans are also kept verbatim for the
   Chrome trace file. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enabled = ref false

type layer = { mutable self_ns : int; mutable total_ns : int; mutable calls : int }

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
    let l = { self_ns = 0; total_ns = 0; calls = 0 } in
    Hashtbl.add layers name l;
    l

type frame = {
  f_layer : layer;
  f_name : string;
  f_start : int;
  f_group : int;
  mutable f_child_ns : int;
}

let stack : frame list ref = ref []

type raw = {
  r_name : string;
  r_start : int;
  r_stop : int;
  r_parent : string;
  r_group : int;
}

let raw_cap = 20_000
let raws : raw list ref = ref []
let raw_count = ref 0
let next_group = ref 0

let record name ~start ~stop ~group =
  if !raw_count < raw_cap then begin
    incr raw_count;
    let parent = match !stack with f :: _ -> f.f_name | [] -> "" in
    raws :=
      { r_name = name; r_start = start; r_stop = stop; r_parent = parent;
        r_group = group }
      :: !raws
  end

(* A span with no children, timed by the caller.  The hot run loop uses
   this with shared timestamps: one clock read ends one call's span and
   starts the next one's. *)
let leaf (l : layer) name ~start ~stop =
  let d = stop - start in
  l.self_ns <- l.self_ns + d;
  l.total_ns <- l.total_ns + d;
  l.calls <- l.calls + 1;
  let group =
    match !stack with
    | f :: _ ->
      f.f_child_ns <- f.f_child_ns + d;
      f.f_group
    | [] -> 0
  in
  record name ~start ~stop ~group

(* [span ?group name f] runs [f] inside a span.  [~group:true] starts a new
   id that every nested span shares (one debug command, one campaign). *)
let span ?(group = false) name f =
  if not !enabled then f ()
  else begin
    let g =
      if group then (incr next_group; !next_group)
      else match !stack with fr :: _ -> fr.f_group | [] -> 0
    in
    let fr =
      { f_layer = layer name; f_name = name; f_start = now_ns (); f_group = g;
        f_child_ns = 0 }
    in
    stack := fr :: !stack;
    let close () =
      let stop = now_ns () in
      stack := List.tl !stack;
      let d = stop - fr.f_start in
      fr.f_layer.self_ns <- fr.f_layer.self_ns + d - fr.f_child_ns;
      fr.f_layer.total_ns <- fr.f_layer.total_ns + d;
      fr.f_layer.calls <- fr.f_layer.calls + 1;
      (match !stack with
       | parent :: _ -> parent.f_child_ns <- parent.f_child_ns + d
       | [] -> ());
      record name ~start:fr.f_start ~stop ~group:g
    in
    Fun.protect ~finally:close f
  end

let self_s name =
  match Hashtbl.find_opt layers name with
  | Some l -> float_of_int l.self_ns /. 1e9
  | None -> 0.0

let total_s name =
  match Hashtbl.find_opt layers name with
  | Some l -> float_of_int l.total_ns /. 1e9
  | None -> 0.0

let calls name =
  match Hashtbl.find_opt layers name with Some l -> l.calls | None -> 0

(* Sum of every layer's self time except the named roots. *)
let attributed_s ~roots =
  Hashtbl.fold
    (fun name l acc ->
      if List.mem name roots then acc else acc +. (float_of_int l.self_ns /. 1e9))
    layers 0.0

(* Chrome trace-event JSON (complete events, microseconds), oldest first. *)
let chrome_json () =
  let module J = Vmm_obs.Json in
  let spans = List.rev !raws in
  let t0 = match spans with [] -> 0 | s :: _ -> s.r_start in
  let t0 = List.fold_left (fun acc s -> min acc s.r_start) t0 spans in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.String s.r_name);
                   ("ph", J.String "X");
                   ("pid", J.Int 1);
                   ("tid", J.Int 1);
                   ("ts", J.Float (float_of_int (s.r_start - t0) /. 1e3));
                   ("dur", J.Float (float_of_int (s.r_stop - s.r_start) /. 1e3));
                   ( "args",
                     J.Obj
                       [ ("parent", J.String s.r_parent); ("id", J.Int s.r_group) ]
                   );
                 ])
             spans) );
      ("displayTimeUnit", J.String "ms");
    ]
