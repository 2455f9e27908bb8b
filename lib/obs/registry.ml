module Stats = Vmm_sim.Stats

type metric =
  | M_gauge of (unit -> float)
  | M_histogram of Stats.histogram

type value =
  | Gauge of float
  | Histogram of {
      count : int;
      mean : float;
      p50 : float;
      p99 : float;
    }

type t = {
  table : (string, metric) Hashtbl.t;
  help : (string, string) Hashtbl.t;
}

let create () = { table = Hashtbl.create 64; help = Hashtbl.create 64 }

let valid_name name =
  name <> ""
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let check_name name =
  if not (valid_name name) then
    invalid_arg
      (Printf.sprintf
         "Registry: metric name %S violates the subsystem_name_unit \
          convention (lowercase, digits, underscores)"
         name)

let kind_mismatch name =
  invalid_arg
    (Printf.sprintf "Registry: %S already registered with another kind" name)

(* A metric registered without [?help] still gets a HELP line: real
   Prometheus tooling treats a missing HELP as an exposition smell, and
   the naming convention is descriptive enough to fall back on. *)
let default_help name = String.map (function '_' -> ' ' | c -> c) name

let set_help t name = function
  | Some text -> Hashtbl.replace t.help name text
  | None -> ()

let help_of t name =
  match Hashtbl.find_opt t.help name with
  | Some text -> text
  | None -> default_help name

let gauge ?help t name f =
  check_name name;
  set_help t name help;
  (match Hashtbl.find_opt t.table name with
   | Some (M_gauge _) | None -> ()
   | Some _ -> kind_mismatch name);
  Hashtbl.replace t.table name (M_gauge f)

let int_gauge ?help t name f = gauge ?help t name (fun () -> float_of_int (f ()))

let histogram ?help t name ~buckets ~width =
  check_name name;
  set_help t name help;
  match Hashtbl.find_opt t.table name with
  | Some (M_histogram h) -> h
  | Some _ -> kind_mismatch name
  | None ->
    let h = Stats.histogram ~buckets ~width in
    Hashtbl.add t.table name (M_histogram h);
    h

let find_histogram t name =
  match Hashtbl.find_opt t.table name with
  | Some (M_histogram h) -> Some h
  | Some _ | None -> None

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.table []
  |> List.sort String.compare

let read = function
  | M_gauge f -> Gauge (f ())
  | M_histogram h ->
    Histogram
      {
        count = Stats.histogram_count h;
        mean = Stats.histogram_mean h;
        p50 = Stats.percentile h 50.0;
        p99 = Stats.percentile h 99.0;
      }

let snapshot t =
  List.map (fun name -> (name, read (Hashtbl.find t.table name))) (names t)

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* Prometheus exposition.  Histograms emit the real scrape shape —
   cumulative [_bucket{le="..."}] samples (each bucket counts every
   observation at or below its upper bound, last bucket [+Inf] equals
   [_count]) plus [_sum]/[_count] — not midpoint percentiles, which no
   scraper can aggregate. *)
let dump t =
  let buf = Buffer.create 1024 in
  let meta name kind =
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s %s\n" name (help_of t name));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun name ->
      match Hashtbl.find t.table name with
      | M_gauge f ->
        meta name "gauge";
        Buffer.add_string buf (Printf.sprintf "%s %s\n" name (fmt_float (f ())))
      | M_histogram h ->
        meta name "histogram";
        let counts = Stats.bucket_counts h in
        let width = Stats.histogram_width h in
        let buckets = Array.length counts - 1 in
        let cumulative = ref 0 in
        for i = 0 to buckets - 1 do
          cumulative := !cumulative + counts.(i);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
               (fmt_float (float_of_int (i + 1) *. width))
               !cumulative)
        done;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name
             (Stats.histogram_count h));
        Buffer.add_string buf
          (Printf.sprintf "%s_sum %s\n" name
             (fmt_float (Stats.histogram_sum h)));
        Buffer.add_string buf
          (Printf.sprintf "%s_count %d\n" name (Stats.histogram_count h)))
    (names t);
  Buffer.contents buf
