type severity = Debug | Info | Warn | Error

type detail =
  | Event of Vmm_replay.Event.payload
  | Reflect of { vector : int; pc : int; depth : int }
  | Io of { port : int; pc : int }
  | Text of string

type entry = {
  cycle : int64;
  kind : string;
  severity : severity;
  detail : string;
}

(* Parallel arrays rather than an array of records: a note writes four
   slots and builds nothing, and the cycle stays a native int (the
   engine clock is one already) instead of a boxed [int64]. *)
type t = {
  cycles : int array;
  kinds : string array;
  severities : severity array;
  details : detail array;
  mutable next : int;
  mutable total : int;
}

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity < 1";
  {
    cycles = Array.make capacity 0;
    kinds = Array.make capacity "";
    severities = Array.make capacity Debug;
    details = Array.make capacity (Text "");
    next = 0;
    total = 0;
  }

let capacity t = Array.length t.cycles

let note t ~cycle ~kind ?(severity = Debug) detail =
  let i = t.next in
  t.cycles.(i) <- Int64.to_int cycle;
  t.kinds.(i) <- kind;
  t.severities.(i) <- severity;
  t.details.(i) <- detail;
  t.next <- (if i + 1 = Array.length t.cycles then 0 else i + 1);
  t.total <- t.total + 1

let total t = t.total
let retained t = min t.total (capacity t)
let dropped t = t.total - retained t

let render = function
  | Event p -> Format.asprintf "%a" Vmm_replay.Event.pp_payload p
  | Reflect { vector; pc; depth } ->
    Printf.sprintf "vector=%d pc=0x%x depth=%d" vector pc depth
  | Io { port; pc } -> Printf.sprintf "port=0x%x pc=0x%x" port pc
  | Text s -> s

let entry t i =
  {
    cycle = Int64.of_int t.cycles.(i);
    kind = t.kinds.(i);
    severity = t.severities.(i);
    detail = render t.details.(i);
  }

(* Slot indices of the retained entries, oldest first. *)
let slots t =
  let n = retained t and cap = capacity t in
  List.init n (fun k -> (t.next - n + k + cap) mod cap)

let entries t = List.map (entry t) (slots t)

let rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let find ?(min_severity = Debug) t ~kind =
  slots t
  |> List.filter (fun i ->
         String.equal t.kinds.(i) kind
         && rank t.severities.(i) >= rank min_severity)
  |> List.map (entry t)

let clear t =
  let cap = capacity t in
  Array.fill t.cycles 0 cap 0;
  Array.fill t.kinds 0 cap "";
  Array.fill t.severities 0 cap Debug;
  Array.fill t.details 0 cap (Text "");
  t.next <- 0;
  t.total <- 0

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

(* Self-describing text — the [qR] payload and the crash-bundle flight
   section: a header line, then one [@cycle kind: detail] line per
   retained entry, oldest first. *)
let dump t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "flight total=%d retained=%d dropped=%d capacity=%d\n"
       t.total (retained t) (dropped t) (capacity t));
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "@%Ld %s: %s\n" e.cycle e.kind e.detail))
    (entries t);
  Buffer.contents buf
