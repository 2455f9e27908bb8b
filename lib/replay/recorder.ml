type mode = Off | Record | Replay

type divergence = {
  index : int;
  cycle : int64;
  source : string;
  expected : Event.t option;
  actual : Event.t option;
}

let pp_divergence fmt d =
  let pp_opt fmt = function
    | Some e -> Event.pp fmt e
    | None -> Format.pp_print_string fmt "<none>"
  in
  Format.fprintf fmt
    "divergence at event %d (cycle %Ld, source %s):@ expected %a,@ actual %a"
    d.index d.cycle d.source pp_opt d.expected pp_opt d.actual

type t = {
  mutable mode : mode;
  mutable log : Event.t list;  (* reversed *)
  mutable count : int;
  mutable script : Event.t array;
  mutable cursor : int;
  mutable muted : bool;
  mutable div : divergence option;
}

let create () =
  {
    mode = Off;
    log = [];
    count = 0;
    script = [||];
    cursor = 0;
    muted = false;
    div = None;
  }

let mode t = t.mode

let start_record t =
  t.mode <- Record;
  t.log <- [];
  t.count <- 0;
  t.script <- [||];
  t.cursor <- 0;
  t.muted <- false;
  t.div <- None

let start_replay t events =
  t.mode <- Replay;
  t.log <- [];
  t.count <- 0;
  t.script <- Array.of_list events;
  t.cursor <- 0;
  t.muted <- false;
  t.div <- None

let stop t = t.mode <- Off
let recorded t = List.rev t.log
let position t = match t.mode with Replay -> t.cursor | _ -> t.count
let set_muted t flag = t.muted <- flag

let diverge t ~expected ~actual =
  if t.div = None then begin
    let cycle, source =
      match (actual : Event.t option) with
      | Some e -> (e.cycle, e.source)
      | None ->
        (match expected with
         | Some (e : Event.t) -> (e.cycle, e.source)
         | None -> (0L, "?"))
    in
    t.div <- Some { index = t.cursor; cycle; source; expected; actual }
  end

(* Replay checking stops at the first divergence: everything after a
   mismatch differs by construction and would only bury the signal. *)
let check t (actual : Event.t) =
  if t.div = None then begin
    if t.cursor >= Array.length t.script then
      diverge t ~expected:None ~actual:(Some actual)
    else begin
      let expected = t.script.(t.cursor) in
      if Event.equal expected actual then t.cursor <- t.cursor + 1
      else diverge t ~expected:(Some expected) ~actual:(Some actual)
    end
  end

let emit t ~cycle ~source payload =
  match t.mode with
  | Off -> ()
  | _ when t.muted -> ()
  | Record ->
    t.log <- { Event.cycle; source; payload } :: t.log;
    t.count <- t.count + 1
  | Replay -> check t { Event.cycle; source; payload }

let decide_chaos t ~cycle ~source ~roll =
  match t.mode with
  | Off -> roll ()
  | _ when t.muted -> roll ()
  | Record ->
    let v = roll () in
    t.log <- { Event.cycle; source; payload = Chaos v } :: t.log;
    t.count <- t.count + 1;
    v
  | Replay ->
    if t.div <> None then roll ()
    else if t.cursor >= Array.length t.script then begin
      diverge t ~expected:None
        ~actual:(Some { Event.cycle; source; payload = Chaos Drop });
      roll ()
    end
    else begin
      let expected = t.script.(t.cursor) in
      match expected.payload with
      | Chaos v when expected.cycle = cycle && expected.source = source ->
        t.cursor <- t.cursor + 1;
        v
      | _ ->
        let v = roll () in
        diverge t ~expected:(Some expected)
          ~actual:(Some { Event.cycle; source; payload = Chaos v });
        v
    end

let finish_replay t =
  if t.mode = Replay && t.div = None && t.cursor < Array.length t.script then
    diverge t ~expected:(Some t.script.(t.cursor)) ~actual:None;
  t.div
