module Engine = Vmm_sim.Engine

type event =
  | Complete of {
      name : string;
      cat : string;
      tid : int;
      start : int64;
      stop : int64;
    }  (* a closed span: Chrome phase "X" *)
  | Counter of { name : string; cat : string; time : int64; value : float }
      (* a counter-track sample: Chrome phase "C", one Perfetto track per
         name *)

type open_span = {
  span_name : string;
  span_cat : string;
  span_start : int64;
}

type t = {
  engine : Engine.t;
  capacity : int;
  mutable enabled : bool;
  mutable events : event list; (* newest first *)
  mutable count : int;
  mutable stack : open_span list;
  mutable unbalanced : int;
  mutable dropped : int;
}

let tid_cpu = 0
let tid_dma = 1

let create ?(capacity = 65536) ~engine () =
  if capacity < 1 then invalid_arg "Tracer.create: capacity < 1";
  {
    engine;
    capacity;
    enabled = false;
    events = [];
    count = 0;
    stack = [];
    unbalanced = 0;
    dropped = 0;
  }

let set_enabled t flag = t.enabled <- flag
let enabled t = t.enabled

let record t event =
  if t.count >= t.capacity then t.dropped <- t.dropped + 1
  else begin
    t.events <- event :: t.events;
    t.count <- t.count + 1
  end

let begin_span t ~cat name =
  if t.enabled then
    t.stack <-
      { span_name = name; span_cat = cat; span_start = Engine.now t.engine }
      :: t.stack

let end_span t =
  if t.enabled then
    match t.stack with
    | [] -> t.unbalanced <- t.unbalanced + 1
    | span :: rest ->
      t.stack <- rest;
      record t
        (Complete
           {
             name = span.span_name;
             cat = span.span_cat;
             tid = tid_cpu;
             start = span.span_start;
             stop = Engine.now t.engine;
           })

let with_span t ~cat name f =
  if not t.enabled then f ()
  else begin
    begin_span t ~cat name;
    Fun.protect ~finally:(fun () -> end_span t) f
  end

let counter t ~cat name value =
  if t.enabled then
    record t (Counter { name; cat; time = Engine.now t.engine; value })

let add_complete t ?(tid = tid_dma) ~cat ~name ~start ~stop () =
  if t.enabled then record t (Complete { name; cat; tid; start; stop })

(* Close every open span at the current instant, innermost first, via
   the normal [end_span] path.  Crash-bundle capture calls this so spans
   open at crash time are flushed, not lost.  [end_span] is
   gated on [enabled], so force it on for the drain: a tracer disabled
   mid-run can still carry an open stack. *)
let flush_open_spans t =
  let flushed = List.length t.stack in
  let was_enabled = t.enabled in
  t.enabled <- true;
  while t.stack <> [] do
    end_span t
  done;
  t.enabled <- was_enabled;
  flushed

let events t = List.rev t.events
let event_count t = t.count
let depth t = List.length t.stack
let unbalanced_ends t = t.unbalanced
let dropped t = t.dropped

let to_chrome_json ?(cpu_hz = 1.26e9) t =
  let us_of_cycles c = Int64.to_float c /. cpu_hz *. 1e6 in
  let common ~name ~cat ~tid ~ts rest =
    Json.Obj
      ([
         ("name", Json.String name);
         ("cat", Json.String cat);
         ("pid", Json.Int 0);
         ("tid", Json.Int tid);
         ("ts", Json.Float (us_of_cycles ts));
       ]
      @ rest)
  in
  let event_json = function
    | Complete { name; cat; tid; start; stop } ->
      common ~name ~cat ~tid ~ts:start
        [
          ("ph", Json.String "X");
          ("dur", Json.Float (us_of_cycles (Int64.sub stop start)));
        ]
    | Counter { name; cat; time; value } ->
      (* Chrome phase "C": Perfetto renders one counter track per name,
         plotting args.value over time. *)
      common ~name ~cat ~tid:tid_cpu ~ts:time
        [
          ("ph", Json.String "C");
          ("args", Json.Obj [ ("value", Json.Float value) ]);
        ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_json (events t)));
      ("displayTimeUnit", Json.String "ns");
    ]
