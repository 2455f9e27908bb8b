module Engine = Vmm_sim.Engine

type event =
  | Complete of {
      name : string;
      cat : string;
      tid : int;
      start : int64;
      stop : int64;
    }  (* a closed span: Chrome phase "X" *)
  | Instant of { name : string; cat : string; tid : int; time : int64 }
      (* a point event: Chrome phase "i" *)
  | Counter of { name : string; cat : string; time : int64; value : float }
      (* a counter-track sample: Chrome phase "C", one Perfetto track per
         name *)

type open_span = {
  span_name : string;
  span_cat : string;
  span_start : int64;
  mutable child_cycles : int64;
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
  by_cat : (string, int64 ref) Hashtbl.t;
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
    by_cat = Hashtbl.create 16;
  }

let set_enabled t flag = t.enabled <- flag
let enabled t = t.enabled

let record t event =
  if t.count >= t.capacity then t.dropped <- t.dropped + 1
  else begin
    t.events <- event :: t.events;
    t.count <- t.count + 1
  end

let attribute t cat cycles =
  match Hashtbl.find_opt t.by_cat cat with
  | Some r -> r := Int64.add !r cycles
  | None -> Hashtbl.add t.by_cat cat (ref cycles)

let begin_span t ~cat name =
  if t.enabled then
    t.stack <-
      {
        span_name = name;
        span_cat = cat;
        span_start = Engine.now t.engine;
        child_cycles = 0L;
      }
      :: t.stack

let end_span t =
  if t.enabled then
    match t.stack with
    | [] -> t.unbalanced <- t.unbalanced + 1
    | span :: rest ->
      t.stack <- rest;
      let stop = Engine.now t.engine in
      let duration = Int64.sub stop span.span_start in
      let exclusive = Int64.sub duration span.child_cycles in
      let exclusive = if Int64.compare exclusive 0L < 0 then 0L else exclusive in
      attribute t span.span_cat exclusive;
      (match rest with
       | parent :: _ ->
         parent.child_cycles <- Int64.add parent.child_cycles duration
       | [] -> ());
      record t
        (Complete
           {
             name = span.span_name;
             cat = span.span_cat;
             tid = tid_cpu;
             start = span.span_start;
             stop;
           })

let with_span t ~cat name f =
  if not t.enabled then f ()
  else begin
    begin_span t ~cat name;
    Fun.protect ~finally:(fun () -> end_span t) f
  end

let instant t ~cat name =
  if t.enabled then
    record t
      (Instant { name; cat; tid = tid_cpu; time = Engine.now t.engine })

let counter t ~cat name value =
  if t.enabled then
    record t (Counter { name; cat; time = Engine.now t.engine; value })

let add_complete t ?(tid = tid_dma) ~cat ~name ~start ~stop () =
  if t.enabled then record t (Complete { name; cat; tid; start; stop })

(* Close every open span at the current instant, innermost first, via
   the normal [end_span] path so exclusive-time attribution and parent
   child-cycle bookkeeping stay exact.  Crash-bundle capture calls this
   so spans open at crash time are flushed, not lost.  [end_span] is
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

let breakdown t =
  Hashtbl.fold (fun cat r acc -> (cat, !r) :: acc) t.by_cat []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let clear t =
  t.events <- [];
  t.count <- 0;
  t.stack <- [];
  t.unbalanced <- 0;
  t.dropped <- 0;
  Hashtbl.reset t.by_cat

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
    | Instant { name; cat; tid; time } ->
      common ~name ~cat ~tid ~ts:time
        [ ("ph", Json.String "i"); ("s", Json.String "t") ]
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
