(* The clock is a native int so that [advance], called on every charge,
   stores without boxing.  63 bits of cycles outlast any simulation: at
   1.26 GHz, 2^62 cycles is about 116 simulated years. *)
type t = {
  mutable clock : int;
  queue : (unit -> unit) Event_queue.t;
  mutable wake : int;
}

let create () = { clock = 0; queue = Event_queue.create (); wake = 0 }

let now t = Int64.of_int t.clock

let wake_generation t = t.wake

let advance t cycles =
  if Int64.compare cycles 0L < 0 then invalid_arg "Engine.advance: negative";
  t.clock <- t.clock + Int64.to_int cycles

(* Moves the clock forward to [time], never back. *)
let catch_up t time =
  let time = Int64.to_int time in
  if time > t.clock then t.clock <- time

let at t ~time f =
  let time = if Int64.compare time (now t) < 0 then now t else time in
  t.wake <- t.wake + 1;
  Event_queue.add t.queue ~time f

let after t ~delay f = at t ~time:(Int64.add (now t) delay) f

let cancel t handle = Event_queue.cancel t.queue handle

let next_event_time t = Event_queue.peek_time t.queue

let dispatch_due t =
  let rec loop n =
    match Event_queue.peek_time t.queue with
    | Some time when Int64.compare time (now t) <= 0 ->
      (match Event_queue.pop t.queue with
       | Some (_, f) ->
         f ();
         loop (n + 1)
       | None -> n)
    | Some _ | None -> n
  in
  loop 0

let run_until t ~time =
  let rec loop () =
    match Event_queue.peek_time t.queue with
    | Some event_time when Int64.compare event_time time <= 0 ->
      (match Event_queue.pop t.queue with
       | Some (event_time, f) ->
         catch_up t event_time;
         f ();
         loop ()
       | None -> ())
    | Some _ | None -> ()
  in
  loop ();
  catch_up t time

let run_until_idle ?(max_events = 10_000_000) t =
  let rec loop n =
    if n >= max_events then n
    else
      match Event_queue.pop t.queue with
      | Some (event_time, f) ->
        catch_up t event_time;
        f ();
        loop (n + 1)
      | None -> n
  in
  loop 0

let pending t = Event_queue.length t.queue
