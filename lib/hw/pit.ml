module Engine = Vmm_sim.Engine
module Event_queue = Vmm_sim.Event_queue

let input_hz = 1193182.0

type mode = Stopped | Periodic | One_shot

type t = {
  engine : Engine.t;
  costs : Costs.t;
  raise_irq : unit -> unit;
  mutable reload : int;
  mutable mode : mode;
  mutable armed_at : int64;
  mutable handle : Event_queue.handle option;
  mutable fired : int;
}

let create ~engine ~costs ~raise_irq () =
  {
    engine;
    costs;
    raise_irq;
    reload = 0x10000;
    mode = Stopped;
    armed_at = 0L;
    handle = None;
    fired = 0;
  }

let cycles_per_tick t = t.costs.Costs.cpu_hz /. input_hz

let period_cycles t =
  let ticks = if t.reload = 0 then 0x10000 else t.reload in
  Int64.of_float (float_of_int ticks *. cycles_per_tick t)

let disarm t =
  match t.handle with
  | Some h ->
    ignore (Engine.cancel t.engine h);
    t.handle <- None
  | None -> ()

let rec arm t =
  t.armed_at <- Engine.now t.engine;
  let handle =
    Engine.after t.engine ~delay:(period_cycles t) (fun () -> expire t)
  in
  t.handle <- Some handle

and expire t =
  t.handle <- None;
  t.fired <- t.fired + 1;
  t.raise_irq ();
  match t.mode with
  | Periodic -> arm t
  | One_shot | Stopped -> t.mode <- Stopped

let current_count t =
  match t.mode with
  | Stopped -> 0
  | Periodic | One_shot ->
    let elapsed = Int64.sub (Engine.now t.engine) t.armed_at in
    let elapsed_ticks = Int64.to_float elapsed /. cycles_per_tick t in
    let ticks = if t.reload = 0 then 0x10000 else t.reload in
    let remaining = ticks - int_of_float elapsed_ticks in
    if remaining < 0 then 0 else remaining

let io_read t offset =
  match offset with
  | 0 -> current_count t land 0xFFFF
  | 1 -> (current_count t lsr 16) land 0xFFFF
  | 2 -> (match t.mode with Stopped -> 0 | Periodic | One_shot -> 1)
  | _ -> 0xFFFFFFFF

let io_write t offset v =
  match offset with
  | 0 -> t.reload <- (t.reload land 0xFFFF0000) lor (v land 0xFFFF)
  | 1 -> t.reload <- (t.reload land 0xFFFF) lor ((v land 0xFFFF) lsl 16)
  | 2 ->
    disarm t;
    (match v land 3 with
     | 1 ->
       t.mode <- Periodic;
       arm t
     | 2 ->
       t.mode <- One_shot;
       arm t
     | _ -> t.mode <- Stopped)
  | _ -> ()

let attach t bus ~base =
  Io_bus.register bus ~name:"pit" ~base ~count:3 ~read:(io_read t)
    ~write:(io_write t)

let ticks_fired t = t.fired

(* Checkpoint support.  The phase is captured {e relative} (cycles until
   the pending expiry) so a restore at any later absolute time re-arms
   with the same offset — restores never rewind the engine clock. *)
type phase = { ph_reload : int; ph_mode : int; ph_remaining : int64 }

let capture_phase t =
  let ph_mode =
    match t.mode with Stopped -> 0 | Periodic -> 1 | One_shot -> 2
  in
  let ph_remaining =
    match t.handle with
    | None -> 0L
    | Some _ ->
      let due = Int64.add t.armed_at (period_cycles t) in
      let d = Int64.sub due (Engine.now t.engine) in
      if Int64.compare d 0L < 0 then 0L else d
  in
  { ph_reload = t.reload; ph_mode; ph_remaining }

let restore_phase t ph =
  disarm t;
  t.reload <- ph.ph_reload;
  t.mode <-
    (match ph.ph_mode with 1 -> Periodic | 2 -> One_shot | _ -> Stopped);
  match t.mode with
  | Stopped -> ()
  | Periodic | One_shot ->
    (* Backdate armed_at so current_count reads as it did at capture. *)
    t.armed_at <-
      Int64.sub
        (Int64.add (Engine.now t.engine) ph.ph_remaining)
        (period_cycles t);
    t.handle <-
      Some (Engine.after t.engine ~delay:ph.ph_remaining (fun () -> expire t))
