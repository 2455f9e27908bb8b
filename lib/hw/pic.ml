type t = {
  mutable vector_base : int;
  mutable request : int;
  mutable service : int;
  mutable mask : int;
  mutable intr : bool -> unit;
  mutable intr_level : bool;
  (* delivery-latency probe: raise -> ack time per line *)
  mutable probe_now : (unit -> int64) option;
  mutable probe_observe : float -> unit;
  raised_at : int64 array;
  mutable raises : int;
  mutable acks : int;
}

let lines = 8

let create ?(vector_base = Isa.vec_irq_base_default) () =
  {
    vector_base;
    request = 0;
    service = 0;
    mask = 0;
    intr = (fun _ -> ());
    intr_level = false;
    probe_now = None;
    probe_observe = (fun _ -> ());
    raised_at = Array.make lines 0L;
    raises = 0;
    acks = 0;
  }

let set_latency_probe t ~now ~observe =
  t.probe_now <- Some now;
  t.probe_observe <- observe

(* The lowest set line of [v] at or above [i], or -1. *)
let rec lowest_bit v i =
  if i >= lines then -1 else if v land (1 lsl i) <> 0 then i else lowest_bit v (i + 1)

(* The line an acknowledge would take, or -1.  A request is deliverable
   when unmasked and of strictly higher priority (lower line number) than
   everything currently in service. *)
let deliverable t =
  let line = lowest_bit (t.request land lnot t.mask) 0 in
  let s = lowest_bit t.service 0 in
  if line >= 0 && (s < 0 || line < s) then line else -1

(* Every write to [request], [service] or [mask] ends here, so
   [intr_level] is always the current deliverability. *)
let update_intr t =
  let level = deliverable t >= 0 in
  if level <> t.intr_level then begin
    t.intr_level <- level;
    t.intr level
  end

let set_intr t f =
  t.intr <- f;
  f t.intr_level

let raise_irq t line =
  if line < 0 || line >= lines then invalid_arg "Pic.raise_irq";
  t.raises <- t.raises + 1;
  (* Stamp only a fresh request: re-raising a still-pending line keeps
     the original time, so latency measures raise-to-ack, not last-kick
     to ack. *)
  (match t.probe_now with
   | Some now when t.request land (1 lsl line) = 0 ->
     t.raised_at.(line) <- now ()
   | Some _ | None -> ());
  t.request <- t.request lor (1 lsl line);
  update_intr t

let pending t = t.intr_level

let ack t =
  let line = deliverable t in
  if line < 0 then None
  else begin
    t.request <- t.request land lnot (1 lsl line);
    t.service <- t.service lor (1 lsl line);
    t.acks <- t.acks + 1;
    (match t.probe_now with
     | Some now ->
       t.probe_observe
         (Int64.to_float (Int64.sub (now ()) t.raised_at.(line)))
     | None -> ());
    update_intr t;
    Some (t.vector_base + line)
  end

let vector_base t = t.vector_base

(* Retires the highest-priority line in service, the lowest set bit. *)
let eoi t =
  t.service <- t.service land (t.service - 1);
  update_intr t

let io_read t offset =
  match offset with
  | 0 -> t.service
  | 1 -> t.mask
  | 2 -> t.vector_base
  | _ -> 0xFFFFFFFF

let io_write t offset v =
  match offset with
  | 0 -> if v land 0xFF = 0x20 then eoi t
  | 1 ->
    t.mask <- v land 0xFF;
    update_intr t
  | 2 -> t.vector_base <- v land 0x3F
  | _ -> ()

(* Checkpoint support: the four programming registers are the whole
   guest-visible state (INTR is derived; telemetry is monitor-side). *)
type state = {
  st_vector_base : int;
  st_request : int;
  st_service : int;
  st_mask : int;
}

let capture t =
  {
    st_vector_base = t.vector_base;
    st_request = t.request;
    st_service = t.service;
    st_mask = t.mask;
  }

let restore t s =
  t.vector_base <- s.st_vector_base;
  t.request <- s.st_request;
  t.service <- s.st_service;
  t.mask <- s.st_mask;
  update_intr t

let attach t bus ~base =
  Io_bus.register bus ~name:"pic" ~base ~count:3 ~read:(io_read t)
    ~write:(io_write t)

let requested t = t.request
let mask t = t.mask
let raises t = t.raises
let acks t = t.acks
