module Engine = Vmm_sim.Engine

let tx_ring_slots = 64
let mtu = 1500

(* An in-flight TX frame, materialized so checkpoints can capture the
   wire contents and re-arm the completion after a restore. *)
type tx_op = { txo_len : int; txo_buf : Bytes.t; txo_done_at : int64 }

type t = {
  engine : Engine.t;
  costs : Costs.t;
  mem : Phys_mem.t;
  mutable tx_addr : int;
  mutable tx_len : int;
  mutable queued : int; (* frames in the ring, not yet on the wire *)
  mutable inflight : tx_op list; (* submission order; length = queued *)
  mutable wire_busy_until : int64;
  mutable completions : int;
  mutable overflow : bool;
  mutable overflow_count : int;
  mutable frames_sent : int;
  mutable bytes_sent : int64;
  mutable irq : unit -> unit;
  mutable on_frame : bytes -> unit;
  mutable has_consumer : bool;
  mutable rx_tap : bytes -> unit;
  pool : Bytes.t Stack.t; (* recycled TX frame buffers, each mtu bytes *)
  rx : bytes Queue.t;
  mutable rx_addr : int;
  mutable tx_stalls : int;
  mutable stall_cycles : int64;
  mutable tracer : Vmm_obs.Tracer.t option;
  mutable epoch : int;
      (* bumped by [tx_reset]/[restore]; in-flight completion events compare
         their captured epoch and only recycle their buffer afterwards *)
}

let create ~engine ~costs ~mem () =
  {
    engine;
    costs;
    mem;
    tx_addr = 0;
    tx_len = 0;
    queued = 0;
    inflight = [];
    wire_busy_until = 0L;
    completions = 0;
    overflow = false;
    overflow_count = 0;
    frames_sent = 0;
    bytes_sent = 0L;
    irq = (fun () -> ());
    on_frame = (fun _ -> ());
    has_consumer = false;
    rx_tap = (fun _ -> ());
    pool = Stack.create ();
    rx = Queue.create ();
    rx_addr = 0;
    tx_stalls = 0;
    stall_cycles = 0L;
    tracer = None;
    epoch = 0;
  }

let set_irq t f = t.irq <- f

let set_on_frame t f =
  t.on_frame <- f;
  t.has_consumer <- true

let clear_on_frame t =
  t.on_frame <- (fun _ -> ());
  t.has_consumer <- false
let set_tracer t tracer = t.tracer <- Some tracer

let serialization_cycles t len =
  let seconds = float_of_int (8 * len) /. (t.costs.Costs.nic_gbps *. 1e9) in
  Int64.add
    (Int64.of_int t.costs.Costs.nic_setup_cycles)
    (Costs.cycles_of_seconds t.costs seconds)

(* Schedule a frame's wire completion.  The descriptor lives in
   [inflight] until the event fires, so checkpoints see the wire
   contents; the event is epoch-guarded so a reset/restore abandons it. *)
let arm_tx t ~buf ~len ~done_at =
  let op = { txo_len = len; txo_buf = buf; txo_done_at = done_at } in
  t.inflight <- t.inflight @ [ op ];
  let epoch = t.epoch in
  ignore
    (Engine.at t.engine ~time:done_at (fun () ->
         if t.epoch = epoch then begin
           t.inflight <- List.filter (fun o -> o != op) t.inflight;
           t.queued <- t.queued - 1;
           t.completions <- t.completions + 1;
           t.frames_sent <- t.frames_sent + 1;
           t.bytes_sent <- Int64.add t.bytes_sent (Int64.of_int len);
           (* Consumers may retain the frame, so they get a right-sized
              copy; benches never register one and pay no allocation. *)
           if t.has_consumer then t.on_frame (Bytes.sub buf 0 len);
           t.irq ()
         end;
         (* The buffer is recycled either way — a reset emptied the ring
            but the frame is no longer referenced. *)
         Stack.push buf t.pool))

let send t =
  if t.tx_len <= 0 || t.tx_len > mtu then t.overflow <- true
  else if t.queued >= tx_ring_slots then begin
    t.overflow <- true;
    t.overflow_count <- t.overflow_count + 1
  end
  else begin
    (* DMA the frame out immediately into a recycled buffer; serialization
       happens on the wire.  The ring bounds in-flight frames, so the pool
       stays at most [tx_ring_slots] buffers deep. *)
    let len = t.tx_len in
    let buf =
      match Stack.pop_opt t.pool with
      | Some b -> b
      | None -> Bytes.create mtu
    in
    Phys_mem.blit_to_bytes t.mem ~addr:t.tx_addr buf ~off:0 ~len;
    t.queued <- t.queued + 1;
    let now = Engine.now t.engine in
    let start =
      if Int64.compare t.wire_busy_until now > 0 then t.wire_busy_until else now
    in
    let done_at = Int64.add start (serialization_cycles t len) in
    t.wire_busy_until <- done_at;
    (match t.tracer with
     | Some tracer ->
       Vmm_obs.Tracer.add_complete tracer ~cat:"dma" ~name:"nic_tx" ~start
         ~stop:done_at ()
     | None -> ());
    arm_tx t ~buf ~len ~done_at
  end

(* Guest-visible TX-ring reset (command 3): drop every queued frame (their
   completion events are epoch-guarded no-ops now), clear pending
   completions and the overflow flag.  The wire itself is untouched — an
   armed stall keeps the wire busy; the reset just gives the driver an
   empty ring to refill behind it.  This is the driver's escape hatch from
   a TX stall that filled the ring. *)
let tx_reset t =
  t.epoch <- t.epoch + 1;
  t.inflight <- [];
  t.queued <- 0;
  t.completions <- 0;
  t.overflow <- false

let receive_into_buffer t =
  match Queue.take_opt t.rx with
  | None -> ()
  | Some frame -> Phys_mem.load_bytes t.mem ~addr:t.rx_addr frame

let inject_rx t frame =
  t.rx_tap frame;
  Queue.add (Bytes.copy frame) t.rx;
  t.irq ()

let set_rx_tap t f = t.rx_tap <- f

let io_read t offset =
  match offset with
  | 3 ->
    (if t.queued >= tx_ring_slots then 1 else 0)
    lor (if t.completions > 0 then 2 else 0)
    lor (if t.overflow then 4 else 0)
    lor (if Queue.is_empty t.rx then 0 else 8)
  | 5 -> t.frames_sent
  | 7 -> (match Queue.peek_opt t.rx with None -> 0 | Some f -> Bytes.length f)
  | 0 -> t.tx_addr
  | 1 -> t.tx_len
  | _ -> 0xFFFFFFFF

let io_write t offset v =
  match offset with
  | 0 -> t.tx_addr <- v
  | 1 -> t.tx_len <- v
  | 2 ->
    (match v land 3 with
     | 1 -> send t
     | 2 -> receive_into_buffer t
     | 3 -> tx_reset t
     | _ -> ())
  | 4 ->
    if v land 1 <> 0 && t.completions > 0 then
      t.completions <- t.completions - 1;
    if v land 2 <> 0 then t.overflow <- false
  | 6 -> t.rx_addr <- v
  | _ -> ()

let attach t bus ~base =
  Io_bus.register bus ~name:"nic" ~base ~count:8 ~read:(io_read t)
    ~write:(io_write t)

let frames_sent t = t.frames_sent
let bytes_sent t = t.bytes_sent
let overflows t = t.overflow_count

(* Fault injection: the wire refuses to serialize for [cycles]; frames
   submitted meanwhile queue behind the stall (and overflow the ring if
   the guest keeps pushing). *)
let stall_tx t ~cycles =
  if Int64.compare cycles 0L < 0 then invalid_arg "Nic.stall_tx: negative";
  let now = Engine.now t.engine in
  let resume = Int64.add now cycles in
  if Int64.compare resume t.wire_busy_until > 0 then begin
    (* Only the extension beyond already-queued serialization counts as
       stall time — the rest would have been wire-busy anyway. *)
    let busy_from =
      if Int64.compare t.wire_busy_until now > 0 then t.wire_busy_until
      else now
    in
    t.stall_cycles <- Int64.add t.stall_cycles (Int64.sub resume busy_from);
    t.wire_busy_until <- resume
  end;
  t.tx_stalls <- t.tx_stalls + 1

let tx_stalls t = t.tx_stalls
let stall_cycles t = t.stall_cycles
let tx_queued t = t.queued

(* Checkpoint support.  Wire and completion times are captured relative
   (cycles from capture) so a restore at a later absolute time re-arms
   the same serialization schedule; in-flight frames are deep-copied. *)
type tx_op_state = { xs_data : Bytes.t; xs_remaining : int64 }

type state = {
  n_tx_addr : int;
  n_tx_len : int;
  n_completions : int;
  n_overflow : bool;
  n_wire_remaining : int64;
  n_rx : Bytes.t list;
  n_rx_addr : int;
  n_inflight : tx_op_state list;
}

let capture t =
  let now = Engine.now t.engine in
  let rel at =
    let d = Int64.sub at now in
    if Int64.compare d 0L < 0 then 0L else d
  in
  {
    n_tx_addr = t.tx_addr;
    n_tx_len = t.tx_len;
    n_completions = t.completions;
    n_overflow = t.overflow;
    n_wire_remaining = rel t.wire_busy_until;
    n_rx = Queue.fold (fun acc f -> Bytes.copy f :: acc) [] t.rx |> List.rev;
    n_rx_addr = t.rx_addr;
    n_inflight =
      List.map
        (fun op ->
          {
            xs_data = Bytes.sub op.txo_buf 0 op.txo_len;
            xs_remaining = rel op.txo_done_at;
          })
        t.inflight;
  }

let restore t s =
  let now = Engine.now t.engine in
  t.epoch <- t.epoch + 1;
  t.inflight <- [];
  t.tx_addr <- s.n_tx_addr;
  t.tx_len <- s.n_tx_len;
  t.completions <- s.n_completions;
  t.overflow <- s.n_overflow;
  t.wire_busy_until <- Int64.add now s.n_wire_remaining;
  Queue.clear t.rx;
  List.iter (fun f -> Queue.add (Bytes.copy f) t.rx) s.n_rx;
  t.rx_addr <- s.n_rx_addr;
  t.queued <- List.length s.n_inflight;
  List.iter
    (fun xs ->
      let len = Bytes.length xs.xs_data in
      let buf =
        match Stack.pop_opt t.pool with Some b -> b | None -> Bytes.create mtu
      in
      Bytes.blit xs.xs_data 0 buf 0 len;
      arm_tx t ~buf ~len ~done_at:(Int64.add now xs.xs_remaining))
    s.n_inflight
