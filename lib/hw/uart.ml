module Engine = Vmm_sim.Engine

type t = {
  engine : Engine.t;
  costs : Costs.t;
  rx : int Queue.t;
  mutable irq : unit -> unit;
  mutable on_tx : int -> unit;
  mutable ier : int;
  mutable tx_busy_until : int64;
  mutable tx_in_flight : int;
  mutable rx_tap : int -> unit;
}

let create ~engine ~costs () =
  {
    engine;
    costs;
    rx = Queue.create ();
    irq = (fun () -> ());
    on_tx = (fun _ -> ());
    ier = 0;
    tx_busy_until = 0L;
    tx_in_flight = 0;
    rx_tap = (fun _ -> ());
  }

let set_irq t f = t.irq <- f
let set_on_tx t f = t.on_tx <- f
let set_rx_tap t f = t.rx_tap <- f

let inject_rx t byte =
  let byte = byte land 0xFF in
  t.rx_tap byte;
  Queue.add byte t.rx;
  if t.ier land 1 <> 0 then t.irq ()

let transmit t byte =
  let now = Engine.now t.engine in
  let start = if Int64.compare t.tx_busy_until now > 0 then t.tx_busy_until else now in
  let done_at = Int64.add start (Int64.of_int t.costs.Costs.uart_cycles_per_byte) in
  t.tx_busy_until <- done_at;
  t.tx_in_flight <- t.tx_in_flight + 1;
  ignore
    (Engine.at t.engine ~time:done_at (fun () ->
         t.tx_in_flight <- t.tx_in_flight - 1;
         t.on_tx byte))

let io_read t offset =
  match offset with
  | 0 -> (try Queue.pop t.rx with Queue.Empty -> 0)
  | 1 ->
    (if Queue.is_empty t.rx then 0 else 1)
    lor (if t.tx_in_flight = 0 then 2 else 0)
  | 2 -> t.ier
  | _ -> 0xFFFFFFFF

let io_write t offset v =
  match offset with
  | 0 -> transmit t (v land 0xFF)
  | 2 ->
    t.ier <- v land 1;
    if t.ier land 1 <> 0 && not (Queue.is_empty t.rx) then t.irq ()
  | _ -> ()

let attach t bus ~base =
  Io_bus.register bus ~name:"uart" ~base ~count:3 ~read:(io_read t)
    ~write:(io_write t)
