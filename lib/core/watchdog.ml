module Engine = Vmm_sim.Engine

type config = { period_cycles : int64; max_stalled_periods : int }

let default_config = { period_cycles = 1_000_000L; max_stalled_periods = 5 }

type sample = {
  retired : int64;
  irq_acks : int;
  interruptible : bool;
  halted : bool;
  suspended : bool;
}

type t = {
  config : config;
  engine : Engine.t;
  sample : unit -> sample;
  on_wedge : stalled_periods:int -> unit;
  mutable prev : sample;
  mutable stalled : int;
  mutable running : bool;
  mutable handle : Vmm_sim.Event_queue.handle option;
  (* counters *)
  mutable checks : int;
  mutable stalled_total : int;
  mutable breakins : int;
}

(* The progress predicate.  A period is healthy when the guest acked a
   virtual interrupt, or is legitimately idle (halted with interrupts
   enabled, waiting for one), or retired instructions while it could
   still be interrupted.  Retiring instructions with interrupts masked
   does NOT count: a tight loop behind CLI is indistinguishable from a
   fault loop, and a real kernel never masks for whole watchdog periods.
   Halted with interrupts masked retires nothing and acks nothing — the
   classic hard wedge — and fails every clause. *)
let healthy ~prev ~cur =
  cur.irq_acks > prev.irq_acks
  || (cur.halted && cur.interruptible)
  || (Int64.compare cur.retired prev.retired > 0 && cur.interruptible)

let rec tick t =
  if t.running then begin
    t.checks <- t.checks + 1;
    let cur = t.sample () in
    if cur.suspended then
      (* Stopped by the debugger, crashed, or shut down: not the guest's
         fault that nothing moves.  Don't accumulate stall periods. *)
      t.stalled <- 0
    else if healthy ~prev:t.prev ~cur then t.stalled <- 0
    else begin
      t.stalled <- t.stalled + 1;
      t.stalled_total <- t.stalled_total + 1;
      if t.stalled >= t.config.max_stalled_periods then begin
        t.breakins <- t.breakins + 1;
        t.stalled <- 0;
        t.on_wedge ~stalled_periods:t.config.max_stalled_periods
      end
    end;
    t.prev <- cur;
    schedule t
  end

and schedule t =
  t.handle <-
    Some
      (Engine.after t.engine ~delay:t.config.period_cycles (fun () -> tick t))

let create ?(config = default_config) ~engine ~sample ~on_wedge () =
  if Int64.compare config.period_cycles 1L < 0 then
    invalid_arg "Watchdog.create: period_cycles";
  if config.max_stalled_periods < 1 then
    invalid_arg "Watchdog.create: max_stalled_periods";
  {
    config;
    engine;
    sample;
    on_wedge;
    prev = sample ();
    stalled = 0;
    running = false;
    handle = None;
    checks = 0;
    stalled_total = 0;
    breakins = 0;
  }

let start t =
  if not t.running then begin
    t.running <- true;
    t.prev <- t.sample ();
    t.stalled <- 0;
    schedule t
  end

let stop t =
  t.running <- false;
  (match t.handle with
   | Some h -> ignore (Engine.cancel t.engine h)
   | None -> ());
  t.handle <- None

(* Forget accumulated stall periods — called after a warm restart so the
   new guest gets a full grace window. *)
let note_reset t =
  t.stalled <- 0;
  t.prev <- t.sample ()

let running t = t.running
let stalled_periods t = t.stalled
let checks t = t.checks
let stalled_total t = t.stalled_total
let breakins t = t.breakins
