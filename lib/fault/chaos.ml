(* A lossy wire: wraps a byte sink and, while active, drops, corrupts,
   duplicates or delays each byte independently, drawing every decision
   from a seeded Rng stream so a failing run replays from its seed.

   Two draw disciplines share one RNG:

   - Live (no recorder, or recorder Off): the historical inline path.
     Rolls interleave with [sink] — the dup roll happens at DELIVERY
     time, after the byte has been sunk, so draws made by traffic the
     sink triggers synchronously (an ACK back through the other
     direction's wrap) land between this byte's delay and dup rolls,
     and a delayed byte's dup roll defers into its Engine callback.
     This keeps every pre-recorder seed (fault storm, --lossy REPL)
     byte-for-byte stable.

   - Record/Replay: the whole per-byte verdict (drop? corrupt-mask?
     delay? duplicate?) is drawn up-front in a fixed order and routed
     through the machine recorder: recording logs it, replaying
     substitutes the scripted verdict for the live RNG — so a recorded
     chaos campaign replays byte-for-byte.  Turning recording on
     therefore shifts the chaos stream for a given seed relative to a
     live run; record-mode runs are deterministic against each other
     and against their own replays, which is the property CI pins.

   Delayed bytes are re-submitted through an Engine event, so they can
   land behind later traffic — reordering is deliberately part of the
   menu; to the framing layer it reads as corruption and the ARQ layer
   must recover either way. *)

module Engine = Vmm_sim.Engine
module Rng = Vmm_sim.Rng
module Event = Vmm_replay.Event
module Recorder = Vmm_replay.Recorder

type profile = {
  drop_p : float;
  corrupt_p : float;
  dup_p : float;
  delay_p : float;
  max_delay_cycles : int;  (** uniform in [1, max] when a delay fires *)
}

let quiet =
  { drop_p = 0.0; corrupt_p = 0.0; dup_p = 0.0; delay_p = 0.0; max_delay_cycles = 1 }

let check_profile p =
  let bad x = x < 0.0 || x > 1.0 in
  if bad p.drop_p || bad p.corrupt_p || bad p.dup_p || bad p.delay_p then
    invalid_arg "Chaos: probabilities must be in [0,1]";
  if p.max_delay_cycles < 1 then invalid_arg "Chaos: max_delay_cycles < 1"

type counters = {
  mutable passed : int;
  mutable dropped : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable delayed : int;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable active : bool;
  mutable profile : profile;
  mutable recorder : Recorder.t option;
  counters : counters;
}

let create ~engine ~rng () =
  {
    engine;
    rng;
    active = false;
    profile = quiet;
    recorder = None;
    counters =
      { passed = 0; dropped = 0; corrupted = 0; duplicated = 0; delayed = 0 };
  }

let set_profile t p =
  check_profile p;
  t.profile <- p

let set_active t flag = t.active <- flag
let set_recorder t r = t.recorder <- Some r

let stats t = t.counters

let roll t p = p > 0.0 && Rng.float t.rng 1.0 < p

(* The verdict for one byte, drawn in a FIXED order (drop, corrupt,
   delay, dup) so a given seed always spends the same number of draws
   per byte regardless of which branches fire.  Record/Replay path
   only — the live path below interleaves its rolls with the sink. *)
let draw_verdict t =
  if roll t t.profile.drop_p then Event.Drop
  else
    let mask =
      (* xor with a uniform nonzero mask: guaranteed to differ *)
      if roll t t.profile.corrupt_p then 1 + Rng.int t.rng 255 else 0
    in
    let delay =
      if roll t t.profile.delay_p then 1 + Rng.int t.rng t.profile.max_delay_cycles
      else 0
    in
    let dup = roll t t.profile.dup_p in
    Event.Deliver { mask; dup; delay }

let apply t sink byte verdict =
  match verdict with
  | Event.Drop -> t.counters.dropped <- t.counters.dropped + 1
  | Event.Deliver { mask; dup; delay } ->
    if mask <> 0 then t.counters.corrupted <- t.counters.corrupted + 1;
    let byte = byte lxor mask in
    let deliver () =
      t.counters.passed <- t.counters.passed + 1;
      sink byte;
      if dup then begin
        t.counters.duplicated <- t.counters.duplicated + 1;
        sink byte
      end
    in
    if delay > 0 then begin
      t.counters.delayed <- t.counters.delayed + 1;
      ignore (Engine.after t.engine ~delay:(Int64.of_int delay) deliver)
    end
    else deliver ()

(* The historical live path, draw-for-draw identical to the
   pre-recorder wire.  Do NOT reorder these rolls: the dup roll sits
   after [sink byte] on purpose (see the header comment). *)
let wrap_live t sink byte =
  if roll t t.profile.drop_p then t.counters.dropped <- t.counters.dropped + 1
  else begin
    let byte =
      if roll t t.profile.corrupt_p then begin
        t.counters.corrupted <- t.counters.corrupted + 1;
        (* xor with a uniform nonzero mask: guaranteed to differ *)
        byte lxor (1 + Rng.int t.rng 255)
      end
      else byte
    in
    let deliver () =
      t.counters.passed <- t.counters.passed + 1;
      sink byte;
      if roll t t.profile.dup_p then begin
        t.counters.duplicated <- t.counters.duplicated + 1;
        sink byte
      end
    in
    if roll t t.profile.delay_p then begin
      t.counters.delayed <- t.counters.delayed + 1;
      let delay = Int64.of_int (1 + Rng.int t.rng t.profile.max_delay_cycles) in
      ignore (Engine.after t.engine ~delay deliver)
    end
    else deliver ()
  end

let wrap ?(source = "chaos") t sink =
  fun byte ->
    if not t.active then begin
      t.counters.passed <- t.counters.passed + 1;
      sink byte
    end
    else
      match t.recorder with
      | Some recorder when Recorder.mode recorder <> Recorder.Off ->
        let verdict =
          Recorder.decide_chaos recorder ~cycle:(Engine.now t.engine) ~source
            ~roll:(fun () -> draw_verdict t)
        in
        apply t sink byte verdict
      | _ -> wrap_live t sink byte
