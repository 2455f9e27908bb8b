(* A seeded schedule of faults against a running debug setup.

   One Plan owns one Rng stream (split per armed fault so classes do not
   perturb each other) and one Chaos wire.  [arm] translates a fault
   class into concrete Engine events: a link window for link classes, a
   Monitor.inject for adversarial-guest classes, a device hook for the
   rest.  Everything is a function of (seed, schedule), so a failing
   stability run reproduces from the seed printed by the test.

   The plan — not Chaos — owns all scheduling, through cancellable
   Engine handles, so armings can be disarmed before (or, for link
   windows, while) they fire.  Overlap semantics: at most one live
   arming per class (re-arming a class disarms its predecessor —
   last-writer-wins); distinct link classes active at the same time
   merge field-wise (each probability is the max over active windows),
   so a drop window overlapping a dup window yields a wire that does
   both. *)

module Engine = Vmm_sim.Engine
module Rng = Vmm_sim.Rng
module Machine = Vmm_hw.Machine
module Scsi = Vmm_hw.Scsi
module Nic = Vmm_hw.Nic
module Monitor = Core.Monitor

type fault_class =
  | Link_drop
  | Link_corrupt
  | Link_dup
  | Link_delay
  | Guest_wild_jump
  | Guest_wild_store
  | Guest_iht_clobber
  | Guest_ptb_clobber
  | Guest_irq_storm
  | Guest_wedge
  | Scsi_error
  | Nic_stall

let all =
  [
    Link_drop; Link_corrupt; Link_dup; Link_delay;
    Guest_wild_jump; Guest_wild_store; Guest_iht_clobber; Guest_ptb_clobber;
    Guest_irq_storm; Guest_wedge;
    Scsi_error; Nic_stall;
  ]

let name = function
  | Link_drop -> "link-drop"
  | Link_corrupt -> "link-corrupt"
  | Link_dup -> "link-dup"
  | Link_delay -> "link-delay"
  | Guest_wild_jump -> "guest-wild-jump"
  | Guest_wild_store -> "guest-wild-store"
  | Guest_iht_clobber -> "guest-iht-clobber"
  | Guest_ptb_clobber -> "guest-ptb-clobber"
  | Guest_irq_storm -> "guest-irq-storm"
  | Guest_wedge -> "guest-wedge"
  | Scsi_error -> "scsi-error"
  | Nic_stall -> "nic-stall"

let is_link = function
  | Link_drop | Link_corrupt | Link_dup | Link_delay -> true
  | _ -> false

(* One live arming.  [handles] are the pending Engine events (window
   edges, or the single trigger); [spent] flips when the arming can no
   longer have any future effect — fired (one-shots) or past its window
   (link classes). *)
type arming = {
  cls : fault_class;
  profile : Chaos.profile option;  (* Some for link classes *)
  until : int64;
  mutable handles : Vmm_sim.Event_queue.handle list;
  mutable disarmed : bool;
  mutable spent : bool;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  chaos : Chaos.t;
  mutable disarms : int;
  mutable armings : arming list;  (* arm order, oldest first *)
}

let create ~seed ~engine =
  let rng = Rng.create ~seed in
  let chaos = Chaos.create ~engine ~rng:(Rng.split rng) () in
  { engine; rng; chaos; disarms = 0; armings = [] }

let chaos t = t.chaos
let disarms t = t.disarms

let live a = (not a.disarmed) && not a.spent

let armed_classes t = List.map (fun a -> a.cls) (List.filter live t.armings)

(* Recompute the Chaos wire from the link windows active right now:
   field-wise max over their profiles, active iff any window covers the
   current time.  Called from every window edge and from disarm, so the
   wire always reflects exactly the live armings. *)
let refresh_link t =
  let now = Engine.now t.engine in
  let merge acc p =
    {
      Chaos.drop_p = Float.max acc.Chaos.drop_p p.Chaos.drop_p;
      corrupt_p = Float.max acc.Chaos.corrupt_p p.Chaos.corrupt_p;
      dup_p = Float.max acc.Chaos.dup_p p.Chaos.dup_p;
      delay_p = Float.max acc.Chaos.delay_p p.Chaos.delay_p;
      max_delay_cycles =
        Int.max acc.Chaos.max_delay_cycles p.Chaos.max_delay_cycles;
    }
  in
  let active_profiles =
    List.filter_map
      (fun a ->
        match a.profile with
        | Some p when live a && Int64.compare now a.until < 0 -> Some p
        | _ -> None)
      t.armings
  in
  match active_profiles with
  | [] ->
    Chaos.set_active t.chaos false;
    Chaos.set_profile t.chaos Chaos.quiet
  | ps ->
    Chaos.set_profile t.chaos (List.fold_left merge Chaos.quiet ps);
    Chaos.set_active t.chaos true

(* Moderate per-byte probabilities: high enough that a window over a few
   packet exchanges is all but certain to hit, low enough that the retry
   budget beats the noise. *)
let link_profile rng fault =
  let p () = 0.02 +. Rng.float rng 0.04 in
  match fault with
  | Link_drop -> { Chaos.quiet with Chaos.drop_p = p () }
  | Link_corrupt -> { Chaos.quiet with Chaos.corrupt_p = p () }
  | Link_dup -> { Chaos.quiet with Chaos.dup_p = 0.05 +. Rng.float rng 0.1 }
  | Link_delay ->
    {
      Chaos.quiet with
      Chaos.delay_p = 0.05 +. Rng.float rng 0.1;
      Chaos.max_delay_cycles = 200_000 + Rng.int rng 200_000;
    }
  | _ -> invalid_arg "Plan.link_profile: not a link fault"

let cancel_handles t a =
  List.iter (fun h -> ignore (Engine.cancel t.engine h : bool)) a.handles;
  a.handles <- []

let disarm_arming t a =
  if live a then begin
    a.disarmed <- true;
    cancel_handles t a;
    t.disarms <- t.disarms + 1;
    if is_link a.cls then refresh_link t
  end

let disarm t cls =
  let hit = List.exists (fun a -> a.cls = cls && live a) t.armings in
  List.iter (fun a -> if a.cls = cls then disarm_arming t a) t.armings;
  hit

let arm t ~monitor fault ~at ~until =
  if Int64.compare until at < 0 then invalid_arg "Plan.arm: until < at";
  (* Last-writer-wins: a re-arm supersedes the class's previous live
     arming entirely, rather than stacking with it. *)
  List.iter
    (fun a -> if a.cls = fault && live a then disarm_arming t a)
    t.armings;
  let rng = Rng.split t.rng in
  let machine = Monitor.machine monitor in
  let profile =
    if is_link fault then Some (link_profile rng fault) else None
  in
  let arming =
    { cls = fault; profile; until; handles = []; disarmed = false; spent = false }
  in
  t.armings <- t.armings @ [ arming ];
  let one_shot f =
    let h =
      Engine.at t.engine ~time:at (fun () ->
          arming.spent <- true;
          arming.handles <- [];
          f ())
    in
    arming.handles <- [ h ]
  in
  let inject f = one_shot (fun () -> Monitor.inject monitor f) in
  match fault with
  | Link_drop | Link_corrupt | Link_dup | Link_delay ->
    let h_start = Engine.at t.engine ~time:at (fun () -> refresh_link t) in
    let h_stop =
      Engine.at t.engine ~time:until (fun () ->
          arming.spent <- true;
          arming.handles <- [];
          refresh_link t)
    in
    arming.handles <- [ h_start; h_stop ]
  | Guest_wild_jump ->
    (* an address far outside the mapped image *)
    inject (Monitor.Wild_jump (0x0F00_0000 lor Rng.int rng 0xFFFF))
  | Guest_wild_store ->
    (* aims at monitor-reserved territory: the shadow tables' home *)
    inject (Monitor.Wild_store (0x0FF0_0000 lor Rng.int rng 0xFFFF))
  | Guest_iht_clobber -> inject Monitor.Iht_clobber
  | Guest_ptb_clobber -> inject Monitor.Ptb_clobber
  | Guest_irq_storm ->
    inject
      (Monitor.Irq_storm
         { lines = 2 + Rng.int rng 6; rounds = 50 + Rng.int rng 200 })
  | Guest_wedge -> inject Monitor.Guest_wedge
  | Scsi_error ->
    one_shot (fun () ->
        Scsi.inject_read_errors (Machine.scsi machine) (1 + Rng.int rng 4))
  | Nic_stall ->
    one_shot (fun () ->
        let cycles = Int64.sub until at in
        Nic.stall_tx (Machine.nic machine) ~cycles)
