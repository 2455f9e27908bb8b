(** A seeded schedule of faults against a running debug setup.

    One plan owns one {!Vmm_sim.Rng} stream (split per armed fault so
    classes do not perturb each other) and one {!Chaos} wire.  {!arm}
    translates a fault class into concrete Engine events: a link window
    for link classes, a {!Core.Monitor.inject} for adversarial-guest
    classes, a device hook for the rest.  Everything is a function of
    (seed, schedule), so a failing stability run reproduces from the seed
    printed by the test.

    The plan owns all scheduling through cancellable Engine handles, so
    an arming can be withdrawn with {!disarm} before — or, for link
    windows, while — it fires.

    Overlap semantics: at most one live arming per class.  Re-arming a
    class disarms its predecessor first (last-writer-wins).  Distinct
    link classes whose windows overlap merge field-wise — each
    probability is the max over the active windows — so a drop window
    overlapping a dup window yields a wire that does both. *)

type fault_class =
  | Link_drop  (** bytes vanish from the debug wire *)
  | Link_corrupt  (** bytes are bit-flipped in transit *)
  | Link_dup  (** bytes arrive twice *)
  | Link_delay  (** bytes arrive late, possibly reordered *)
  | Guest_wild_jump  (** guest pc teleports outside its image *)
  | Guest_wild_store  (** guest store into monitor-reserved territory *)
  | Guest_iht_clobber  (** guest interrupt-handler table zeroed *)
  | Guest_ptb_clobber  (** guest page-table base loaded with garbage *)
  | Guest_irq_storm  (** a burst of virtual interrupts *)
  | Guest_wedge  (** interrupts off + halt *)
  | Scsi_error  (** disk reads fail at the medium *)
  | Nic_stall  (** the NIC wire refuses to serialize *)

(** Every class, in declaration order — the stability suite iterates
    this. *)
val all : fault_class list

val name : fault_class -> string

type t

val create : seed:int64 -> engine:Vmm_sim.Engine.t -> t

(** The plan's lossy wire; wrap the session's byte streams with
    [Chaos.wrap (chaos plan)] to expose them to the link classes. *)
val chaos : t -> Chaos.t

(** [arm t ~monitor fault ~at ~until] schedules [fault] (sim-time cycles).
    Link classes are active over [[at, until)]; guest and device classes
    trigger at [at] ([until] additionally sizes the NIC stall).  An
    earlier live arming of the same class is disarmed first. *)
val arm :
  t -> monitor:Core.Monitor.t -> fault_class -> at:int64 -> until:int64 -> unit

(** [disarm t cls] withdraws every live arming of [cls]: pending
    triggers are cancelled and an in-progress link window deactivates
    immediately.  Effects already delivered (an injected fault, a device
    hook that ran) stand.  True when something live was disarmed. *)
val disarm : t -> fault_class -> bool

(** [armed_classes t] — classes with a live arming: armed, not
    disarmed, and not yet spent (fired / window elapsed), in arm
    order. *)
val armed_classes : t -> fault_class list

(** [disarms t] — live armings withdrawn via {!disarm} or superseded by
    a re-arm. *)
val disarms : t -> int
