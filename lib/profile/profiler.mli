(** Continuous PC-sampling profiler.

    The monitor samples the guest program counter every N guest cycles
    from the CPU dispatch loop — no cooperation from guest code and no
    dependence on the guest's own timer, so it keeps sampling a guest
    that masks interrupts or wedges.  Each sample is attributed to a
    (pc, ring, category) bucket: the ring is the guest's privilege level
    at the sample instant, the category is the monitor's current
    cycle-attribution category (see {!Vmm_sim.Stats.with_category}), so
    one profile answers both "where in the guest" and "guest code or
    monitor emulation".

    Sampling reads state and never advances the simulation clock or
    schedules events, so enabling it cannot perturb guest-visible
    behaviour — record/replay bit-equality holds with profiling on.

    The only report is {!dump}, the [qP] payload; readers parse it back
    with {!parse_dump} and fold the buckets as they need (the debugger
    CLI splits them per ring and per category). *)

(** One aggregate bucket key.  [k_cat] is the sample's
    {!Vmm_sim.Stats.category_name}. *)
type key = {
  k_pc : int;
  k_ring : int;
  k_cat : string;
}

type t

(** The default sampling period used by the CLI and benches when none is
    given: every 8192 guest cycles (~6.5 us at the simulated 1.26 GHz —
    ~154k samples per simulated second). *)
val default_period : int64

(** [create ()] — a disabled profiler (period 0). *)
val create : unit -> t

(** [period t] — sampling period in guest cycles; [0L] = disabled. *)
val period : t -> int64

(** [set_period t p] records the period ([0L] disables) that dumps
    report.  The cadence itself is the CPU's: [Machine.set_profiling]
    sets both.
    @raise Invalid_argument on a negative period. *)
val set_period : t -> int64 -> unit

(** [sample t ~pc ~ring ~cat] adds one sample to its bucket.  It
    allocates nothing once the bucket exists. *)
val sample : t -> pc:int -> ring:int -> cat:Vmm_sim.Stats.category -> unit

val total_samples : t -> int

(** [dump t] — self-describing text, the [qP] payload: a
    [samples=N period=P buckets=B] header line, then one
    [pc=0x… ring=R cat=C count=N] line per bucket, hottest first (ties
    by pc, ring, category). *)
val dump : t -> string

(** [parse_dump text] — parse {!dump} output back into (header fields,
    buckets); [None] when the header is missing. *)
val parse_dump : string -> ((string * string) list * (key * int) list) option
