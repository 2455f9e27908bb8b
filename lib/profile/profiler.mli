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

    Symbolization is the caller's business: reports accept a [resolve]
    callback (pc to frame name) so this library depends on nothing but
    the simulator core, and CFG/symbol attribution plugs in from the
    debugger side. *)

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

(** [create ~engine ()] — a disabled profiler (period 0).  The newest
    [recent_capacity] samples (default 4096) are additionally retained
    time-stamped for the Perfetto counter export. *)
val create : ?recent_capacity:int -> engine:Vmm_sim.Engine.t -> unit -> t

(** [period t] — sampling period in guest cycles; [0L] = disabled. *)
val period : t -> int64

val enabled : t -> bool

(** [set_period t p] records the period ([0L] disables) that dumps
    report.  The cadence itself is the CPU's: [Machine.set_profiling]
    sets both.
    @raise Invalid_argument on a negative period. *)
val set_period : t -> int64 -> unit

(** [sample t ~pc ~ring ~cat] records one sample at the current engine
    time. *)
val sample : t -> pc:int -> ring:int -> cat:Vmm_sim.Stats.category -> unit

val total_samples : t -> int

(** {2 Aggregates} *)

(** [buckets t] — (key, count), hottest first. *)
val buckets : t -> (key * int) list

(** [by_pc t] — per-pc totals over all rings/categories, hottest first
    (the per-pc view a host session reads back). *)
val by_pc : t -> (int * int) list

(** [by_ring t] — per-privilege-ring totals, sorted by ring. *)
val by_ring : t -> (int * int) list

(** [by_category t] — per-attribution-category totals, sorted by name. *)
val by_category : t -> (string * int) list

(** [clear t] drops all samples (period and cadence survive). *)
val clear : t -> unit

(** {2 Reports} *)

(** [dump t] — self-describing text, the [qP] payload: a
    [samples=N period=P buckets=B] header line, then one
    [pc=0x… ring=R cat=C count=N] line per bucket, hottest first. *)
val dump : t -> string

(** [parse_dump text] — parse {!dump} output back into (header fields,
    buckets); [None] when the header is missing. *)
val parse_dump : string -> ((string * string) list * (key * int) list) option

(** [collapsed ?resolve t] — collapsed-stack ("folded") text for
    flame-graph tooling: one [cat;ring<r>;<frame> <count>] line per
    bucket.  [resolve] maps pc to frame name (default hex). *)
val collapsed : ?resolve:(int -> string) -> t -> string

(** [perfetto_counters ?cpu_hz ?slices t] — a Chrome trace-event
    document of counter ("C") tracks built from the recent-sample ring:
    per-ring and per-category sample rates over [slices] time buckets
    (default 64).  Merges cleanly next to {!Vmm_obs.Tracer.to_chrome_json}
    output. *)
val perfetto_counters : ?cpu_hz:float -> ?slices:int -> t -> Vmm_obs.Json.t
