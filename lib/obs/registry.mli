(** Metrics registry: named gauges and histograms registered per
    subsystem, with a stable snapshot API and a Prometheus-style
    text exposition.

    Naming convention: [subsystem_name_unit] in [snake_case] —
    [scsi_reads_completed_total], [pic_delivery_latency_cycles],
    [nic_tx_queued_frames] (see docs/OBSERVABILITY.md).  Registration is
    idempotent: registering an existing name with the same kind returns
    the existing instrument; a kind mismatch raises [Invalid_argument].

    Histograms are owned by the registry (created on registration);
    gauges are callbacks sampled at snapshot/dump time, so a subsystem
    can expose an internal mutable field — a monotone count included —
    without handing out state.

    Registries are plain values: one per {!Vmm_hw.Machine} (and one per
    host-side session), never a process-wide singleton. *)

type t

type value =
  | Gauge of float
  | Histogram of {
      count : int;
      mean : float;
      p50 : float;
      p99 : float;
    }

val create : unit -> t

(** [gauge t name f] registers a gauge sampled via [f].  Re-registering
    replaces the callback (a reattached subsystem supersedes the old
    one).  [?help] sets the [# HELP] text (last registration wins; a
    readable default is derived from the name otherwise). *)
val gauge : ?help:string -> t -> string -> (unit -> float) -> unit

(** [int_gauge t name f] — convenience wrapper over {!gauge}. *)
val int_gauge : ?help:string -> t -> string -> (unit -> int) -> unit

(** [histogram t name ~buckets ~width] registers (or finds) a histogram
    covering [[0, buckets*width)] plus an overflow bucket. *)
val histogram :
  ?help:string -> t -> string -> buckets:int -> width:float ->
  Vmm_sim.Stats.histogram

(** [find_histogram t name] — the registered histogram, if any. *)
val find_histogram : t -> string -> Vmm_sim.Stats.histogram option

(** {2 Reading} *)

(** [names t] — registered names, sorted. *)
val names : t -> string list

(** [snapshot t] — every metric's current value, sorted by name.  Two
    snapshots with no intervening activity are equal (gauges must be
    pure reads for this to hold — theirs are). *)
val snapshot : t -> (string * value) list

(** [dump t] — Prometheus text exposition, sorted by name, trailing
    newline.  Every metric gets [# HELP] and [# TYPE] comments.
    Gauges emit one sample line; histograms emit the
    scrapeable shape: cumulative [name_bucket{le="<upper>"}] samples
    (the final bucket is [le="+Inf"] and equals [name_count]), then
    [name_sum] and [name_count]. *)
val dump : t -> string
