(** Measurement helpers: busy-time (CPU load) accounting and
    fixed-bucket histograms.

    CPU load is defined as in the paper's Fig 3.1: the fraction of elapsed
    cycles during which the processor was doing work (guest code, monitor
    emulation, interrupt handling) rather than halted.  The busy side is
    accumulated here; [Machine.utilization] divides it by a window. *)

(** {1 Busy-time accounting} *)

type load

(** [load ()] is a fresh accumulator with zero busy time, attributing to
    [Guest]. *)
val load : unit -> load

(** [note_busy load cycles] records [cycles] of non-idle execution,
    attributed to the current category.  Totals are native [int]s in an
    array indexed by category, so this allocates nothing. *)
val note_busy : load -> int64 -> unit

(** {2 Cycle attribution}

    Every busy cycle lands in exactly one category (the one current when
    it is charged), so the per-category totals always sum to
    {!busy_cycles} — the invariant the Fig 3.1 breakdown relies on.  The
    monitor switches category around its trap handlers; code that never
    runs under {!with_category} books everything to [Guest].  The set is
    closed: its names are the cycle-attribution taxonomy of
    docs/OBSERVABILITY.md, and they name the tracer's CPU-track spans,
    the profiler's buckets and the [sim.busy.*] benchmark metrics. *)
type category =
  | Guest  (** ["guest"]: direct guest execution (the default) *)
  | Mon_cpu
      (** ["mon_cpu"]: privileged-instruction emulation, hypercalls,
          GP/undefined/machine-check handling *)
  | Mon_io  (** ["mon_io"]: trapped port I/O emulation *)
  | Mon_pic  (** ["mon_pic"]: virtual interrupt-controller emulation *)
  | Mon_pit  (** ["mon_pit"]: virtual timer emulation *)
  | Mon_shadow
      (** ["mon_shadow"]: shadow page-table fills and page-fault handling *)
  | Irq
      (** ["irq"]: interrupt delivery, reflection into the guest's
          handler table *)
  | Stub  (** ["stub"]: the in-monitor debug stub and its serial link *)

(** [category_name c] — the lowercase name above. *)
val category_name : category -> string

(** [category_index c] — [c]'s position in {!categories}, in [0, 8). *)
val category_index : category -> int

(** Every category, in {!category_index} order. *)
val categories : category array

(** [category load] — the current attribution category. *)
val category : load -> category

(** [with_category load cat f] runs [f] with the category switched to
    [cat].  On return, or when [f] raises, it restores the previous
    category; an exception propagates with its backtrace.  A call
    allocates nothing beyond [f]'s own closure. *)
val with_category : load -> category -> (unit -> 'a) -> 'a

(** [busy_by_category load] — nonzero per-category busy cycles keyed by
    {!category_name}, sorted by name.  The values sum to
    {!busy_cycles}. *)
val busy_by_category : load -> (string * int64) list

(** [busy_cycles load] is the accumulated busy time. *)
val busy_cycles : load -> int64

(** {1 Histograms} *)

type histogram

(** [histogram ~buckets ~width] covers [\[0, buckets*width)] plus an
    overflow bucket. *)
val histogram : buckets:int -> width:float -> histogram

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_mean : histogram -> float

(** [histogram_sum h] — the running sum of every observed value (the
    Prometheus [_sum] sample). *)
val histogram_sum : histogram -> float

(** [histogram_width h] — the fixed bucket width, from which the
    cumulative [le] upper bounds derive: bucket [i] covers values
    [< (i+1) * width], the final bucket is unbounded ([+Inf]). *)
val histogram_width : histogram -> float

(** [bucket_counts h] includes the final overflow bucket. *)
val bucket_counts : histogram -> int array

(** [percentile h p] approximates the [p]-th percentile ([0 <= p <= 100])
    from bucket midpoints; 0 on an empty histogram.

    The overflow bucket is unbounded, so a percentile landing there is
    reported as the midpoint of a {e nominal} extra bucket,
    [(buckets + 0.5) * width] — an underestimate whenever real
    observations exceed [(buckets + 1) * width].  Size histograms so the
    percentiles you care about stay out of overflow. *)
val percentile : histogram -> float -> float

(** [reset_histogram h] zeroes every bucket, the count and the sum. *)
val reset_histogram : histogram -> unit
