(** Cycle-attribution span tracer.

    Records begin/end spans in simulation time so every cycle of a run
    can be attributed to a category — guest-direct execution, the
    monitor's trap kinds, interrupt delivery, the debug stub, device DMA
    — and exported as Chrome trace-event JSON that opens directly in
    Perfetto or about:tracing (see docs/OBSERVABILITY.md for the
    category taxonomy).

    The tracer starts {e disabled}: every probe is a cheap early-return
    so instrumented hot paths pay one load and one branch.  Spans nest;
    each completed span contributes its {e exclusive} time (duration
    minus nested children) to its category, so the per-category
    breakdown never double-counts.  Unbalanced [end_span] calls are
    counted and ignored rather than corrupting the stack. *)

type t

(** [create ~engine ()] — spans are timestamped with [engine]'s clock.
    At most [capacity] events are retained (default 65536); later events
    are dropped and counted in {!dropped}. *)
val create : ?capacity:int -> engine:Vmm_sim.Engine.t -> unit -> t

val set_enabled : t -> bool -> unit
val enabled : t -> bool

(** [begin_span t ~cat name] opens a nested span on the CPU track.
    No-op while disabled. *)
val begin_span : t -> cat:string -> string -> unit

(** [end_span t] closes the innermost span.  With no span open, the call
    is ignored and counted in {!unbalanced_ends}. *)
val end_span : t -> unit

(** [with_span t ~cat name f] — [begin_span]/[f ()]/[end_span], closing
    the span even if [f] raises. *)
val with_span : t -> cat:string -> string -> (unit -> 'a) -> 'a

(** [instant t ~cat name] records a point event at the current time. *)
val instant : t -> cat:string -> string -> unit

(** [counter t ~cat name value] records a counter-track sample at the
    current time.  Counter events bypass the nesting stack and the
    category breakdown — they carry a value, not CPU time. *)
val counter : t -> cat:string -> string -> float -> unit

(** [add_complete t ?tid ~cat ~name ~start ~stop ()] records an
    already-timed span, e.g. an asynchronous device DMA whose completion
    time is known when it is scheduled.  [tid] selects the track
    (default the device-DMA track); these spans bypass the nesting stack and do
    not feed the category breakdown (device time is not CPU time). *)
val add_complete :
  t ->
  ?tid:int ->
  cat:string ->
  name:string ->
  start:int64 ->
  stop:int64 ->
  unit ->
  unit

(** {2 Introspection} *)

val event_count : t -> int

(** [depth t] — currently open spans. *)
val depth : t -> int

(** [flush_open_spans t] closes every open span at the current instant,
    innermost first, through the normal {!end_span} path (exclusive-time
    attribution stays exact).  Returns how many spans were flushed.
    Crash-bundle capture uses this so spans open at crash time land in
    the exported trace instead of being silently dropped. *)
val flush_open_spans : t -> int

val unbalanced_ends : t -> int
val dropped : t -> int

(** [breakdown t] — exclusive cycles per category over all {e closed}
    CPU-track spans, sorted by category name. *)
val breakdown : t -> (string * int64) list

(** [clear t] drops events, open spans and counters (enabled state and
    capacity survive). *)
val clear : t -> unit

(** {2 Export} *)

(** [to_chrome_json ?cpu_hz t] — a Chrome trace-event document
    ([{"traceEvents": [...], ...}]).  Timestamps are microseconds;
    [cpu_hz] (default 1.26e9, the simulated part) converts cycles.
    Open spans are not exported. *)
val to_chrome_json : ?cpu_hz:float -> t -> Json.t
