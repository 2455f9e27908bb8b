(** Event ring: a fixed-size ring of recent typed events, rendered to
    text only when someone reads it.

    The machine keeps two instances.  The {e flight ring} (default 512
    entries) holds the structured activity of the last moments —
    traps, IRQ deliveries, I/O and DMA activity, protocol frames,
    watchdog/chaos verdicts — and is dumped on crash/wedge into the
    crash bundle, or over the debug link via [qR].  The {e monitor
    log} (4096 entries) holds the monitor's rare status messages with
    their severity; it is separate so streaming traffic cannot evict
    them.

    {!note} stores the caller's typed {!detail} and does nothing else:
    no formatting, no I/O, and no allocation beyond the detail value
    itself.  An [Event] detail wraps the payload the caller already
    built for the replay recorder; [Reflect] and [Io] carry bare ints.
    Text is produced only by {!entries}, {!find} and {!dump}.  When
    the ring wraps, the oldest entries are overwritten and counted in
    {!dropped}: the ring always holds the {e last} [capacity] events
    before the dump, which is exactly the "last millisecond before it
    died" view. *)

type severity = Debug | Info | Warn | Error

(** What an entry says, kept unformatted until it is read. *)
type detail =
  | Event of Vmm_replay.Event.payload
      (** a record/replay event; renders as {!Vmm_replay.Event.pp_payload} *)
  | Reflect of { vector : int; pc : int; depth : int }
      (** trap reflected into the guest; renders
          [vector=%d pc=0x%x depth=%d] *)
  | Io of { port : int; pc : int }
      (** emulated port access; renders [port=0x%x pc=0x%x] *)
  | Text of string  (** already text (rare notes) *)

(** A rendered entry. *)
type entry = {
  cycle : int64;  (** engine time the event was recorded *)
  kind : string;  (** dot-separated source, e.g. [irq.deliver] *)
  severity : severity;
  detail : string;  (** the rendered {!detail} *)
}

type t

val default_capacity : int

(** [create ()] — an empty ring of [capacity] entries (default 512). *)
val create : ?capacity:int -> unit -> t

(** [note t ~cycle ~kind ?severity detail] records one event (severity
    default [Debug]), overwriting the oldest when full.  [kind] should
    be a static string: it is stored, not copied. *)
val note :
  t -> cycle:int64 -> kind:string -> ?severity:severity -> detail -> unit

(** [total t] — events ever recorded. *)
val total : t -> int

(** [retained t] — events currently in the ring. *)
val retained : t -> int

(** [dropped t] — events overwritten by wrap ([total - retained]). *)
val dropped : t -> int

(** [entries t] — retained entries, oldest first. *)
val entries : t -> entry list

(** [find ?min_severity t ~kind] — retained entries of [kind] at or
    above [min_severity] (default [Debug]: kind only), oldest first. *)
val find : ?min_severity:severity -> t -> kind:string -> entry list

val clear : t -> unit

val severity_to_string : severity -> string

(** [dump t] — self-describing text (the [qR] payload): a
    [flight total=… retained=… dropped=… capacity=…] header, then one
    [@cycle kind: detail] line per entry, oldest first. *)
val dump : t -> string
