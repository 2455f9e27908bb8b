(** The host-side remote debugger session.

    Runs on the "host machine" of Fig 2.1: it owns the host end of the
    serial wire and exchanges protocol packets with the target's debug
    stub.  Because host and target share one simulation clock, every
    blocking call pumps the target machine forward in small slices until
    the reply (or a stop notification) arrives — the measured command
    latencies therefore include real wire serialization time. *)

type t

(** [attach machine] wires the session to the machine's UART (host side).
    Only one session (or host harness) can own the UART at a time.

    The session speaks the sequenced {!Vmm_proto.Reliable} protocol;
    [link_config] tunes its timeouts and retry budget.  [wrap_to_target]
    and [wrap_to_host] interpose on the raw byte streams (host->UART and
    UART->host respectively) — the fault harness uses them to model a
    lossy transport; the identity default is a perfect wire. *)
val attach :
  ?link_config:Vmm_proto.Reliable.config ->
  ?wrap_to_target:((int -> unit) -> int -> unit) ->
  ?wrap_to_host:((int -> unit) -> int -> unit) ->
  Vmm_hw.Machine.t ->
  t

(** {2 Synchronous commands} *)

val read_registers : ?timeout_s:float -> t -> int array option
val write_register : ?timeout_s:float -> t -> int -> int -> bool
val read_memory : ?timeout_s:float -> t -> addr:int -> len:int -> string option
val write_memory : ?timeout_s:float -> t -> addr:int -> data:string -> bool
val insert_breakpoint : ?timeout_s:float -> t -> int -> bool
val remove_breakpoint : ?timeout_s:float -> t -> int -> bool

(** [read_console t] drains the guest's console output (text written via
    the console hypercall or the virtualized serial port). *)
val read_console : ?timeout_s:float -> t -> string option

(** [read_profile_dump t] — the continuous profiler's report ([qP]): the
    raw {!Vmm_profile.Profiler.dump} text plus its parsed header fields
    ([samples], [period], [buckets]) and (key, count) buckets, hottest
    first. *)
val read_profile_dump :
  ?timeout_s:float ->
  t ->
  (string * (string * string) list * (Vmm_profile.Profiler.key * int) list)
  option

(** [query_watchdog t] — the monitor's lifecycle/watchdog report ([qW]):
    the raw text plus its parsed [key=value] fields.  Keys include
    [lifecycle], [cause]/[vector]/[pc]/[chain] when crashed, the
    [watchdog]/[checks]/[breakins] counters and [restarts]. *)
val query_watchdog :
  ?timeout_s:float -> t -> (string * (string * string) list) option

(** [query_verify t] — the monitor's load-time static-verification
    report ([qV]): the raw text plus its parsed [key=value] fields.
    Keys include [analysis] ([clean]/[dirty]/[off]), the [diags]/
    [instructions]/[blocks]/[functions]/[roots]/[summaries]/[races]
    counters, and the first diagnostics as [dN] fields.  With race
    witnessing armed the monitor appends a wire-compatible trailer
    ([witness]/[wsites]/[wwindows]/[wseen] and per-site [wN] tokens)
    which parses through the same [key=value] splitter. *)
val query_verify :
  ?timeout_s:float -> t -> (string * (string * string) list) option

(** [query_flight t] — the flight recorder ([qR]): the crash bundle when
    the target has crashed or wedged ({!Vmm_profile.Bundle} text), the
    live flight-ring dump otherwise. *)
val query_flight : ?timeout_s:float -> t -> string option

type restart_result =
  | Restarted
  | Refused  (** the target has no boot snapshot ([E0F]) *)
  | No_answer

(** [restart t] — warm-restart the guest from its boot snapshot ([R]).
    The session, the reliable link and planted breakpoints survive. *)
val restart : ?timeout_s:float -> t -> restart_result

(** Write watchpoints: the target stops when the guest stores into
    [addr, addr+len). *)
val insert_watchpoint : ?timeout_s:float -> t -> addr:int -> len:int -> bool

val remove_watchpoint : ?timeout_s:float -> t -> addr:int -> len:int -> bool

(** [query ?timeout_s t] — [Some reason] when stopped, [None] when the
    target reports running (or no answer arrived). *)
val query : ?timeout_s:float -> t -> Vmm_proto.Command.stop_reason option

(** [is_running ?timeout_s t] — explicit three-way wrapper over [?]. *)
val is_running : ?timeout_s:float -> t -> bool option

(** {2 Execution control} *)

(** [continue_ t] resumes the target; returns immediately.  The stub's
    single ack (OK, or E03 from a crashed target) is absorbed when it
    arrives and never disturbs later command/reply pairing; refusals
    show up in {!unsolicited_errors}. *)
val continue_ : t -> unit

(** [step ?timeout_s t] single-steps and waits for the stop report. *)
val step : ?timeout_s:float -> t -> Vmm_proto.Command.stop_reason option

(** [reverse_step ?timeout_s t] — [rs]: step backward one instruction
    (checkpoint restore + deterministic replay on the target) and wait
    for the landing report.  [None] also when the target refused (not
    stopped, or no checkpoint covers the boundary — see
    {!unsolicited_errors}). *)
val reverse_step :
  ?timeout_s:float -> t -> Vmm_proto.Command.stop_reason option

(** [reverse_continue ?timeout_s t] — [rc]: run backward; stops at the
    first breakpoint planted along the replayed path, else at the
    boundary just before the current stop (for a crashed guest, the
    exact pre-crash instruction). *)
val reverse_continue :
  ?timeout_s:float -> t -> Vmm_proto.Command.stop_reason option

(** [halt ?timeout_s t] stops the target and waits for the report. *)
val halt : ?timeout_s:float -> t -> Vmm_proto.Command.stop_reason option

(** [wait_stop ?timeout_s t] pumps until the target reports a stop
    (breakpoint hit, fault, ...). *)
val wait_stop : ?timeout_s:float -> t -> Vmm_proto.Command.stop_reason option

(** [detach ?timeout_s t] removes target breakpoints and resumes. *)
val detach : ?timeout_s:float -> t -> bool

(** {2 Link failure and recovery} *)

(** [link_up t] — false once this side's retry budget ran out (the peer
    may have concluded the same independently).  Blocking calls return
    [None]/[false] promptly instead of burning their timeout. *)
val link_up : t -> bool

(** [reconnect ?timeout_s t] restarts the ARQ state on both ends: resets
    the local endpoint, drops stale replies, and confirms with a Resync
    exchange.  Pending stop notifications survive (they describe real
    target state).  Returns true when the target confirmed. *)
val reconnect : ?timeout_s:float -> t -> bool

(** {2 Introspection} *)

(** [pending_stop t] — a stop notification that arrived unsolicited. *)
val pending_stop : t -> Vmm_proto.Command.stop_reason option

(** [unsolicited_errors t] — error replies to fire-and-forget commands:
    a crashed target refusing resume answers [c]/[s] with [E03], which
    must not shift the positional command/reply pairing. *)
val unsolicited_errors : t -> int

val packets_sent : t -> int
val packets_received : t -> int

(** [retransmissions t] — commands resent after a target NAK or an ack
    timeout. *)
val retransmissions : t -> int

val link_stats : t -> Vmm_proto.Reliable.counters

(** [link_downs t] — times this side declared the link dead. *)
val link_downs : t -> int

(** [last_latency_s t] — simulated seconds between the last command's
    transmission and its reply (E5 measures this under load). *)
val last_latency_s : t -> float

(** [register_metrics t registry] publishes the session's link health
    (packets, retransmits, resets, last command latency) as
    [hostlink_*] gauges — typically into the target machine's registry
    so one dump covers both ends of the wire. *)
val register_metrics : t -> Vmm_obs.Registry.t -> unit
