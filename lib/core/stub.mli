(** The monitor's remote-debugging function ("stub").

    Lives inside the monitor, owns the communication device, speaks the
    {!Vmm_proto} protocol with the host debugger, and controls the guest
    through a narrow {!target} interface: registers, memory, stop/resume
    and the single-step flag.

    Breakpoints never mutate guest memory: armed pages are mapped
    no-execute in the shadow tables and the monitor fields the exec
    faults (see {!Breakpoints}), so [m]/[M] pass straight through and
    the guest can neither observe nor corrupt its breakpoints. *)

(** What the stub needs from the monitor/machine. *)
type target = {
  read_registers : unit -> int array;
      (** 18 guest-visible words: r0-r15, pc, flags *)
  write_register : int -> int -> bool;
  read_memory : addr:int -> len:int -> string option;
      (** guest-virtual addressing; [None] when unmapped *)
  write_memory : addr:int -> data:string -> bool;
  current_pc : unit -> int;
  stop : unit -> unit;  (** freeze guest execution *)
  resume : unit -> unit;
  set_step : bool -> unit;  (** guest trap flag *)
  set_watch : addr:int -> len:int -> bool;
      (** install a write watchpoint (shadow-page protection) *)
  clear_watch : addr:int -> len:int -> bool;
  read_console : unit -> string;
      (** drain the guest's console output captured by the monitor *)
  read_profile : unit -> string;
      (** the continuous profiler's textual sample dump
          ({!Vmm_profile.Profiler.dump} format), hottest first *)
  send_byte : int -> unit;  (** transmit on the debug link *)
  charge : int -> unit;  (** book monitor cycles *)
  note_flight : string -> unit;
      (** record one decoded protocol frame in the flight ring *)
  query_watchdog : unit -> string;
      (** the monitor's lifecycle/watchdog report for [qW] *)
  query_verify : unit -> string;
      (** the monitor's load-time static-verification report for [qV] *)
  query_flight : unit -> string;
      (** the flight-recorder dump for [qR]: crash bundle when crashed
          or wedged, live flight ring otherwise *)
  restart : unit -> bool;
      (** warm-restart the guest from its boot snapshot; false when no
          snapshot exists *)
  crashed : unit -> bool;
      (** the guest is quarantined ([Crashed]); resume must be refused *)
  retired : unit -> int64;
      (** instructions retired so far — the reverse-debug time axis *)
  checkpoint_restore : max_retired:int64 -> int64 option;
      (** restore the newest checkpoint at or before [max_retired]
          retirements; returns the restored boundary, [None] when no
          eligible checkpoint exists *)
  set_retire_stop : int64 option -> unit;
      (** arm/disarm a stop at an absolute retirement count
          (replay-to-N); the monitor routes the landing back through
          {!on_retire_stop} *)
  set_replay_mute : bool -> unit;
      (** mute the machine recorder while re-executing replayed history
          so it is not logged twice *)
  vbp_arm : page:int -> unit;
      (** a virtual breakpoint was armed at this address: drop the
          page's shadow mapping so the next fetch refills no-execute
          (the NX decision is recomputed from the table at fill time) *)
  vbp_disarm : page:int -> unit;
      (** a virtual breakpoint was removed at this address: resync the
          page's shadow mapping the same way — the refill re-arms only
          if other sites remain on the page *)
  vbp_pass : pc:int -> unit;
      (** grant a one-shot pass: the next exec fault landing exactly on
          [pc] is stepped through instead of reported, so resuming off a
          virtual-breakpoint hit makes progress without disarming it *)
}

type t

(** [create ~target ~dispatch_cost ~engine ()] — [dispatch_cost] cycles
    are charged per decoded command.  The stub talks through a
    {!Vmm_proto.Reliable} endpoint whose retransmission timers run on
    [engine]; [link_config] tunes its timeouts and retry budget. *)
val create :
  ?link_config:Vmm_proto.Reliable.config ->
  target:target ->
  dispatch_cost:int ->
  engine:Vmm_sim.Engine.t ->
  unit ->
  t

(** {2 Events from the monitor} *)

(** [on_rx_byte t byte] — a byte arrived on the debug link. *)
val on_rx_byte : t -> int -> unit

(** [on_breakpoint t ~pc] — a breakpoint exec fault matched an armed
    site, or the guest executed its own BRK; either way the stop reports
    [Break pc] identically on the wire. *)
val on_breakpoint : t -> pc:int -> unit

(** [on_step_trap t ~pc] — the guest retired a single-stepped
    instruction. *)
val on_step_trap : t -> pc:int -> unit

(** [on_watchpoint t ~pc ~addr] — a guest store hit a watched range;
    the guest is already frozen by the monitor's page protection. *)
val on_watchpoint : t -> pc:int -> addr:int -> unit

(** [on_guest_fault t ~vector ~pc] — the monitor gave up on a guest fault
    (e.g. triple fault); the guest is stopped and the host notified — the
    paper's stability property in action. *)
val on_guest_fault : t -> vector:int -> pc:int -> unit

(** [on_wedge t ~pc] — the monitor's watchdog saw no guest progress and
    forced a break-in; the host is notified with a [Wedged] stop. *)
val on_wedge : t -> pc:int -> unit

(** [on_retire_stop t ~pc] — a reverse operation's replay-to-N landed on
    the requested retirement boundary; the stub reports [Step_done] at
    [pc] and un-mutes the recorder. *)
val on_retire_stop : t -> pc:int -> unit

(** [note_restart t] — the monitor completed a warm restart: forget any
    stop state and return to [Running].  Armed breakpoints carry over
    (the fresh shadow re-arms their pages lazily).  Called from inside
    {!target.restart}; the link state is untouched. *)
val note_restart : t -> unit

(** {2 State} *)

val stopped : t -> bool

(** [replaying t] — a reverse operation is re-executing from a restored
    checkpoint (the monitor skips periodic checkpoint capture and chaos
    decisions feed from the muted recorder's script meanwhile). *)
val replaying : t -> bool

(** [reverse_ops t] — completed checkpoint restores on behalf of
    [rs]/[rc]. *)
val reverse_ops : t -> int

val breakpoints : t -> Breakpoints.t
val commands_handled : t -> int
val notifications_sent : t -> int

(** The stub's end of the reliable link. *)
val endpoint : t -> Vmm_proto.Reliable.t

val link_stats : t -> Vmm_proto.Reliable.counters

(** [retransmissions t] — replies resent after a host NAK or an ack
    timeout (noisy wire). *)
val retransmissions : t -> int

(** [link_downs t] — times the stub's retry budget ran out.  Each one
    stopped the guest (if running) so the session stays reconnectable. *)
val link_downs : t -> int
