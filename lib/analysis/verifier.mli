(** Static verifier for assembled LWM-32 guest images.

    Runs two passes over an image: {!Cfg} recovery (decode + control
    flow from the entry point, interrupt gates and provably-constant
    iret frames) and an abstract interpretation (constant/interval
    register domain, privilege-ring sets, per-function stack discipline)
    that proves load-time properties the monitor otherwise only enforces
    dynamically at trap time.

    The verifier is deliberately one-sided: a diagnostic is emitted only
    when a {e bounded} abstract value proves the violation, so unknown
    (Top) values and conservative control flow ([Jr], non-constant iret
    frames) can hide real bugs but never flag correct code.  See
    docs/ANALYSIS.md. *)

(** Diagnostic classes (a)–(h) of the verifier. *)
type diag_class =
  | Monitor_store  (** (a) store/copy can reach non-guest-owned memory *)
  | Privileged_reach
      (** (b) privileged instruction reachable outside ring 0 *)
  | Stack_unbalanced  (** (c) push/pop/call/ret discipline broken *)
  | Text_write  (** (d) store into executable text (icache hazard) *)
  | Control_flow
      (** (e) fall-through off the image, misaligned or undecodable
          targets *)
  | Port_io  (** (f) port I/O outside the configured bitmap *)
  | Irq_race
      (** (g) non-atomic read-modify-write of a location an asynchronous
          IHT handler also touches, on a path where interrupts are
          provably enabled inside the window ({!Races}) *)
  | Unbalanced_mask
      (** (h) provably divergent cli/sti balance, including [Hlt]
          reachable only with interrupts masked (wedge) *)

type diagnostic = { cls : diag_class; addr : int; detail : string }

type report = {
  clean : bool;
  diagnostics : diagnostic list;  (** sorted by address *)
  instructions : int;  (** reachable instructions decoded *)
  blocks : int;  (** basic blocks *)
  functions : int;  (** distinct call targets plus roots *)
  roots : int;  (** entry, gate handlers, discovered iret targets *)
  summaries : int;  (** functions summarized by the interprocedural pass *)
  summary_incomplete : int;
      (** summaries degraded by [Jr] or an unresolvable call — present
          but carrying no proof weight *)
  race_sites : Races.site list;
      (** raw race-pass output, one entry per (store, vector) pair; the
          monitor samples these for dynamic cross-validation *)
  timings : (string * float) list;
      (** per-pass seconds from the [clock] argument; all zero under the
          deterministic default clock *)
}

type config = {
  guest_owns : int -> bool;
      (** guest-owned physical addresses; the monitor passes
          [Vm_layout.guest_owns].  Must hold for a contiguous prefix
          (the verifier checks range endpoints). *)
  allowed_ports : (int * int) list;  (** inclusive I/O port ranges *)
  entry_ring : int;  (** ring the image is entered at, normally 0 *)
}

(** PIC/PIT/UART plus the passed-through SCSI and NIC register files. *)
val default_ports : (int * int) list

val class_name : diag_class -> string

(** [verify config program] — [entry] defaults to the program origin.
    [clock] feeds the per-pass [timings]; the default is a constant
    function, keeping library callers deterministic (record/replay
    safe).  Benchmarks pass a real monotonic clock. *)
val verify :
  ?clock:(unit -> float) -> config -> ?entry:int -> Vmm_hw.Asm.program -> report

val verify_image :
  ?clock:(unit -> float) -> config -> origin:int -> ?entry:int -> bytes -> report

(** Multi-line human rendering; addresses go through
    {!Vmm_debugger.Symbols.format_addr} when a table is given. *)
val render : ?symbols:Vmm_debugger.Symbols.t -> report -> string

(** One-line space-separated [key=value] summary (the [qV] payload). *)
val summary : report -> string
