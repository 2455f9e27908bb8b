(** Interprocedural summaries (pass 3 of the static verifier).

    Discovers functions from the {!Cfg} call graph, computes a
    call-summary transformer for each function's effect on the
    interrupt-enable flag, runs a whole-image may-analysis of the IF
    state at every instruction, and derives per-function memory
    read/write sets as abstract address intervals.  {!Races} consumes
    all three. *)

(** May-set over the interrupt-enable flag: a bitmask of
    {!if_enabled} / {!if_disabled}.  [0] means "unreached". *)
type ifs = int

val if_enabled : ifs
val if_disabled : ifs

(** A function's effect on the caller's IF state:
    [(if x.dep then i else 0) lor x.forced] for the caller's state [i].
    Exact as a set transformer under the field-wise join, so joining
    paths loses no precision. *)
type xfer = { dep : bool; forced : ifs }

val xfer_divergent_for : xfer -> ifs -> bool
(** [xfer_divergent_for x i] — starting from the single state [i],
    different paths through the function provably leave IF in different
    states (the raw material of [Unbalanced_mask]). *)

(** Closed integer interval of guest-physical byte addresses. *)
type interval = { lo : int; hi : int }

val intervals_overlap : interval list -> lo:int -> hi:int -> bool

(** Per-function memory footprint.  The [_unknown] flags record loads or
    stores whose address the interval domain could not bound — the set
    is then an under-approximation and carries no proof weight. *)
type access = {
  reads : interval list;
  writes : interval list;
  reads_unknown : bool;
  writes_unknown : bool;
}

type func = {
  entry : int;
  body : int list;  (** sorted instruction addresses; callees excluded *)
  callees : int list;  (** resolved direct call targets *)
  xfer : xfer;
  xfer_exact : bool;
      (** no [Jr] / unresolvable call anywhere in the callee closure *)
  incomplete : bool;
      (** this body reaches a [Jr] or an unresolvable call target, so
          the traversal under-approximates it (satellite: explicit
          [summary_incomplete], never a silent gap) *)
  access : access;
}

(** May-state of IF at one instruction.  [exact] survives only along
    paths whose every call summary is exact; diagnostics are emitted
    from exact states alone. *)
type ifstate = { may : ifs; exact : bool }

type t

val compute :
  cfg:Cfg.t ->
  roots:(int * ifs) list ->
  regs_at:(int -> Domain.value array option) ->
  t
(** [roots] seed the IF dataflow: image entry and gate handlers enter
    with {!if_disabled}, iret-recovered roots with the IF bit of their
    return frame's flags word.  [regs_at] supplies the abstract register
    file the verifier computed at each address. *)

val func_at : t -> int -> func option
val ifs_at : t -> int -> ifstate option
val function_count : t -> int
val incomplete_count : t -> int

val functions : t -> int list
(** Sorted function entry addresses. *)

val transitive : t -> int -> access * bool
(** Whole-call-tree access summary from [entry]; the flag reports
    whether any function in the closure was incomplete or missing. *)
