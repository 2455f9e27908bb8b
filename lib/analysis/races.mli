(** Interrupt-race pass (pass 4 of the static verifier).

    Intersects mainline read-modify-write sequences that execute with
    interrupts possibly enabled against the transitive memory footprint
    of every asynchronous IHT handler ({!Summary}), and checks the two
    mask-balance properties ([Hlt]-while-masked wedge, path-divergent
    cli/sti balance).  Diagnostics are emitted only from exact IF
    states, so everything reported corresponds to a realizable static
    path. *)

(** A statically detected race: the window [(load_pc, store_pc]] can be
    interleaved by the handler of [vector], which touches the written
    interval [\[lo, hi\]]. *)
type site = {
  load_pc : int;
  store_pc : int;
  lo : int;
  hi : int;
  vector : int;
  handler : int;
  handler_writes : bool;
      (** write/write race; [false] = the handler reads the torn value *)
}

type result = {
  sites : site list;
  wedges : int list;
      (** [Hlt] addresses reachable only with interrupts masked *)
  divergent : (int * int) list;
      (** [(entry, ret)] of functions whose mask balance provably
          depends on the path taken *)
}

(** Wired to a PIC line, i.e. can preempt mainline code. *)

val analyze :
  cfg:Cfg.t ->
  summary:Summary.t ->
  gates:(int * int) list ->
  regs_at:(int -> Domain.value array option) ->
  result
(** [gates] are [(vector, handler)] pairs parsed from the guest's IHT;
    [regs_at] is the verifier's abstract register file per address. *)

val render_site : ?status:string -> ?windows:int -> site -> string
(** One [static-races] bundle line; [status] is ["static"] or
    ["witnessed"], [windows] the dynamically observed open-window
    count. *)

val parse_site : string -> (site * string * int) option
(** Inverse of {!render_site}; [None] on a malformed line. *)
