(** Control-flow graph recovery over an assembled LWM-32 image (pass 1 of
    the static verifier).

    Instructions are decoded with {!Vmm_hw.Isa} starting from registered
    roots; direct jump/branch/call targets are followed, [Jr] (indirect)
    is summarized conservatively with no successors, and [Iret]
    successors are added later by the abstract interpreter when it can
    prove the return frame constant.  The graph is growable — new roots
    (interrupt gates, iret targets) can be registered at any time and
    exploration resumes incrementally. *)

(** Re-export of {!Vmm_hw.Isa.flow}: the classification lives with the
    decoder so the CPU's block translator and this verifier share one
    notion of what terminates a basic block. *)
type flow = Vmm_hw.Isa.flow =
  | Fallthrough
  | Jump of int
  | Branch of int  (** conditional: target plus fall-through *)
  | Call_to of int
  | Indirect  (** [Jr] — unknown target, no static successors *)
  | Return
  | Int_return  (** [Iret] — successor may be recovered by the verifier *)
  | Terminal  (** [Brk] *)

val flow_of : Vmm_hw.Isa.instr -> flow

(** Malformed control flow found while building the graph (diagnostic
    class (e) raw material). *)
type issue =
  | Bad_target of { at : int; target : int }
      (** jump/branch/call to a misaligned or out-of-image address *)
  | Fall_off of { at : int }  (** execution can run off the end of the image *)
  | Undecodable of { at : int; opcode : int }
      (** a reachable slot that does not decode *)

type block = { start : int; finish : int; block_succs : int list }
type t

val create : origin:int -> bytes -> t

(** [add_root t addr] explores everything reachable from [addr];
    idempotent.  An invalid root records a {!Bad_target} issue. *)
val add_root : t -> int -> unit

val instr_at : t -> int -> Vmm_hw.Isa.instr option
val successors : t -> int -> int list
val instruction_count : t -> int
val issues : t -> issue list

(** Call graph edges, [(site, target)]. *)
val calls : t -> (int * int) list

val roots : t -> int list

(** Sorted addresses of every reachable instruction. *)
val text : t -> int array

(** [overlaps_text t ~lo ~hi] — the byte range [\[lo, hi\]] overlaps some
    reachable instruction's encoding (self-modifying-code check). *)
val overlaps_text : t -> lo:int -> hi:int -> bool

(** Basic blocks in address order. *)
val blocks : t -> block list
