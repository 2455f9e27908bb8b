(** Two-pass assembler for LWM-32, used to build the guest OS and test
    programs from OCaml.

    Usage: create a unit, emit instructions and labels in order, then
    [assemble].  Jump/call/movi targets may be symbolic ({!lbl}); the second
    pass resolves them.  The resulting {!program} carries a symbol table the
    debugger consumes. *)

type t

(** Immediate operand: a literal or a forward/backward label reference,
    optionally displaced. *)
type operand =
  | Imm of int
  | Lbl of string
  | Lbl_off of string * int

val imm : int -> operand
val lbl : string -> operand

exception Undefined_label of string
exception Duplicate_label of string

(** [create ?origin ()] starts a unit whose first byte lands at [origin]
    (default 0). *)
val create : ?origin:int -> unit -> t

(** [here t] is the address of the next emitted byte. *)
val here : t -> int

(** [label t name] binds [name] to the current address.
    @raise Duplicate_label on rebinding. *)
val label : t -> string -> unit

(** [instr t i] emits a fully resolved instruction. *)
val instr : t -> Isa.instr -> unit

(** {2 Instruction helpers} — one per mnemonic; targets take operands. *)

val nop : t -> unit
val hlt : t -> unit
val movi : t -> Isa.reg -> operand -> unit
val mov : t -> Isa.reg -> Isa.reg -> unit
val add : t -> Isa.reg -> Isa.reg -> Isa.reg -> unit
val addi : t -> Isa.reg -> Isa.reg -> operand -> unit
val sub : t -> Isa.reg -> Isa.reg -> Isa.reg -> unit
val and_ : t -> Isa.reg -> Isa.reg -> Isa.reg -> unit
val or_ : t -> Isa.reg -> Isa.reg -> Isa.reg -> unit
val xor_ : t -> Isa.reg -> Isa.reg -> Isa.reg -> unit
val shl : t -> Isa.reg -> Isa.reg -> Isa.reg -> unit
val shr : t -> Isa.reg -> Isa.reg -> Isa.reg -> unit
val mul : t -> Isa.reg -> Isa.reg -> Isa.reg -> unit
val cmp : t -> Isa.reg -> Isa.reg -> unit
val cmpi : t -> Isa.reg -> operand -> unit
val ld : t -> Isa.reg -> Isa.reg -> int -> unit
val st : t -> Isa.reg -> int -> Isa.reg -> unit
val ldb : t -> Isa.reg -> Isa.reg -> int -> unit
val stb : t -> Isa.reg -> int -> Isa.reg -> unit
val jmp : t -> operand -> unit
val jz : t -> operand -> unit
val jnz : t -> operand -> unit
val jlt : t -> operand -> unit
val jge : t -> operand -> unit
val jb : t -> operand -> unit
val jae : t -> operand -> unit
val jr : t -> Isa.reg -> unit
val call : t -> operand -> unit
val ret : t -> unit
val push : t -> Isa.reg -> unit
val pop : t -> Isa.reg -> unit
val in_ : t -> Isa.reg -> Isa.reg -> unit
val ini : t -> Isa.reg -> operand -> unit
val out : t -> Isa.reg -> Isa.reg -> unit
val outi : t -> operand -> Isa.reg -> unit
val int_ : t -> int -> unit
val iret : t -> unit
val sti : t -> unit
val cli : t -> unit
val liht : t -> Isa.reg -> unit
val lptb : t -> Isa.reg -> unit
val lstk : t -> int -> Isa.reg -> unit
val tlbflush : t -> unit
val copy : t -> Isa.reg -> Isa.reg -> Isa.reg -> unit
val csum : t -> Isa.reg -> Isa.reg -> Isa.reg -> unit
val rdtsc : t -> Isa.reg -> unit
val vmcall : t -> operand -> unit
val brk : t -> unit

(** {2 Data directives} *)

(** [word t op] emits a 32-bit little-endian datum (label-resolvable). *)
val word : t -> operand -> unit

(** [bytes t b] emits raw bytes. *)
val bytes : t -> bytes -> unit

(** [space t n] reserves [n] zero bytes. *)
val space : t -> int -> unit

(** [align t n] pads with zeros to the next multiple of [n]. *)
val align : t -> int -> unit

(** {2 Output} *)

type program = {
  origin : int;
  code : bytes;
  symbols : (string * int) list;  (** sorted by address *)
}

(** [assemble t] resolves labels and produces the image.
    @raise Undefined_label when a referenced label was never bound. *)
val assemble : t -> program

(** [symbol p name] looks up a label's absolute address.
    @raise Not_found when absent. *)
val symbol : program -> string -> int

(** [load p mem] copies the image into physical memory at its origin. *)
val load : program -> Phys_mem.t -> unit
