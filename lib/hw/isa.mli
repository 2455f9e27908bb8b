(** The LWM-32 instruction set.

    A small 32-bit architecture with the system-level features the paper's
    monitor relies on: four privilege rings, privileged control-register
    instructions, port-mapped I/O, software interrupts and a breakpoint
    instruction a guest can plant in its own code.  Every instruction
    occupies exactly 8 bytes (opcode byte, three 4-bit register fields,
    32-bit immediate), which keeps single-stepping and disassembly trivial
    for the debug stub. *)

(** Register index in [0, 15].  By convention r14 is the stack pointer
    ({!sp}) and r15 the frame/link scratch register. *)
type reg = int

val sp : reg
val num_regs : int

(** [instr] — see the manual section in README.md for semantics. *)
type instr =
  | Nop
  | Hlt  (** privileged: idle until the next interrupt *)
  | Movi of reg * Word.t  (** rd := imm *)
  | Mov of reg * reg  (** rd := rs *)
  | Add of reg * reg * reg
  | Addi of reg * reg * Word.t
  | Sub of reg * reg * reg
  | And_ of reg * reg * reg
  | Or_ of reg * reg * reg
  | Xor_ of reg * reg * reg
  | Shl of reg * reg * reg
  | Shr of reg * reg * reg
  | Mul of reg * reg * reg
  | Cmp of reg * reg  (** set Z/N/C from rs1 - rs2 *)
  | Cmpi of reg * Word.t
  | Ld of reg * reg * Word.t  (** rd := mem32\[rs + imm\] *)
  | St of reg * Word.t * reg  (** mem32\[base + imm\] := src *)
  | Ldb of reg * reg * Word.t  (** rd := mem8\[rs + imm\] *)
  | Stb of reg * Word.t * reg  (** mem8\[base + imm\] := src (low byte) *)
  | Jmp of Word.t  (** absolute jump *)
  | Jz of Word.t
  | Jnz of Word.t
  | Jlt of Word.t  (** signed less-than *)
  | Jge of Word.t
  | Jb of Word.t  (** unsigned below *)
  | Jae of Word.t
  | Jr of reg
  | Call of Word.t  (** push return address, jump *)
  | Ret
  | Push of reg
  | Pop of reg
  | In_ of reg * reg  (** rd := port\[rs\]; checked against the I/O bitmap *)
  | Ini of reg * Word.t  (** rd := port\[imm\] *)
  | Out of reg * reg  (** port\[rs1\] := rs2 *)
  | Outi of Word.t * reg  (** port\[imm\] := rs *)
  | Int_ of int  (** software interrupt through vector *)
  | Iret  (** privileged: return from interrupt *)
  | Sti  (** privileged: enable interrupts *)
  | Cli  (** privileged: disable interrupts *)
  | Liht of reg  (** privileged: interrupt-handling-table base := rs *)
  | Lptb of reg  (** privileged: page-table base := rs (0 disables paging) *)
  | Lstk of int * reg  (** privileged: ring-[n] entry stack := rs *)
  | Tlbflush  (** privileged: drop all TLB entries *)
  | Copy of reg * reg * reg  (** mem\[rd..\] := mem\[rs1..\] for rs2 bytes *)
  | Csum of reg * reg * reg  (** rd := inet_checksum(mem\[rs1..\], rs2 bytes) *)
  | Rdtsc of reg  (** rd := low 32 bits of the cycle counter *)
  | Vmcall of Word.t  (** explicit trap to the monitor (hypercall) *)
  | Brk  (** breakpoint trap (vector 3) *)

(** Encoded instruction width in bytes. *)
val width : int

exception Decode_error of { addr : int; opcode : int }

(** [encode i] is the 8-byte little-endian encoding. *)
val encode : instr -> bytes

(** [decode ~addr b ~off] decodes 8 bytes at [off]; [addr] only labels the
    exception. @raise Decode_error on an unknown opcode. *)
val decode : addr:int -> bytes -> off:int -> instr

(** [read mem addr] decodes directly from physical memory. *)
val read : Phys_mem.t -> int -> instr

(** [write mem addr i] encodes directly into physical memory. *)
val write : Phys_mem.t -> int -> instr -> unit

(** [to_string i] is an assembly-like rendering, e.g. ["add r1, r2, r3"]. *)
val to_string : instr -> string

(** [is_privileged i] — instructions that fault with #GP outside ring 0. *)
val is_privileged : instr -> bool

(** [base_cycles costs i] is the instruction's execution cost excluding
    dynamic components (TLB misses, COPY length, port waits). *)
val base_cycles : Costs.t -> instr -> int

(** Control-flow shape of an instruction, shared by the static
    verifier's CFG recovery ({!Vmm_analysis.Cfg} re-exports it) and the
    CPU's basic-block translator: both need the same leader/terminator
    classification.  [Fallthrough] covers every instruction whose sole
    static successor is the next slot — including privileged and I/O
    instructions, which fall through {e architecturally} even though the
    translator refuses to compile them into a block. *)
type flow =
  | Fallthrough
  | Jump of Word.t
  | Branch of Word.t  (** conditional: target plus fall-through *)
  | Call_to of Word.t
  | Indirect  (** [Jr] — unknown target *)
  | Return
  | Int_return  (** [Iret] *)
  | Terminal  (** [Brk] *)

val flow_of : instr -> flow

(** Fault vector numbers (interrupt-handling-table slots). *)
val vec_debug_step : int

val vec_breakpoint : int
val vec_undefined : int
val vec_protection : int
val vec_page_fault : int
val vec_machine_check : int

(** First vector usable for external interrupts by convention. *)
val vec_irq_base_default : int

(** {2 Interrupt-table gates}

    A gate is two words: the handler address, then an info word with
    bit 0 = present, bits 1-2 = the ring the handler runs in and bits
    3-4 = the DPL, the least privileged ring that may [INT] through the
    gate.  The decoders work on the info word and allocate nothing. *)

val gate_present : int -> bool
val gate_ring : int -> int
val gate_dpl : int -> int

(** [gate_info ~ring ~dpl] — the info word of a present gate. *)
val gate_info : ring:int -> dpl:int -> int
