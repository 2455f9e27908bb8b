type reg = int

let sp = 14
let num_regs = 16

type instr =
  | Nop
  | Hlt
  | Movi of reg * Word.t
  | Mov of reg * reg
  | Add of reg * reg * reg
  | Addi of reg * reg * Word.t
  | Sub of reg * reg * reg
  | And_ of reg * reg * reg
  | Or_ of reg * reg * reg
  | Xor_ of reg * reg * reg
  | Shl of reg * reg * reg
  | Shr of reg * reg * reg
  | Mul of reg * reg * reg
  | Cmp of reg * reg
  | Cmpi of reg * Word.t
  | Ld of reg * reg * Word.t
  | St of reg * Word.t * reg
  | Ldb of reg * reg * Word.t
  | Stb of reg * Word.t * reg
  | Jmp of Word.t
  | Jz of Word.t
  | Jnz of Word.t
  | Jlt of Word.t
  | Jge of Word.t
  | Jb of Word.t
  | Jae of Word.t
  | Jr of reg
  | Call of Word.t
  | Ret
  | Push of reg
  | Pop of reg
  | In_ of reg * reg
  | Ini of reg * Word.t
  | Out of reg * reg
  | Outi of Word.t * reg
  | Int_ of int
  | Iret
  | Sti
  | Cli
  | Liht of reg
  | Lptb of reg
  | Lstk of int * reg
  | Tlbflush
  | Copy of reg * reg * reg
  | Csum of reg * reg * reg
  | Rdtsc of reg
  | Vmcall of Word.t
  | Brk

let width = 8

exception Decode_error of { addr : int; opcode : int }

(* Encoding: byte 0 opcode, byte 1 = a:4 | b:4, byte 2 = c:4 in low nibble,
   byte 3 reserved zero, bytes 4-7 imm32 little-endian. *)

let op_nop = 0x00
let op_hlt = 0x01
let op_movi = 0x02
let op_mov = 0x03
let op_add = 0x04
let op_addi = 0x05
let op_sub = 0x06
let op_and = 0x07
let op_or = 0x08
let op_xor = 0x09
let op_shl = 0x0A
let op_shr = 0x0B
let op_mul = 0x0C
let op_cmp = 0x0D
let op_cmpi = 0x0E
let op_ld = 0x0F
let op_st = 0x10
let op_ldb = 0x11
let op_stb = 0x12
let op_jmp = 0x13
let op_jz = 0x14
let op_jnz = 0x15
let op_jlt = 0x16
let op_jge = 0x17
let op_jb = 0x18
let op_jae = 0x19
let op_jr = 0x1A
let op_call = 0x1B
let op_ret = 0x1C
let op_push = 0x1D
let op_pop = 0x1E
let op_in = 0x1F
let op_ini = 0x20
let op_out = 0x21
let op_outi = 0x22
let op_int = 0x23
let op_iret = 0x24
let op_sti = 0x25
let op_cli = 0x26
let op_liht = 0x27
let op_lptb = 0x28
let op_lstk = 0x29
let op_tlbflush = 0x2A
let op_copy = 0x2B
let op_csum = 0x2C
let op_rdtsc = 0x2D
let op_vmcall = 0x2E
let op_brk = 0x2F

let fields = function
  | Nop -> (op_nop, 0, 0, 0, 0)
  | Hlt -> (op_hlt, 0, 0, 0, 0)
  | Movi (rd, imm) -> (op_movi, rd, 0, 0, imm)
  | Mov (rd, rs) -> (op_mov, rd, rs, 0, 0)
  | Add (rd, rs1, rs2) -> (op_add, rd, rs1, rs2, 0)
  | Addi (rd, rs1, imm) -> (op_addi, rd, rs1, 0, imm)
  | Sub (rd, rs1, rs2) -> (op_sub, rd, rs1, rs2, 0)
  | And_ (rd, rs1, rs2) -> (op_and, rd, rs1, rs2, 0)
  | Or_ (rd, rs1, rs2) -> (op_or, rd, rs1, rs2, 0)
  | Xor_ (rd, rs1, rs2) -> (op_xor, rd, rs1, rs2, 0)
  | Shl (rd, rs1, rs2) -> (op_shl, rd, rs1, rs2, 0)
  | Shr (rd, rs1, rs2) -> (op_shr, rd, rs1, rs2, 0)
  | Mul (rd, rs1, rs2) -> (op_mul, rd, rs1, rs2, 0)
  | Cmp (rs1, rs2) -> (op_cmp, 0, rs1, rs2, 0)
  | Cmpi (rs1, imm) -> (op_cmpi, 0, rs1, 0, imm)
  | Ld (rd, base, imm) -> (op_ld, rd, base, 0, imm)
  | St (base, imm, src) -> (op_st, 0, base, src, imm)
  | Ldb (rd, base, imm) -> (op_ldb, rd, base, 0, imm)
  | Stb (base, imm, src) -> (op_stb, 0, base, src, imm)
  | Jmp imm -> (op_jmp, 0, 0, 0, imm)
  | Jz imm -> (op_jz, 0, 0, 0, imm)
  | Jnz imm -> (op_jnz, 0, 0, 0, imm)
  | Jlt imm -> (op_jlt, 0, 0, 0, imm)
  | Jge imm -> (op_jge, 0, 0, 0, imm)
  | Jb imm -> (op_jb, 0, 0, 0, imm)
  | Jae imm -> (op_jae, 0, 0, 0, imm)
  | Jr rs -> (op_jr, 0, rs, 0, 0)
  | Call imm -> (op_call, 0, 0, 0, imm)
  | Ret -> (op_ret, 0, 0, 0, 0)
  | Push rs -> (op_push, 0, rs, 0, 0)
  | Pop rd -> (op_pop, rd, 0, 0, 0)
  | In_ (rd, rs) -> (op_in, rd, rs, 0, 0)
  | Ini (rd, imm) -> (op_ini, rd, 0, 0, imm)
  | Out (rs1, rs2) -> (op_out, 0, rs1, rs2, 0)
  | Outi (imm, rs) -> (op_outi, 0, rs, 0, imm)
  | Int_ vec -> (op_int, 0, 0, 0, vec)
  | Iret -> (op_iret, 0, 0, 0, 0)
  | Sti -> (op_sti, 0, 0, 0, 0)
  | Cli -> (op_cli, 0, 0, 0, 0)
  | Liht rs -> (op_liht, 0, rs, 0, 0)
  | Lptb rs -> (op_lptb, 0, rs, 0, 0)
  | Lstk (ring, rs) -> (op_lstk, ring, rs, 0, 0)
  | Tlbflush -> (op_tlbflush, 0, 0, 0, 0)
  | Copy (rd, rs1, rs2) -> (op_copy, rd, rs1, rs2, 0)
  | Csum (rd, rs1, rs2) -> (op_csum, rd, rs1, rs2, 0)
  | Rdtsc rd -> (op_rdtsc, rd, 0, 0, 0)
  | Vmcall imm -> (op_vmcall, 0, 0, 0, imm)
  | Brk -> (op_brk, 0, 0, 0, 0)

let encode i =
  let opcode, a, b, c, imm = fields i in
  let buf = Bytes.make width '\000' in
  Bytes.set buf 0 (Char.chr opcode);
  Bytes.set buf 1 (Char.chr (((a land 0xF) lsl 4) lor (b land 0xF)));
  Bytes.set buf 2 (Char.chr (c land 0xF));
  Bytes.set buf 4 (Char.chr (imm land 0xFF));
  Bytes.set buf 5 (Char.chr ((imm lsr 8) land 0xFF));
  Bytes.set buf 6 (Char.chr ((imm lsr 16) land 0xFF));
  Bytes.set buf 7 (Char.chr ((imm lsr 24) land 0xFF));
  buf

let decode_fields ~addr ~opcode ~a ~bb ~c ~imm =
  match opcode with
  | o when o = op_nop -> Nop
  | o when o = op_hlt -> Hlt
  | o when o = op_movi -> Movi (a, imm)
  | o when o = op_mov -> Mov (a, bb)
  | o when o = op_add -> Add (a, bb, c)
  | o when o = op_addi -> Addi (a, bb, imm)
  | o when o = op_sub -> Sub (a, bb, c)
  | o when o = op_and -> And_ (a, bb, c)
  | o when o = op_or -> Or_ (a, bb, c)
  | o when o = op_xor -> Xor_ (a, bb, c)
  | o when o = op_shl -> Shl (a, bb, c)
  | o when o = op_shr -> Shr (a, bb, c)
  | o when o = op_mul -> Mul (a, bb, c)
  | o when o = op_cmp -> Cmp (bb, c)
  | o when o = op_cmpi -> Cmpi (bb, imm)
  | o when o = op_ld -> Ld (a, bb, imm)
  | o when o = op_st -> St (bb, imm, c)
  | o when o = op_ldb -> Ldb (a, bb, imm)
  | o when o = op_stb -> Stb (bb, imm, c)
  | o when o = op_jmp -> Jmp imm
  | o when o = op_jz -> Jz imm
  | o when o = op_jnz -> Jnz imm
  | o when o = op_jlt -> Jlt imm
  | o when o = op_jge -> Jge imm
  | o when o = op_jb -> Jb imm
  | o when o = op_jae -> Jae imm
  | o when o = op_jr -> Jr bb
  | o when o = op_call -> Call imm
  | o when o = op_ret -> Ret
  | o when o = op_push -> Push bb
  | o when o = op_pop -> Pop a
  | o when o = op_in -> In_ (a, bb)
  | o when o = op_ini -> Ini (a, imm)
  | o when o = op_out -> Out (bb, c)
  | o when o = op_outi -> Outi (imm, bb)
  | o when o = op_int -> Int_ (imm land 0x3F)
  | o when o = op_iret -> Iret
  | o when o = op_sti -> Sti
  | o when o = op_cli -> Cli
  | o when o = op_liht -> Liht bb
  | o when o = op_lptb -> Lptb bb
  | o when o = op_lstk -> Lstk (a, bb)
  | o when o = op_tlbflush -> Tlbflush
  | o when o = op_copy -> Copy (a, bb, c)
  | o when o = op_csum -> Csum (a, bb, c)
  | o when o = op_rdtsc -> Rdtsc a
  | o when o = op_vmcall -> Vmcall imm
  | o when o = op_brk -> Brk
  | opcode -> raise (Decode_error { addr; opcode })

let decode ~addr b ~off =
  let opcode = Char.code (Bytes.get b off) in
  let ab = Char.code (Bytes.get b (off + 1)) in
  let a = ab lsr 4 and bb = ab land 0xF in
  let c = Char.code (Bytes.get b (off + 2)) land 0xF in
  let imm =
    Char.code (Bytes.get b (off + 4))
    lor (Char.code (Bytes.get b (off + 5)) lsl 8)
    lor (Char.code (Bytes.get b (off + 6)) lsl 16)
    lor (Char.code (Bytes.get b (off + 7)) lsl 24)
  in
  decode_fields ~addr ~opcode ~a ~bb ~c ~imm

(* Decode from two aligned word reads — no intermediate buffer, so the
   fetch path allocates nothing beyond the [instr] value itself. *)
let read mem addr =
  let lo = Phys_mem.read_u32 mem addr in
  let imm = Phys_mem.read_u32 mem (addr + 4) in
  let ab = (lo lsr 8) land 0xFF in
  decode_fields ~addr ~opcode:(lo land 0xFF) ~a:(ab lsr 4) ~bb:(ab land 0xF)
    ~c:((lo lsr 16) land 0xF) ~imm

let write mem addr i = Phys_mem.load_bytes mem ~addr (encode i)

let r n = Printf.sprintf "r%d" n

let to_string = function
  | Nop -> "nop"
  | Hlt -> "hlt"
  | Movi (rd, imm) -> Printf.sprintf "movi %s, 0x%x" (r rd) imm
  | Mov (rd, rs) -> Printf.sprintf "mov %s, %s" (r rd) (r rs)
  | Add (rd, a, b) -> Printf.sprintf "add %s, %s, %s" (r rd) (r a) (r b)
  | Addi (rd, a, imm) -> Printf.sprintf "addi %s, %s, 0x%x" (r rd) (r a) imm
  | Sub (rd, a, b) -> Printf.sprintf "sub %s, %s, %s" (r rd) (r a) (r b)
  | And_ (rd, a, b) -> Printf.sprintf "and %s, %s, %s" (r rd) (r a) (r b)
  | Or_ (rd, a, b) -> Printf.sprintf "or %s, %s, %s" (r rd) (r a) (r b)
  | Xor_ (rd, a, b) -> Printf.sprintf "xor %s, %s, %s" (r rd) (r a) (r b)
  | Shl (rd, a, b) -> Printf.sprintf "shl %s, %s, %s" (r rd) (r a) (r b)
  | Shr (rd, a, b) -> Printf.sprintf "shr %s, %s, %s" (r rd) (r a) (r b)
  | Mul (rd, a, b) -> Printf.sprintf "mul %s, %s, %s" (r rd) (r a) (r b)
  | Cmp (a, b) -> Printf.sprintf "cmp %s, %s" (r a) (r b)
  | Cmpi (a, imm) -> Printf.sprintf "cmpi %s, 0x%x" (r a) imm
  | Ld (rd, base, imm) -> Printf.sprintf "ld %s, [%s+0x%x]" (r rd) (r base) imm
  | St (base, imm, src) -> Printf.sprintf "st [%s+0x%x], %s" (r base) imm (r src)
  | Ldb (rd, base, imm) -> Printf.sprintf "ldb %s, [%s+0x%x]" (r rd) (r base) imm
  | Stb (base, imm, src) ->
    Printf.sprintf "stb [%s+0x%x], %s" (r base) imm (r src)
  | Jmp imm -> Printf.sprintf "jmp 0x%x" imm
  | Jz imm -> Printf.sprintf "jz 0x%x" imm
  | Jnz imm -> Printf.sprintf "jnz 0x%x" imm
  | Jlt imm -> Printf.sprintf "jlt 0x%x" imm
  | Jge imm -> Printf.sprintf "jge 0x%x" imm
  | Jb imm -> Printf.sprintf "jb 0x%x" imm
  | Jae imm -> Printf.sprintf "jae 0x%x" imm
  | Jr rs -> Printf.sprintf "jr %s" (r rs)
  | Call imm -> Printf.sprintf "call 0x%x" imm
  | Ret -> "ret"
  | Push rs -> Printf.sprintf "push %s" (r rs)
  | Pop rd -> Printf.sprintf "pop %s" (r rd)
  | In_ (rd, rs) -> Printf.sprintf "in %s, (%s)" (r rd) (r rs)
  | Ini (rd, imm) -> Printf.sprintf "in %s, 0x%x" (r rd) imm
  | Out (p, v) -> Printf.sprintf "out (%s), %s" (r p) (r v)
  | Outi (imm, v) -> Printf.sprintf "out 0x%x, %s" imm (r v)
  | Int_ vec -> Printf.sprintf "int %d" vec
  | Iret -> "iret"
  | Sti -> "sti"
  | Cli -> "cli"
  | Liht rs -> Printf.sprintf "liht %s" (r rs)
  | Lptb rs -> Printf.sprintf "lptb %s" (r rs)
  | Lstk (ring, rs) -> Printf.sprintf "lstk %d, %s" ring (r rs)
  | Tlbflush -> "tlbflush"
  | Copy (d, s, n) -> Printf.sprintf "copy %s, %s, %s" (r d) (r s) (r n)
  | Csum (rd, a, n) -> Printf.sprintf "csum %s, %s, %s" (r rd) (r a) (r n)
  | Rdtsc rd -> Printf.sprintf "rdtsc %s" (r rd)
  | Vmcall imm -> Printf.sprintf "vmcall 0x%x" imm
  | Brk -> "brk"

let is_privileged = function
  | Hlt | Iret | Sti | Cli | Liht _ | Lptb _ | Lstk _ | Tlbflush -> true
  | Nop | Movi _ | Mov _ | Add _ | Addi _ | Sub _ | And_ _ | Or_ _ | Xor_ _
  | Shl _ | Shr _ | Mul _ | Cmp _ | Cmpi _ | Ld _ | St _ | Ldb _ | Stb _
  | Jmp _ | Jz _ | Jnz _ | Jlt _ | Jge _ | Jb _ | Jae _ | Jr _ | Call _ | Ret
  | Push _ | Pop _ | In_ _ | Ini _ | Out _ | Outi _ | Int_ _ | Copy _ | Csum _
  | Rdtsc _ | Vmcall _ | Brk ->
    false

let base_cycles (c : Costs.t) = function
  | Ld _ | St _ | Ldb _ | Stb _ | Push _ | Pop _ ->
    c.base_instr + c.mem_access
  | Call _ | Ret -> c.base_instr + c.mem_access
  | Mul _ -> c.base_instr + c.mul_extra
  | Iret -> c.iret_cost
  | Nop | Hlt | Movi _ | Mov _ | Add _ | Addi _ | Sub _ | And_ _ | Or_ _
  | Xor_ _ | Shl _ | Shr _ | Cmp _ | Cmpi _ | Jmp _ | Jz _ | Jnz _ | Jlt _
  | Jge _ | Jb _ | Jae _ | Jr _ | In_ _ | Ini _ | Out _ | Outi _ | Int_ _
  | Sti | Cli | Liht _ | Lptb _ | Lstk _ | Tlbflush | Copy _ | Csum _
  | Rdtsc _ | Vmcall _ | Brk ->
    c.base_instr

(* Control-flow shape, shared by the static verifier's CFG recovery
   (lib/analysis.Cfg) and the CPU's block translator: both need the same
   leader/terminator classification, and keeping it next to the decoder
   means a new instruction cannot be added without deciding its shape. *)
type flow =
  | Fallthrough
  | Jump of Word.t
  | Branch of Word.t
  | Call_to of Word.t
  | Indirect
  | Return
  | Int_return
  | Terminal

let flow_of = function
  | Jmp t -> Jump t
  | Jz t | Jnz t | Jlt t | Jge t | Jb t | Jae t -> Branch t
  | Call t -> Call_to t
  | Jr _ -> Indirect
  | Ret -> Return
  | Iret -> Int_return
  | Brk -> Terminal
  | Nop | Hlt | Movi _ | Mov _ | Add _ | Addi _ | Sub _ | And_ _ | Or_ _
  | Xor_ _ | Shl _ | Shr _ | Mul _ | Cmp _ | Cmpi _ | Ld _ | St _ | Ldb _
  | Stb _ | Push _ | Pop _ | In_ _ | Ini _ | Out _ | Outi _ | Int_ _ | Sti
  | Cli | Liht _ | Lptb _ | Lstk _ | Tlbflush | Copy _ | Csum _ | Rdtsc _
  | Vmcall _ ->
    Fallthrough

let vec_debug_step = 1
let vec_breakpoint = 3
let vec_undefined = 6
let vec_machine_check = 8
let vec_protection = 13
let vec_page_fault = 14
let vec_irq_base_default = 32

let gate_present info = info land 1 <> 0
let gate_ring info = (info lsr 1) land 3
let gate_dpl info = (info lsr 3) land 3
let gate_info ~ring ~dpl = 1 lor ((ring land 3) lsl 1) lor ((dpl land 3) lsl 3)
