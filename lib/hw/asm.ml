type operand =
  | Imm of int
  | Lbl of string
  | Lbl_off of string * int

let imm v = Imm v
let lbl name = Lbl name

exception Undefined_label of string
exception Duplicate_label of string

type item =
  | Fixed of Isa.instr
  | Deferred of (int -> Isa.instr) * operand (* resolved value fed back *)
  | Data32 of operand
  | Raw of bytes
  | Zeros of int

type t = {
  origin : int;
  mutable items : item list; (* reversed *)
  mutable cursor : int; (* current absolute address *)
  symbols : (string, int) Hashtbl.t;
}

let create ?(origin = 0) () =
  { origin; items = []; cursor = origin; symbols = Hashtbl.create 64 }

let here t = t.cursor

let label t name =
  if Hashtbl.mem t.symbols name then raise (Duplicate_label name);
  Hashtbl.add t.symbols name t.cursor

let item_size = function
  | Fixed _ | Deferred _ -> Isa.width
  | Data32 _ -> 4
  | Raw b -> Bytes.length b
  | Zeros n -> n

let push_item t item =
  t.items <- item :: t.items;
  t.cursor <- t.cursor + item_size item

let instr t i = push_item t (Fixed i)

let deferred t f op =
  match op with
  | Imm v -> push_item t (Fixed (f v))
  | Lbl _ | Lbl_off _ -> push_item t (Deferred (f, op))

(* Mnemonic helpers. *)
let nop t = instr t Isa.Nop
let hlt t = instr t Isa.Hlt
let movi t rd op = deferred t (fun v -> Isa.Movi (rd, v land 0xFFFFFFFF)) op
let mov t rd rs = instr t (Isa.Mov (rd, rs))
let add t rd a b = instr t (Isa.Add (rd, a, b))
let addi t rd a op = deferred t (fun v -> Isa.Addi (rd, a, v land 0xFFFFFFFF)) op
let sub t rd a b = instr t (Isa.Sub (rd, a, b))
let and_ t rd a b = instr t (Isa.And_ (rd, a, b))
let or_ t rd a b = instr t (Isa.Or_ (rd, a, b))
let xor_ t rd a b = instr t (Isa.Xor_ (rd, a, b))
let shl t rd a b = instr t (Isa.Shl (rd, a, b))
let shr t rd a b = instr t (Isa.Shr (rd, a, b))
let mul t rd a b = instr t (Isa.Mul (rd, a, b))
let cmp t a b = instr t (Isa.Cmp (a, b))
let cmpi t a op = deferred t (fun v -> Isa.Cmpi (a, v land 0xFFFFFFFF)) op
let ld t rd base off = instr t (Isa.Ld (rd, base, off land 0xFFFFFFFF))
let st t base off src = instr t (Isa.St (base, off land 0xFFFFFFFF, src))
let ldb t rd base off = instr t (Isa.Ldb (rd, base, off land 0xFFFFFFFF))
let stb t base off src = instr t (Isa.Stb (base, off land 0xFFFFFFFF, src))
let jmp t op = deferred t (fun v -> Isa.Jmp v) op
let jz t op = deferred t (fun v -> Isa.Jz v) op
let jnz t op = deferred t (fun v -> Isa.Jnz v) op
let jlt t op = deferred t (fun v -> Isa.Jlt v) op
let jge t op = deferred t (fun v -> Isa.Jge v) op
let jb t op = deferred t (fun v -> Isa.Jb v) op
let jae t op = deferred t (fun v -> Isa.Jae v) op
let jr t rs = instr t (Isa.Jr rs)
let call t op = deferred t (fun v -> Isa.Call v) op
let ret t = instr t Isa.Ret
let push t rs = instr t (Isa.Push rs)
let pop t rd = instr t (Isa.Pop rd)
let in_ t rd rs = instr t (Isa.In_ (rd, rs))
let ini t rd op = deferred t (fun v -> Isa.Ini (rd, v)) op
let out t p v = instr t (Isa.Out (p, v))
let outi t op v = deferred t (fun p -> Isa.Outi (p, v)) op
let int_ t vec = instr t (Isa.Int_ vec)
let iret t = instr t Isa.Iret
let sti t = instr t Isa.Sti
let cli t = instr t Isa.Cli
let liht t rs = instr t (Isa.Liht rs)
let lptb t rs = instr t (Isa.Lptb rs)
let lstk t ring rs = instr t (Isa.Lstk (ring, rs))
let tlbflush t = instr t Isa.Tlbflush
let copy t d s n = instr t (Isa.Copy (d, s, n))
let csum t rd a n = instr t (Isa.Csum (rd, a, n))
let rdtsc t rd = instr t (Isa.Rdtsc rd)
let vmcall t op = deferred t (fun v -> Isa.Vmcall v) op
let brk t = instr t Isa.Brk

let word t op = push_item t (Data32 op)
let bytes t b = push_item t (Raw (Bytes.copy b))
let space t n =
  if n < 0 then invalid_arg "Asm.space: negative";
  if n > 0 then push_item t (Zeros n)

let align t n =
  if n <= 0 then invalid_arg "Asm.align: non-positive";
  let rem = t.cursor mod n in
  if rem <> 0 then space t (n - rem)

type program = {
  origin : int;
  code : bytes;
  symbols : (string * int) list;
}

let resolve (t : t) = function
  | Imm v -> v
  | Lbl name ->
    (match Hashtbl.find_opt t.symbols name with
     | Some v -> v
     | None -> raise (Undefined_label name))
  | Lbl_off (name, off) ->
    (match Hashtbl.find_opt t.symbols name with
     | Some v -> v + off
     | None -> raise (Undefined_label name))

let assemble t =
  let items = List.rev t.items in
  let total = t.cursor - t.origin in
  let code = Bytes.make total '\000' in
  let write_at pos item =
    (match item with
     | Fixed i -> Bytes.blit (Isa.encode i) 0 code pos Isa.width
     | Deferred (f, op) ->
       let i = f (resolve t op) in
       Bytes.blit (Isa.encode i) 0 code pos Isa.width
     | Data32 op ->
       let v = resolve t op in
       Bytes.set code pos (Char.chr (v land 0xFF));
       Bytes.set code (pos + 1) (Char.chr ((v lsr 8) land 0xFF));
       Bytes.set code (pos + 2) (Char.chr ((v lsr 16) land 0xFF));
       Bytes.set code (pos + 3) (Char.chr ((v lsr 24) land 0xFF))
     | Raw b -> Bytes.blit b 0 code pos (Bytes.length b)
     | Zeros _ -> ());
    pos + item_size item
  in
  let _end = List.fold_left write_at 0 items in
  let symbols =
    Hashtbl.fold (fun name addr acc -> (name, addr) :: acc) t.symbols []
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  { origin = t.origin; code; symbols }

let symbol p name =
  match List.assoc_opt name p.symbols with
  | Some v -> v
  | None -> raise Not_found

let load p mem = Phys_mem.load_bytes mem ~addr:p.origin p.code
