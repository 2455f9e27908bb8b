(* QCheck generators for LWM-32 instructions, shared by every suite that
   needs random code: one arm per [Isa.instr] constructor (48 in all). *)

module Isa = Vmm_hw.Isa

let reg_gen = QCheck.Gen.int_bound 15
let imm_gen = QCheck.Gen.map (fun v -> v land 0xFFFFFFFF) QCheck.Gen.int

(* [instr_gen_with ~imm ()] draws every immediate from [imm], and jump and
   call targets from [target] (default [imm]).  Each of the 20
   straight-line register and memory instructions is [straight] times
   as likely as each of the other 28 (default 1: uniform). *)
let instr_gen_with ?target ?(straight = 1) ~imm () : Isa.instr QCheck.Gen.t =
  let open QCheck.Gen in
  let r = reg_gen and i = imm in
  let tgt = Option.value target ~default:imm in
  let straight_line =
    [
      return Isa.Nop;
      map2 (fun a b -> Isa.Movi (a, b)) r i;
      map2 (fun a b -> Isa.Mov (a, b)) r r;
      map3 (fun a b c -> Isa.Add (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Addi (a, b, c)) r r i;
      map3 (fun a b c -> Isa.Sub (a, b, c)) r r r;
      map3 (fun a b c -> Isa.And_ (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Or_ (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Xor_ (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Shl (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Shr (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Mul (a, b, c)) r r r;
      map2 (fun a b -> Isa.Cmp (a, b)) r r;
      map2 (fun a b -> Isa.Cmpi (a, b)) r i;
      map3 (fun a b c -> Isa.Ld (a, b, c)) r r i;
      map3 (fun a b c -> Isa.St (a, b, c)) r i r;
      map3 (fun a b c -> Isa.Ldb (a, b, c)) r r i;
      map3 (fun a b c -> Isa.Stb (a, b, c)) r i r;
      map (fun a -> Isa.Push a) r;
      map (fun a -> Isa.Pop a) r;
    ]
  and other =
    [
      return Isa.Hlt;
      map (fun a -> Isa.Jmp a) tgt;
      map (fun a -> Isa.Jz a) tgt;
      map (fun a -> Isa.Jnz a) tgt;
      map (fun a -> Isa.Jlt a) tgt;
      map (fun a -> Isa.Jge a) tgt;
      map (fun a -> Isa.Jb a) tgt;
      map (fun a -> Isa.Jae a) tgt;
      map (fun a -> Isa.Jr a) r;
      map (fun a -> Isa.Call a) tgt;
      return Isa.Ret;
      map2 (fun a b -> Isa.In_ (a, b)) r r;
      map2 (fun a b -> Isa.Ini (a, b)) r i;
      map2 (fun a b -> Isa.Out (a, b)) r r;
      map2 (fun a b -> Isa.Outi (a, b)) i r;
      map (fun v -> Isa.Int_ (v land 0x3F)) (int_bound 63);
      return Isa.Iret;
      return Isa.Sti;
      return Isa.Cli;
      map (fun a -> Isa.Liht a) r;
      map (fun a -> Isa.Lptb a) r;
      map2 (fun a b -> Isa.Lstk (a land 15, b)) (int_bound 15) r;
      return Isa.Tlbflush;
      map3 (fun a b c -> Isa.Copy (a, b, c)) r r r;
      map3 (fun a b c -> Isa.Csum (a, b, c)) r r r;
      map (fun a -> Isa.Rdtsc a) r;
      map (fun a -> Isa.Vmcall a) i;
      return Isa.Brk;
    ]
  in
  frequency
    (List.map (fun g -> (straight, g)) straight_line @ List.map (fun g -> (1, g)) other)

let instr_gen = instr_gen_with ~imm:imm_gen ()

(* A random program of [lo]..[hi] instructions. *)
let soup_gen ?target ?straight ?(imm = imm_gen) ~lo ~hi () =
  QCheck.Gen.(list_size (int_range lo hi) (instr_gen_with ?target ?straight ~imm ()))

let print_soup l = String.concat "; " (List.map Isa.to_string l)
let encode_soup l = Bytes.concat Bytes.empty (List.map Isa.encode l)
