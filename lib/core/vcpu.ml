module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Isa = Vmm_hw.Isa
module Mmu = Vmm_hw.Mmu
module Pic = Vmm_hw.Pic
module Pit = Vmm_hw.Pit
module Phys_mem = Vmm_hw.Phys_mem
module Costs = Vmm_hw.Costs
module Asm = Vmm_hw.Asm

type t = {
  machine : Machine.t;
  cpu : Cpu.t;
  costs : Costs.t;
  layout : Vm_layout.t;
  shadow : Shadow.t;
  vpic : Pic.t;
  vpit : Pit.t;
  mutable v_if : bool;
  mutable v_iht : int;
  mutable v_ptb : int;
  mutable v_cpl : int;
  v_stacks : int array;
  mutable v_halted : bool;
}

let real_ring_of_vring vring = if vring land 3 = 3 then 3 else 1

let charge t cycles = Cpu.charge t.cpu cycles

let flush_shadow t =
  Shadow.clear t.shadow;
  Cpu.set_ptb t.cpu (Shadow.root t.shadow)

let create machine ~timer_irq =
  let cpu = Machine.cpu machine in
  let costs = Machine.costs machine in
  let layout = Vm_layout.default ~mem_size:(Phys_mem.size (Machine.mem machine)) in
  let shadow = Shadow.create ~mem:(Machine.mem machine) ~layout () in
  let t =
    {
      machine;
      cpu;
      costs;
      layout;
      shadow;
      vpic = Pic.create ();
      vpit =
        Pit.create ~engine:(Machine.engine machine) ~costs ~raise_irq:timer_irq ();
      v_if = false;
      v_iht = 0;
      v_ptb = 0;
      v_cpl = 0;
      v_stacks = Array.make 4 0;
      v_halted = false;
    }
  in
  (* The monitor owns the real interrupt path and the real MMU, and the
     devices the guest drives directly may DMA into guest memory only. *)
  Machine.set_dma_limit machine layout.Vm_layout.monitor_base;
  Pic.io_write (Machine.pic machine) 1 0x00;
  Cpu.set_interrupts_enabled cpu true;
  Cpu.set_ptb cpu (Shadow.root shadow);
  t

let boot t program ~entry =
  let size = Bytes.length program.Asm.code in
  if not (Vm_layout.guest_range_ok t.layout ~addr:program.Asm.origin ~len:size)
  then invalid_arg "boot_guest: image overlaps monitor memory";
  Asm.load program (Machine.mem t.machine);
  for i = 0 to 15 do
    Cpu.write_reg t.cpu i 0
  done;
  t.v_if <- false;
  t.v_iht <- 0;
  t.v_ptb <- 0;
  t.v_cpl <- 0;
  Array.fill t.v_stacks 0 (Array.length t.v_stacks) 0;
  t.v_halted <- false;
  flush_shadow t;
  Cpu.set_cpl t.cpu 1;
  Cpu.set_interrupts_enabled t.cpu true;
  Cpu.set_trap_flag t.cpu false;
  Cpu.set_pc t.cpu entry;
  Cpu.set_halted t.cpu false;
  Cpu.set_stopped t.cpu false

(* -- Guest-virtual memory access through the guest's own tables -- *)

(* The guest-physical address of [vaddr], or -1 when the guest maps
   nothing there or maps a frame it does not own. *)
let translate t vaddr =
  let vaddr = vaddr land 0xFFFFFFFF in
  if t.v_ptb = 0 then if Vm_layout.guest_owns t.layout vaddr then vaddr else -1
  else
    match Mmu.probe (Machine.mem t.machine) ~ptb:t.v_ptb vaddr with
    | Some pte ->
      let frame = Mmu.frame_of pte in
      if Vm_layout.guest_owns t.layout frame then frame lor (vaddr land 0xFFF)
      else -1
    | None -> -1

let read t ~addr ~len =
  if len < 0 then None
  else begin
    let buf = Bytes.create len in
    let rec go pos =
      if pos = len then Some (Bytes.to_string buf)
      else
        let vaddr = addr + pos in
        let room = Int.min (len - pos) (Mmu.page_size - (vaddr land 0xFFF)) in
        let paddr = translate t vaddr in
        if paddr < 0 then None
        else begin
          Phys_mem.blit_to_bytes (Machine.mem t.machine) ~addr:paddr buf
            ~off:pos ~len:room;
          go (pos + room)
        end
    in
    go 0
  end

let write t ~addr ~data =
  let len = String.length data in
  let rec go pos =
    if pos = len then true
    else
      let vaddr = addr + pos in
      let room = Int.min (len - pos) (Mmu.page_size - (vaddr land 0xFFF)) in
      let paddr = translate t vaddr in
      if paddr < 0 then false
      else begin
        Phys_mem.load_bytes (Machine.mem t.machine) ~addr:paddr
          (Bytes.of_string (String.sub data pos room));
        go (pos + room)
      end
  in
  go 0

(* Stack words and gate entries: a word inside one page is one
   translation and one 32-bit access; only a word straddling a page goes
   through the byte-string path, each part translated in its own page. *)
let within_page vaddr = vaddr land 0xFFF <= Mmu.page_size - 4

let read_u32 t vaddr =
  if within_page vaddr then
    let paddr = translate t vaddr in
    if paddr < 0 then None
    else Some (Phys_mem.read_u32 (Machine.mem t.machine) paddr)
  else
    match read t ~addr:vaddr ~len:4 with
    | Some s ->
      Some
        (Char.code s.[0]
        lor (Char.code s.[1] lsl 8)
        lor (Char.code s.[2] lsl 16)
        lor (Char.code s.[3] lsl 24))
    | None -> None

let write_u32 t vaddr v =
  if within_page vaddr then
    let paddr = translate t vaddr in
    if paddr < 0 then false
    else begin
      Phys_mem.write_u32 (Machine.mem t.machine) paddr v;
      true
    end
  else
    let s = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF)) in
    write t ~addr:vaddr ~data:s

let guest_mapping t vaddr =
  let page = vaddr land lnot 0xFFF in
  if t.v_ptb = 0 then
    if Vm_layout.guest_owns t.layout page then Some (page, true, true)
    else None
  else
    match Mmu.probe (Machine.mem t.machine) ~ptb:t.v_ptb vaddr with
    | Some pte -> Some (Mmu.frame_of pte, Mmu.is_writable pte, Mmu.is_user pte)
    | None -> None

let permitted t (f : Mmu.fault) =
  match guest_mapping t f.Mmu.vaddr with
  | Some (frame, writable, user) as mapping
    when Vm_layout.guest_owns t.layout frame
         && (f.Mmu.access <> Mmu.Write || writable)
         && (t.v_cpl < 3 || user) ->
    mapping
  | Some _ | None -> None

(* -- Guest-visible flags -- *)

let flags_word t =
  Cpu.flags_word t.cpu land 0x7
  lor (if t.v_if then 0x200 else 0)
  lor (t.v_cpl lsl 12)

let set_flags_word t w =
  (* Restore condition codes into the real flags; keep real IF on (the
     monitor owns it) and the trap flag under stub control. *)
  let real = Cpu.flags_word t.cpu in
  Cpu.set_flags_word t.cpu (real land lnot 0x7 lor (w land 0x7));
  Cpu.set_interrupts_enabled t.cpu true;
  t.v_if <- w land 0x200 <> 0;
  t.v_cpl <- (w lsr 12) land 3;
  Cpu.set_cpl t.cpu (real_ring_of_vring t.v_cpl)

(* -- Delivery through the guest's virtual interrupt table -- *)

type delivery = Delivered | No_gate | Gate_dpl | Stack_unmapped

(* One word of an exception frame below [sp]: the new sp, or -1 once a
   word cannot be written. *)
let push t sp v =
  let below = (sp - 4) land 0xFFFFFFFF in
  if sp >= 0 && write_u32 t below v then below else -1

let deliver t ~check_dpl ~vector ~error ~return_pc =
  if vector < 0 || vector >= 64 then No_gate
  else
    let base = t.v_iht + (8 * vector) in
    match (read_u32 t base, read_u32 t (base + 4)) with
    | Some handler, Some info when Isa.gate_present info ->
      if check_dpl && Isa.gate_dpl info < t.v_cpl then Gate_dpl
      else begin
        let ring = Isa.gate_ring info in
        let sp0 =
          if ring < t.v_cpl then t.v_stacks.(ring) else Cpu.read_reg t.cpu Isa.sp
        in
        let flags = flags_word t in
        let sp = push t sp0 (Cpu.read_reg t.cpu Isa.sp) in
        let sp = push t sp flags in
        let sp = push t sp (return_pc land 0xFFFFFFFF) in
        let sp = push t sp (error land 0xFFFFFFFF) in
        if sp < 0 then Stack_unmapped
        else begin
          Cpu.write_reg t.cpu Isa.sp sp;
          t.v_cpl <- ring;
          Cpu.set_cpl t.cpu (real_ring_of_vring ring);
          t.v_if <- false;
          Cpu.set_pc t.cpu handler;
          charge t t.costs.Costs.interrupt_delivery;
          Delivered
        end
      end
    | _ -> No_gate

(* -- Virtual interrupts -- *)

let wake t =
  if t.v_halted then begin
    t.v_halted <- false;
    Cpu.set_halted t.cpu false
  end

let raise_irq t line =
  Pic.raise_irq t.vpic line;
  if t.v_if && Pic.pending t.vpic then wake t

(* The trap-flag check defers delivery across a single step. *)
let take_irq t =
  if
    t.v_if
    && (not (Cpu.stopped t.cpu))
    && (not (Cpu.trap_flag t.cpu))
    && Pic.pending t.vpic
  then
    match Pic.ack t.vpic with
    | Some _ as vector ->
      wake t;
      vector
    | None -> None
  else None

(* -- Privileged-instruction emulation (guest ring 0 only) -- *)

type emulation = Emulated | Irq_window | Bad_iret_frame | Not_privileged

let load_ptb t root =
  t.v_ptb <- root;
  flush_shadow t;
  charge t t.costs.Costs.shadow_pt_sync

let emulate t instr ~pc =
  let next = (pc + Isa.width) land 0xFFFFFFFF in
  match instr with
  | Isa.Sti ->
    t.v_if <- true;
    Cpu.set_pc t.cpu next;
    Irq_window
  | Isa.Cli ->
    t.v_if <- false;
    Cpu.set_pc t.cpu next;
    Emulated
  | Isa.Hlt ->
    t.v_halted <- true;
    Cpu.set_pc t.cpu next;
    if t.v_if && Pic.pending t.vpic then Irq_window
    else begin
      Cpu.set_halted t.cpu true;
      Emulated
    end
  | Isa.Iret ->
    let sp = Cpu.read_reg t.cpu Isa.sp in
    (match
       ( read_u32 t sp,
         read_u32 t (sp + 4),
         read_u32 t (sp + 8),
         read_u32 t (sp + 12) )
     with
     | Some _error, Some return_pc, Some flags, Some old_sp ->
       set_flags_word t flags;
       Cpu.write_reg t.cpu Isa.sp old_sp;
       Cpu.set_pc t.cpu return_pc;
       Irq_window
     | _ -> Bad_iret_frame)
  | Isa.Liht r ->
    t.v_iht <- Cpu.read_reg t.cpu r;
    Cpu.set_pc t.cpu next;
    Emulated
  | Isa.Lptb r ->
    load_ptb t (Cpu.read_reg t.cpu r);
    Cpu.set_pc t.cpu next;
    Emulated
  | Isa.Lstk (ring, r) ->
    t.v_stacks.(ring land 3) <- Cpu.read_reg t.cpu r;
    Cpu.set_pc t.cpu next;
    Emulated
  | Isa.Tlbflush ->
    flush_shadow t;
    Cpu.set_pc t.cpu next;
    Emulated
  | Isa.Nop | Isa.Movi _ | Isa.Mov _ | Isa.Add _ | Isa.Addi _ | Isa.Sub _
  | Isa.And_ _ | Isa.Or_ _ | Isa.Xor_ _ | Isa.Shl _ | Isa.Shr _ | Isa.Mul _
  | Isa.Cmp _ | Isa.Cmpi _ | Isa.Ld _ | Isa.St _ | Isa.Ldb _ | Isa.Stb _
  | Isa.Jmp _ | Isa.Jz _ | Isa.Jnz _ | Isa.Jlt _ | Isa.Jge _ | Isa.Jb _
  | Isa.Jae _ | Isa.Jr _ | Isa.Call _ | Isa.Ret | Isa.Push _ | Isa.Pop _
  | Isa.In_ _ | Isa.Ini _ | Isa.Out _ | Isa.Outi _ | Isa.Int_ _ | Isa.Copy _
  | Isa.Csum _ | Isa.Rdtsc _ | Isa.Vmcall _ | Isa.Brk ->
    Not_privileged

(* -- Shadow page tables -- *)

let shadow_map ?nx t ~vaddr ~frame ~writable ~user =
  (try Shadow.map ?nx t.shadow ~vaddr ~frame ~writable ~user
   with Shadow.Out_of_shadow_memory ->
     flush_shadow t;
     Shadow.map ?nx t.shadow ~vaddr ~frame ~writable ~user);
  Cpu.flush_tlb t.cpu

let shadow_unmap t pages =
  List.iter (fun vaddr -> Shadow.unmap t.shadow ~vaddr) pages;
  Cpu.flush_tlb t.cpu

let fill_shadow ?nx t ~vaddr ~frame ~writable ~user =
  shadow_map ?nx t ~vaddr ~frame ~writable ~user;
  charge t t.costs.Costs.shadow_pt_sync
