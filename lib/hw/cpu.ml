module Engine = Vmm_sim.Engine
module Stats = Vmm_sim.Stats

type gp_reason =
  | Privileged_instruction of Isa.instr
  | Io_denied of int
  | Bad_iret
  | Bad_int_gate of int
  | Bad_vector of int
  | Bad_ring of int

type fault_kind =
  | Page of Mmu.fault
  | Gp of gp_reason
  | Undefined of int
  | Breakpoint_trap
  | Step_trap
  | Machine_check of int

type event =
  | Fault of fault_kind * int
  | Irq of int
  | Soft_int of int * int
  | Hypercall of int * int

type hook_result = Handled | Deliver

exception Panic of string

exception Fault_exn of fault_kind

(* Decoded-instruction cache slot: physically tagged, validated against the
   memory write generations captured at fill time and the CPU-wide flush
   generation.  An 8-byte instruction can touch two generation granules;
   the sum of both granule generations is stored — generations only grow,
   so any store under either granule makes the sum diverge for good. *)
type icache_slot = {
  mutable itag : int; (* physical address, -1 = invalid *)
  mutable igen : int; (* summed Phys_mem granule generations at fill *)
  mutable iflush : int; (* icache_gen at fill *)
  mutable idecoded : Isa.instr;
}

let icache_slots = 2048
let icache_mask = icache_slots - 1

type t = {
  mem : Phys_mem.t;
  bus : Io_bus.t;
  engine : Engine.t;
  costs : Costs.t;
  load : Stats.load;
  mmu : Mmu.t;
  regs : int array;
  mutable pc : int;
  mutable z : bool;
  mutable n : bool;
  mutable c : bool;
  mutable tf : bool;
  mutable if_ : bool;
  mutable cpl : int;
  mutable iht : int;
  mutable ptb : int;
  stacks : int array;
  io_bitmap : Bytes.t;
  mutable halted : bool;
  mutable stopped : bool;
  mutable pic_ack : unit -> int option;
  mutable pic_pending : unit -> bool;
  mutable hypervisor : (t -> event -> hook_result) option;
  mutable retired : int64;
  mutable retire_stop : (int64 * (t -> unit)) option;
      (* reverse-debug replay-to-N: stop when [retired] reaches the
         target, between instructions *)
  mutable irqs_taken : int64;
  mutable faults : int64;
  mutable sample_period : int64;
      (* pc-sampling cadence in cycles; 0 = profiling off, and the
         dispatch loop pays exactly one Int64 compare per instruction *)
  mutable next_sample : int64;
  mutable sample_hook : pc:int -> cpl:int -> unit;
  fetch_buf : Bytes.t;
  icache : icache_slot array;
  mutable icache_gen : int;
  mutable ic_hits : int;
  mutable ic_misses : int;
  mutable ic_inval : int;
  (* Block translator (threaded code).  [jit_cyc]/[jit_ret] accumulate
     cycles and retirements in unboxed ints while a block chain runs and
     are flushed to the engine/stats/retired counters at every point
     where anything else could observe them; [jit_limit] is the cycle
     budget of the current chain, relative to the engine clock at chain
     entry, so the per-op continuation guard is one int compare. *)
  jcache : jblock option array;
  mutable jit_enabled : bool;
  mutable jit_cyc : int;
  mutable jit_ret : int;
  mutable jit_limit : int;
  mutable jit_vpn : int; (* virtual page of the executing block's text *)
  mutable jb_compiled : int;
  mutable jb_hits : int;
  mutable jb_inval : int;
  mutable jb_chains : int;
  mutable jb_fallbacks : int;
}

(* Compiled basic block: a straight-line decoded run (optionally ending
   in a direct/indirect jump, call or return) compiled into a chain of
   OCaml closures — threaded code.  Like an icache slot it is physically
   tagged and validated against the granule write generations captured
   over its whole text at compile time plus the CPU-wide flush stamp, so
   self-modifying stores, DMA over text, breakpoint patching and
   LPTB/TLBFLUSH invalidate it exactly as they invalidate decoded
   instructions today. *)
and jblock = {
  jb_ppc : int; (* physical address of the first instruction *)
  jb_bytes : int; (* total encoded length *)
  jb_gsum : int; (* summed granule generations over the text at compile *)
  jb_flush : int; (* icache_gen at compile *)
  jb_entry : t -> unit; (* head of the threaded-code chain *)
}

let table_entries = 64
let jcache_slots = 1024
let jcache_mask = jcache_slots - 1

(* Longest run compiled into one block.  Long enough that hot loops and
   leaf functions compile whole; short enough that a block's generation
   probe at dispatch stays a handful of granule reads. *)
let jit_max_block = 64

let create ~mem ~bus ~engine ~costs ~load () =
  {
    mem;
    bus;
    engine;
    costs;
    load;
    mmu = Mmu.create costs;
    regs = Array.make Isa.num_regs 0;
    pc = 0;
    z = false;
    n = false;
    c = false;
    tf = false;
    if_ = false;
    cpl = 0;
    iht = 0;
    ptb = 0;
    stacks = Array.make 4 0;
    io_bitmap = Bytes.make 8192 '\000';
    halted = false;
    stopped = false;
    pic_ack = (fun () -> None);
    pic_pending = (fun () -> false);
    hypervisor = None;
    retired = 0L;
    retire_stop = None;
    irqs_taken = 0L;
    faults = 0L;
    sample_period = 0L;
    next_sample = 0L;
    sample_hook = (fun ~pc:_ ~cpl:_ -> ());
    fetch_buf = Bytes.make Isa.width '\000';
    icache =
      Array.init icache_slots (fun _ ->
          { itag = -1; igen = 0; iflush = 0; idecoded = Isa.Nop });
    icache_gen = 0;
    ic_hits = 0;
    ic_misses = 0;
    ic_inval = 0;
    jcache = Array.make jcache_slots None;
    jit_enabled = true;
    jit_cyc = 0;
    jit_ret = 0;
    jit_limit = 0;
    jit_vpn = 0;
    jb_compiled = 0;
    jb_hits = 0;
    jb_inval = 0;
    jb_chains = 0;
    jb_fallbacks = 0;
  }

let set_pic t ~ack ~pending =
  t.pic_ack <- ack;
  t.pic_pending <- pending

let set_hypervisor t hook = t.hypervisor <- hook
let has_hypervisor t = t.hypervisor <> None

(* -- Architectural state -- *)

let read_reg t r = t.regs.(r)
let write_reg t r v = t.regs.(r) <- Word.mask v
let pc t = t.pc
let set_pc t v = t.pc <- Word.mask v
let cpl t = t.cpl
let set_cpl t v = t.cpl <- v land 3

let flags_word t =
  (if t.z then 1 else 0)
  lor (if t.n then 2 else 0)
  lor (if t.c then 4 else 0)
  lor (if t.tf then 0x100 else 0)
  lor (if t.if_ then 0x200 else 0)
  lor (t.cpl lsl 12)

let set_flags_word t w =
  t.z <- w land 1 <> 0;
  t.n <- w land 2 <> 0;
  t.c <- w land 4 <> 0;
  t.tf <- w land 0x100 <> 0;
  t.if_ <- w land 0x200 <> 0;
  t.cpl <- (w lsr 12) land 3

let interrupts_enabled t = t.if_
let set_interrupts_enabled t v = t.if_ <- v
let trap_flag t = t.tf
let set_trap_flag t v = t.tf <- v
let iht_base t = t.iht
let set_iht_base t v = t.iht <- Word.mask v
let ptb t = t.ptb

let flush_tlb t =
  Mmu.flush t.mmu;
  (* O(1) whole-icache drop: entries filled under an older generation stop
     validating.  The monitor flushes on every shadow-table update, so this
     must not walk the array. *)
  t.icache_gen <- t.icache_gen + 1

let set_ptb t v =
  t.ptb <- Word.mask v;
  flush_tlb t

let ring_stack t ring = t.stacks.(ring land 3)
let set_ring_stack t ring v = t.stacks.(ring land 3) <- Word.mask v
let halted t = t.halted
let set_halted t v = t.halted <- v
let stopped t = t.stopped
let set_stopped t v = t.stopped <- v

(* -- I/O permission bitmap -- *)

let allow_port t port allowed =
  if port < 0 || port >= Io_bus.port_space then invalid_arg "Cpu.allow_port";
  let byte = Char.code (Bytes.get t.io_bitmap (port lsr 3)) in
  let bit = 1 lsl (port land 7) in
  let byte = if allowed then byte lor bit else byte land lnot bit in
  Bytes.set t.io_bitmap (port lsr 3) (Char.chr byte)

let port_allowed t port =
  port >= 0
  && port < Io_bus.port_space
  && Char.code (Bytes.get t.io_bitmap (port lsr 3)) land (1 lsl (port land 7)) <> 0

(* -- Cycle accounting -- *)

let charge t cycles =
  if cycles > 0 then begin
    let c = Int64.of_int cycles in
    Engine.advance t.engine c;
    Stats.note_busy t.load c
  end

(* -- Translated memory access -- *)

let translate t ~access ~cpl vaddr =
  let paddr, extra =
    Mmu.translate t.mmu t.mem ~ptb:t.ptb ~cpl access (Word.mask vaddr)
  in
  charge t extra;
  paddr

(* Multi-byte accesses that straddle a page fall back to byte-at-a-time so
   each byte is translated in its own page. *)
let load_u32 t ~cpl vaddr =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then
    Phys_mem.read_u32 t.mem (translate t ~access:Mmu.Read ~cpl vaddr)
  else begin
    let b0 = Phys_mem.read_u8 t.mem (translate t ~access:Mmu.Read ~cpl vaddr) in
    let b1 =
      Phys_mem.read_u8 t.mem
        (translate t ~access:Mmu.Read ~cpl (Word.add vaddr 1))
    in
    let b2 =
      Phys_mem.read_u8 t.mem
        (translate t ~access:Mmu.Read ~cpl (Word.add vaddr 2))
    in
    let b3 =
      Phys_mem.read_u8 t.mem
        (translate t ~access:Mmu.Read ~cpl (Word.add vaddr 3))
    in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  end

let store_u32 t ~cpl vaddr v =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then
    Phys_mem.write_u32 t.mem (translate t ~access:Mmu.Write ~cpl vaddr) v
  else
    for i = 0 to 3 do
      Phys_mem.write_u8 t.mem
        (translate t ~access:Mmu.Write ~cpl (Word.add vaddr i))
        ((v lsr (8 * i)) land 0xFF)
    done

let load_u8 t ~cpl vaddr =
  Phys_mem.read_u8 t.mem (translate t ~access:Mmu.Read ~cpl (Word.mask vaddr))

let store_u8 t ~cpl vaddr v =
  Phys_mem.write_u8 t.mem
    (translate t ~access:Mmu.Write ~cpl (Word.mask vaddr))
    v

(* -- Interrupt table -- *)

type gate = { handler : int; present : bool; ring : int; dpl : int }

let read_gate t ~table ~vector =
  if vector < 0 || vector >= table_entries then
    raise (Fault_exn (Gp (Bad_vector vector)));
  let base = Word.add table (8 * vector) in
  let handler = load_u32 t ~cpl:0 base in
  let info = load_u32 t ~cpl:0 (Word.add base 4) in
  {
    handler;
    present = info land 1 <> 0;
    ring = (info lsr 1) land 3;
    dpl = (info lsr 3) land 3;
  }

let push_frame t ~ring ~sp ~value =
  let sp = Word.sub sp 4 in
  store_u32 t ~cpl:ring sp value;
  sp

let deliver t ~table ~vector ~error ~return_pc =
  let gate = read_gate t ~table ~vector in
  if not gate.present then
    raise (Panic (Printf.sprintf "no handler for vector %d" vector));
  let old_sp = t.regs.(Isa.sp) in
  let old_flags = flags_word t in
  let ring = gate.ring in
  let sp0 = if ring < t.cpl then t.stacks.(ring) else old_sp in
  let sp1 = push_frame t ~ring ~sp:sp0 ~value:old_sp in
  let sp2 = push_frame t ~ring ~sp:sp1 ~value:old_flags in
  let sp3 = push_frame t ~ring ~sp:sp2 ~value:(Word.mask return_pc) in
  let sp4 = push_frame t ~ring ~sp:sp3 ~value:(Word.mask error) in
  t.regs.(Isa.sp) <- sp4;
  t.cpl <- ring;
  t.if_ <- false;
  t.tf <- false;
  t.pc <- gate.handler;
  charge t t.costs.interrupt_delivery

let do_iret t =
  let sp = t.regs.(Isa.sp) in
  let _error = load_u32 t ~cpl:0 sp in
  let return_pc = load_u32 t ~cpl:0 (Word.add sp 4) in
  let flags = load_u32 t ~cpl:0 (Word.add sp 8) in
  let old_sp = load_u32 t ~cpl:0 (Word.add sp 12) in
  set_flags_word t flags;
  t.regs.(Isa.sp) <- old_sp;
  t.pc <- return_pc;
  charge t t.costs.iret_cost

(* -- Fault dispatch -- *)

let vector_and_error = function
  | Page f -> (Isa.vec_page_fault, Word.mask f.Mmu.vaddr)
  | Gp (Io_denied port) -> (Isa.vec_protection, port)
  | Gp (Bad_int_gate v) -> (Isa.vec_protection, v)
  | Gp (Bad_vector v) -> (Isa.vec_protection, v)
  | Gp (Privileged_instruction _) | Gp Bad_iret | Gp (Bad_ring _) ->
    (Isa.vec_protection, 0)
  | Undefined opcode -> (Isa.vec_undefined, opcode)
  | Breakpoint_trap -> (Isa.vec_breakpoint, 0)
  | Step_trap -> (Isa.vec_debug_step, 0)
  | Machine_check addr -> (Isa.vec_machine_check, Word.mask addr)

let hw_deliver_fault t kind ~return_pc =
  let vector, error = vector_and_error kind in
  try deliver t ~table:t.iht ~vector ~error ~return_pc with
  | Fault_exn _ | Mmu.Page_fault _ | Phys_mem.Bus_error _ ->
    raise (Panic (Printf.sprintf "double fault delivering vector %d" vector))

let dispatch_fault t kind ~return_pc =
  t.faults <- Int64.add t.faults 1L;
  match t.hypervisor with
  | Some hook ->
    (match hook t (Fault (kind, return_pc)) with
     | Handled -> ()
     | Deliver -> hw_deliver_fault t kind ~return_pc)
  | None -> hw_deliver_fault t kind ~return_pc

let poll_interrupts t =
  let bare_metal = match t.hypervisor with None -> true | Some _ -> false in
  if t.if_ && t.pic_pending () && not (t.stopped && bare_metal) then
    match t.pic_ack () with
    | None -> ()
    | Some vector ->
      t.halted <- false;
      t.irqs_taken <- Int64.add t.irqs_taken 1L;
      (match t.hypervisor with
       | Some hook ->
         (match hook t (Irq vector) with
          | Handled -> ()
          | Deliver ->
            deliver t ~table:t.iht ~vector ~error:0 ~return_pc:t.pc)
       | None -> deliver t ~table:t.iht ~vector ~error:0 ~return_pc:t.pc)

let dispatch_soft t ~vector ~next_pc =
  match t.hypervisor with
  | Some hook ->
    (match hook t (Soft_int (vector, next_pc)) with
     | Handled -> ()
     | Deliver ->
       let gate = read_gate t ~table:t.iht ~vector in
       if (not gate.present) || gate.dpl < t.cpl then
         raise (Fault_exn (Gp (Bad_int_gate vector)))
       else deliver t ~table:t.iht ~vector ~error:0 ~return_pc:next_pc)
  | None ->
    let gate = read_gate t ~table:t.iht ~vector in
    if (not gate.present) || gate.dpl < t.cpl then
      raise (Fault_exn (Gp (Bad_int_gate vector)))
    else deliver t ~table:t.iht ~vector ~error:0 ~return_pc:next_pc

(* -- Fetch -- *)

let fetch_cached t paddr =
  let slot = Array.unsafe_get t.icache ((paddr lsr 3) land icache_mask) in
  let pgen =
    Phys_mem.generation t.mem paddr
    + Phys_mem.generation t.mem (paddr + (Isa.width - 1))
  in
  if slot.itag = paddr && slot.iflush = t.icache_gen && slot.igen = pgen
  then begin
    t.ic_hits <- t.ic_hits + 1;
    slot.idecoded
  end
  else begin
    if slot.itag = paddr then t.ic_inval <- t.ic_inval + 1;
    t.ic_misses <- t.ic_misses + 1;
    let instr = Isa.read t.mem paddr in
    slot.itag <- paddr;
    slot.igen <- pgen;
    slot.iflush <- t.icache_gen;
    slot.idecoded <- instr;
    instr
  end

let fetch t =
  let pc = t.pc in
  if pc land 0xFFF <= Mmu.page_size - Isa.width then begin
    let paddr = translate t ~access:Mmu.Exec ~cpl:t.cpl pc in
    if paddr >= 0 && paddr + Isa.width <= Phys_mem.size t.mem then
      fetch_cached t paddr
    else
      (* Translation does not bound physical addresses (identity map when
         paging is off, PTE frames above RAM), and the generation probe in
         [fetch_cached] is unchecked — take the checked read, which raises
         Bus_error and becomes a guest machine check. *)
      Isa.read t.mem paddr
  end
  else begin
    for i = 0 to Isa.width - 1 do
      let paddr = translate t ~access:Mmu.Exec ~cpl:t.cpl (Word.add pc i) in
      Bytes.set t.fetch_buf i (Char.chr (Phys_mem.read_u8 t.mem paddr))
    done;
    Isa.decode ~addr:pc t.fetch_buf ~off:0
  end

(* -- Port I/O -- *)

let check_port t port =
  if t.cpl <> 0 && not (port_allowed t port) then
    raise (Fault_exn (Gp (Io_denied port)))

let port_in t port =
  let port = port land 0xFFFF in
  check_port t port;
  charge t t.costs.port_io;
  Io_bus.read t.bus port

let port_out t port v =
  let port = port land 0xFFFF in
  check_port t port;
  charge t t.costs.port_io;
  Io_bus.write t.bus port v

(* -- Block operations -- *)

let copy_block t ~dst ~src ~len =
  charge t (Costs.cycles_for_bytes ~per_byte:t.costs.copy_per_byte len);
  let rec go dst src len =
    if len > 0 then begin
      let src_room = Mmu.page_size - (src land 0xFFF) in
      let dst_room = Mmu.page_size - (dst land 0xFFF) in
      let chunk = min len (min src_room dst_room) in
      let psrc = translate t ~access:Mmu.Read ~cpl:t.cpl src in
      let pdst = translate t ~access:Mmu.Write ~cpl:t.cpl dst in
      Phys_mem.blit t.mem ~src:psrc ~dst:pdst ~len:chunk;
      go (Word.add dst chunk) (Word.add src chunk) (len - chunk)
    end
  in
  go (Word.mask dst) (Word.mask src) len

let checksum_block t ~addr ~len =
  charge t (Costs.cycles_for_bytes ~per_byte:t.costs.csum_per_byte len);
  (* Internet checksum with little-endian 16-bit pairing, accumulated chunk
     by chunk so page boundaries keep global byte parity. *)
  let sum = ref 0 in
  let index = ref 0 in
  let rec go addr len =
    if len > 0 then begin
      let room = Mmu.page_size - (addr land 0xFFF) in
      let chunk = min len room in
      let paddr = translate t ~access:Mmu.Read ~cpl:t.cpl addr in
      sum := Phys_mem.checksum_add t.mem ~addr:paddr ~len:chunk ~index:!index !sum;
      index := !index + chunk;
      go (Word.add addr chunk) (len - chunk)
    end
  in
  go (Word.mask addr) len;
  let s = ref !sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

(* -- Execution -- *)

let require_ring0 t i =
  if t.cpl <> 0 then raise (Fault_exn (Gp (Privileged_instruction i)))

let set_zn t v =
  t.z <- v = 0;
  t.n <- v land 0x80000000 <> 0

let exec t instr =
  let next = Word.add t.pc Isa.width in
  let r = t.regs in
  let goto a = t.pc <- Word.mask a in
  charge t (Isa.base_cycles t.costs instr);
  match instr with
  | Isa.Nop -> goto next
  | Isa.Hlt ->
    require_ring0 t instr;
    t.halted <- true;
    goto next
  | Isa.Movi (rd, imm) ->
    r.(rd) <- imm;
    goto next
  | Isa.Mov (rd, rs) ->
    r.(rd) <- r.(rs);
    goto next
  | Isa.Add (rd, a, b) ->
    r.(rd) <- Word.add r.(a) r.(b);
    set_zn t r.(rd);
    goto next
  | Isa.Addi (rd, a, imm) ->
    r.(rd) <- Word.add r.(a) imm;
    set_zn t r.(rd);
    goto next
  | Isa.Sub (rd, a, b) ->
    r.(rd) <- Word.sub r.(a) r.(b);
    set_zn t r.(rd);
    goto next
  | Isa.And_ (rd, a, b) ->
    r.(rd) <- Word.logand r.(a) r.(b);
    set_zn t r.(rd);
    goto next
  | Isa.Or_ (rd, a, b) ->
    r.(rd) <- Word.logor r.(a) r.(b);
    set_zn t r.(rd);
    goto next
  | Isa.Xor_ (rd, a, b) ->
    r.(rd) <- Word.logxor r.(a) r.(b);
    set_zn t r.(rd);
    goto next
  | Isa.Shl (rd, a, b) ->
    r.(rd) <- Word.shift_left r.(a) r.(b);
    set_zn t r.(rd);
    goto next
  | Isa.Shr (rd, a, b) ->
    r.(rd) <- Word.shift_right r.(a) r.(b);
    set_zn t r.(rd);
    goto next
  | Isa.Mul (rd, a, b) ->
    r.(rd) <- Word.mul r.(a) r.(b);
    set_zn t r.(rd);
    goto next
  | Isa.Cmp (a, b) ->
    t.z <- Word.equal r.(a) r.(b);
    t.n <- Word.signed_lt r.(a) r.(b);
    t.c <- Word.unsigned_lt r.(a) r.(b);
    goto next
  | Isa.Cmpi (a, imm) ->
    t.z <- Word.equal r.(a) imm;
    t.n <- Word.signed_lt r.(a) imm;
    t.c <- Word.unsigned_lt r.(a) imm;
    goto next
  | Isa.Ld (rd, base, imm) ->
    r.(rd) <- load_u32 t ~cpl:t.cpl (Word.add r.(base) imm);
    goto next
  | Isa.St (base, imm, src) ->
    store_u32 t ~cpl:t.cpl (Word.add r.(base) imm) r.(src);
    goto next
  | Isa.Ldb (rd, base, imm) ->
    r.(rd) <- load_u8 t ~cpl:t.cpl (Word.add r.(base) imm);
    goto next
  | Isa.Stb (base, imm, src) ->
    store_u8 t ~cpl:t.cpl (Word.add r.(base) imm) (r.(src) land 0xFF);
    goto next
  | Isa.Jmp target -> goto target
  | Isa.Jz target -> goto (if t.z then target else next)
  | Isa.Jnz target -> goto (if not t.z then target else next)
  | Isa.Jlt target -> goto (if t.n then target else next)
  | Isa.Jge target -> goto (if not t.n then target else next)
  | Isa.Jb target -> goto (if t.c then target else next)
  | Isa.Jae target -> goto (if not t.c then target else next)
  | Isa.Jr rs -> goto r.(rs)
  | Isa.Call target ->
    let sp = Word.sub r.(Isa.sp) 4 in
    store_u32 t ~cpl:t.cpl sp next;
    r.(Isa.sp) <- sp;
    goto target
  | Isa.Ret ->
    let sp = r.(Isa.sp) in
    let target = load_u32 t ~cpl:t.cpl sp in
    r.(Isa.sp) <- Word.add sp 4;
    goto target
  | Isa.Push rs ->
    let sp = Word.sub r.(Isa.sp) 4 in
    store_u32 t ~cpl:t.cpl sp r.(rs);
    r.(Isa.sp) <- sp;
    goto next
  | Isa.Pop rd ->
    let sp = r.(Isa.sp) in
    let v = load_u32 t ~cpl:t.cpl sp in
    r.(Isa.sp) <- Word.add sp 4;
    r.(rd) <- v;
    goto next
  | Isa.In_ (rd, rs) ->
    r.(rd) <- Word.mask (port_in t r.(rs));
    goto next
  | Isa.Ini (rd, imm) ->
    r.(rd) <- Word.mask (port_in t imm);
    goto next
  | Isa.Out (p, v) ->
    port_out t r.(p) r.(v);
    goto next
  | Isa.Outi (imm, v) ->
    port_out t imm r.(v);
    goto next
  | Isa.Int_ vector -> dispatch_soft t ~vector ~next_pc:next
  | Isa.Iret ->
    require_ring0 t instr;
    do_iret t
  | Isa.Sti ->
    require_ring0 t instr;
    t.if_ <- true;
    goto next
  | Isa.Cli ->
    require_ring0 t instr;
    t.if_ <- false;
    goto next
  | Isa.Liht rs ->
    require_ring0 t instr;
    t.iht <- r.(rs);
    goto next
  | Isa.Lptb rs ->
    require_ring0 t instr;
    set_ptb t r.(rs);
    goto next
  | Isa.Lstk (ring, rs) ->
    require_ring0 t instr;
    t.stacks.(ring land 3) <- r.(rs);
    goto next
  | Isa.Tlbflush ->
    require_ring0 t instr;
    flush_tlb t;
    goto next
  | Isa.Copy (d, s, n) ->
    copy_block t ~dst:r.(d) ~src:r.(s) ~len:r.(n);
    goto next
  | Isa.Csum (rd, a, n) ->
    r.(rd) <- checksum_block t ~addr:r.(a) ~len:r.(n);
    goto next
  | Isa.Rdtsc rd ->
    r.(rd) <- Word.mask (Int64.to_int (Engine.now t.engine));
    goto next
  | Isa.Vmcall imm ->
    (match t.hypervisor with
     | Some hook ->
       goto next;
       ignore (hook t (Hypercall (imm, next)))
     | None -> raise (Fault_exn (Undefined 0x2E)))
  | Isa.Brk -> raise (Fault_exn Breakpoint_trap)

(* -- Basic-block threaded-code translator --

   [jit_run] replaces [step] inside the batched dispatch loop whenever no
   per-instruction observer is armed (no trap flag, no retire stop, no
   deliverable interrupt).  It compiles straight-line decoded runs into
   chains of closures keyed by physical pc and executes them, chaining
   across taken jumps/calls/returns while the cycle budget holds.

   Bit-identity with the per-instruction interpreter rests on four
   invariants:

   1. Frozen clock.  While a chain runs, nothing reads the engine clock:
      every charge lands in the unboxed [jit_cyc] accumulator, so true
      time is always [now-at-entry + jit_cyc], and the per-op budget
      guard [jit_cyc < jit_limit] is exactly the unbatched loop's
      [now < min horizon next_sample] test.  The accumulator (and the
      retirement accumulator [jit_ret]) is flushed before anything that
      could observe the clock or counters runs: an interpreter fallback,
      a fault hook, or returning to [run_batch].  Chains therefore stop
      on the same instruction boundary where the unbatched loop would
      have stopped for the horizon, a profiler sample, or an event.

   2. Poll elision.  Compiled ops cannot change IF, HALT, the PIC, or
      schedule events — STI/CLI/HLT/OUT/VMCALL and friends never compile
      — so if no interrupt was deliverable when the chain started (the
      dispatcher checks), none can become deliverable mid-chain, and the
      skipped per-instruction polls were all no-ops.

   3. Fetch elision.  Instruction 1's fetch-translate runs for real at
      dispatch (charging a TLB miss and setting accessed bits exactly
      like the interpreter's fetch).  Later ops skip it, which is only
      visible if a data access evicts the code page's direct-mapped TLB
      entry — the next fetch would walk again, charging cycles and
      writing accessed bits.  Memory ops therefore guard on
      [Mmu.tlb_covers] for the code page and bail to the dispatcher when
      it fails (with paging off there is nothing to evict).  The only
      tolerated divergence is the MMU's internal hit counter, which no
      guest-visible path reads.

   4. Text stability.  A block is (re)validated at every dispatch against
      the granule write generations of its whole text plus the flush
      stamp.  Mid-chain, the only writers are the compiled stores
      themselves: each store checks its physical range against the
      block's text and stops the chain short when it intersects, so the
      remaining stale ops never run — the dispatcher revalidates,
      recompiles from the fresh bytes and continues.  DMA and host writes
      cannot happen mid-chain because no events dispatch mid-chain.

   Faults propagate out of the chain as exceptions with pc still at the
   faulting instruction (ops advance pc only after all faulting work is
   done, like [exec]); the handler flushes the accumulators and
   dispatches with [return_pc = pc], then returns to [run_batch] — hooks
   may halt, stop, schedule or retarget the CPU, all of which the batch
   loop re-checks. *)

let jit_flush t =
  if t.jit_cyc > 0 then begin
    let c = Int64.of_int t.jit_cyc in
    Engine.advance t.engine c;
    Stats.note_busy t.load c;
    t.jit_cyc <- 0
  end;
  if t.jit_ret > 0 then begin
    t.retired <- Int64.add t.retired (Int64.of_int t.jit_ret);
    t.jit_ret <- 0
  end

(* Translation for compiled ops: identical to [translate]/[load_u32]/...
   except the TLB-miss penalty lands in the accumulator instead of the
   engine (invariant 1 above). *)
let jit_translate t ~access vaddr =
  let paddr, extra =
    Mmu.translate t.mmu t.mem ~ptb:t.ptb ~cpl:t.cpl access (Word.mask vaddr)
  in
  if extra > 0 then t.jit_cyc <- t.jit_cyc + extra;
  paddr

let jit_load_u32 t vaddr =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then
    Phys_mem.read_u32 t.mem (jit_translate t ~access:Mmu.Read vaddr)
  else begin
    let b0 = Phys_mem.read_u8 t.mem (jit_translate t ~access:Mmu.Read vaddr) in
    let b1 =
      Phys_mem.read_u8 t.mem (jit_translate t ~access:Mmu.Read (Word.add vaddr 1))
    in
    let b2 =
      Phys_mem.read_u8 t.mem (jit_translate t ~access:Mmu.Read (Word.add vaddr 2))
    in
    let b3 =
      Phys_mem.read_u8 t.mem (jit_translate t ~access:Mmu.Read (Word.add vaddr 3))
    in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  end

let jit_load_u8 t vaddr =
  Phys_mem.read_u8 t.mem (jit_translate t ~access:Mmu.Read (Word.mask vaddr))

(* Plain store, used by the block-final CALL (no ops follow, so a store
   over this block's own text needs no special handling — the next
   dispatch revalidates). *)
let jit_store_u32 t vaddr v =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then
    Phys_mem.write_u32 t.mem (jit_translate t ~access:Mmu.Write vaddr) v
  else
    for i = 0 to 3 do
      Phys_mem.write_u8 t.mem
        (jit_translate t ~access:Mmu.Write (Word.add vaddr i))
        ((v lsr (8 * i)) land 0xFF)
    done

(* Mid-block stores report whether they wrote over the block's own text
   (invariant 4): [true] means the chain must stop before the next op. *)
let jit_store_u32_chk t ~bppc ~bbytes vaddr v =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then begin
    let p = jit_translate t ~access:Mmu.Write vaddr in
    Phys_mem.write_u32 t.mem p v;
    p + 4 > bppc && p < bppc + bbytes
  end
  else begin
    let hit = ref false in
    for i = 0 to 3 do
      let p = jit_translate t ~access:Mmu.Write (Word.add vaddr i) in
      Phys_mem.write_u8 t.mem p ((v lsr (8 * i)) land 0xFF);
      if p >= bppc && p < bppc + bbytes then hit := true
    done;
    !hit
  end

let jit_store_u8_chk t ~bppc ~bbytes vaddr v =
  let p = jit_translate t ~access:Mmu.Write (Word.mask vaddr) in
  Phys_mem.write_u8 t.mem p v;
  p >= bppc && p < bppc + bbytes

(* Chain terminator for blocks that end at a page boundary or an
   interpreter-only instruction: pc already points at the
   next instruction, so the dispatcher takes over. *)
let jit_block_end (_ : t) = ()

(* Mid-block instruction set.  Every constructor accepted here has a
   matching arm in [compile_op]; keep the two in sync.  The excluded
   fallthrough instructions (I/O, privileged control, COPY/CSUM, RDTSC,
   VMCALL, INT, HLT) end the block and run in the interpreter: they
   reach devices, rings, the clock or the monitor — exactly where the
   unbatched loop's per-instruction bookkeeping is observable. *)
let jit_compiles_mid = function
  | Isa.Nop | Isa.Movi _ | Isa.Mov _ | Isa.Add _ | Isa.Addi _ | Isa.Sub _
  | Isa.And_ _ | Isa.Or_ _ | Isa.Xor_ _ | Isa.Shl _ | Isa.Shr _ | Isa.Mul _
  | Isa.Cmp _ | Isa.Cmpi _ | Isa.Ld _ | Isa.St _ | Isa.Ldb _ | Isa.Stb _
  | Isa.Push _ | Isa.Pop _ ->
    true
  | _ -> false

(* Compile one straight-line instruction into an op closure.  Each op
   charges its base cost into the accumulator, replicates [exec]'s work
   and state-update order exactly (pc advances only after all faulting
   work, flags after the result write), counts the retirement, and
   tail-calls [next] while the cycle budget holds — memory ops, the only
   ops that can disturb the TLB, additionally require the code page to
   still be resident (invariant 3).  Returns [None] for instructions
   that must run in the interpreter. *)
let compile_op cpu instr ~bppc ~bbytes ~(next : t -> unit) : (t -> unit) option
    =
  let w = Isa.width in
  let cyc = Isa.base_cycles cpu.costs instr in
  match instr with
  | Isa.Nop ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Movi (rd, imm) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.regs.(rd) <- imm;
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Mov (rd, rs) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.regs.(rd) <- t.regs.(rs);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Add (rd, a, b) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        r.(rd) <- Word.add r.(a) r.(b);
        set_zn t r.(rd);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Addi (rd, a, imm) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        r.(rd) <- Word.add r.(a) imm;
        set_zn t r.(rd);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Sub (rd, a, b) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        r.(rd) <- Word.sub r.(a) r.(b);
        set_zn t r.(rd);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.And_ (rd, a, b) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        r.(rd) <- Word.logand r.(a) r.(b);
        set_zn t r.(rd);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Or_ (rd, a, b) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        r.(rd) <- Word.logor r.(a) r.(b);
        set_zn t r.(rd);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Xor_ (rd, a, b) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        r.(rd) <- Word.logxor r.(a) r.(b);
        set_zn t r.(rd);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Shl (rd, a, b) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        r.(rd) <- Word.shift_left r.(a) r.(b);
        set_zn t r.(rd);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Shr (rd, a, b) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        r.(rd) <- Word.shift_right r.(a) r.(b);
        set_zn t r.(rd);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Mul (rd, a, b) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        r.(rd) <- Word.mul r.(a) r.(b);
        set_zn t r.(rd);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Cmp (a, b) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        t.z <- Word.equal r.(a) r.(b);
        t.n <- Word.signed_lt r.(a) r.(b);
        t.c <- Word.unsigned_lt r.(a) r.(b);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Cmpi (a, imm) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        t.z <- Word.equal r.(a) imm;
        t.n <- Word.signed_lt r.(a) imm;
        t.c <- Word.unsigned_lt r.(a) imm;
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if t.jit_cyc < t.jit_limit then next t)
  | Isa.Ld (rd, base, imm) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        r.(rd) <- jit_load_u32 t (Word.add r.(base) imm);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if
          t.jit_cyc < t.jit_limit
          && (t.ptb = 0 || Mmu.tlb_covers t.mmu ~vpn:t.jit_vpn)
        then next t)
  | Isa.St (base, imm, src) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let hit = jit_store_u32_chk t ~bppc ~bbytes (Word.add r.(base) imm) r.(src) in
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if
          (not hit)
          && t.jit_cyc < t.jit_limit
          && (t.ptb = 0 || Mmu.tlb_covers t.mmu ~vpn:t.jit_vpn)
        then next t)
  | Isa.Ldb (rd, base, imm) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        r.(rd) <- jit_load_u8 t (Word.add r.(base) imm);
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if
          t.jit_cyc < t.jit_limit
          && (t.ptb = 0 || Mmu.tlb_covers t.mmu ~vpn:t.jit_vpn)
        then next t)
  | Isa.Stb (base, imm, src) ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let hit =
          jit_store_u8_chk t ~bppc ~bbytes (Word.add r.(base) imm)
            (r.(src) land 0xFF)
        in
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if
          (not hit)
          && t.jit_cyc < t.jit_limit
          && (t.ptb = 0 || Mmu.tlb_covers t.mmu ~vpn:t.jit_vpn)
        then next t)
  | Isa.Push rs ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let sp = Word.sub r.(Isa.sp) 4 in
        let hit = jit_store_u32_chk t ~bppc ~bbytes sp r.(rs) in
        r.(Isa.sp) <- sp;
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if
          (not hit)
          && t.jit_cyc < t.jit_limit
          && (t.ptb = 0 || Mmu.tlb_covers t.mmu ~vpn:t.jit_vpn)
        then next t)
  | Isa.Pop rd ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let sp = r.(Isa.sp) in
        let v = jit_load_u32 t sp in
        r.(Isa.sp) <- Word.add sp 4;
        r.(rd) <- v;
        t.pc <- Word.add t.pc w;
        t.jit_ret <- t.jit_ret + 1;
        if
          t.jit_cyc < t.jit_limit
          && (t.ptb = 0 || Mmu.tlb_covers t.mmu ~vpn:t.jit_vpn)
        then next t)
  | _ -> None

(* Compile a block-final control transfer.  These end the chain — the
   dispatcher decides whether to follow (superblock chaining) — so they
   carry no continuation guard.  Returns [None] for anything that is not
   a compilable transfer (IRET, BRK and all fallthroughs take the
   interpreter). *)
let compile_final cpu instr : (t -> unit) option =
  let w = Isa.width in
  let cyc = Isa.base_cycles cpu.costs instr in
  match instr with
  | Isa.Jmp target ->
    let tgt = Word.mask target in
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.pc <- tgt;
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Jz target ->
    let tgt = Word.mask target in
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.pc <- (if t.z then tgt else Word.add t.pc w);
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Jnz target ->
    let tgt = Word.mask target in
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.pc <- (if not t.z then tgt else Word.add t.pc w);
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Jlt target ->
    let tgt = Word.mask target in
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.pc <- (if t.n then tgt else Word.add t.pc w);
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Jge target ->
    let tgt = Word.mask target in
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.pc <- (if not t.n then tgt else Word.add t.pc w);
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Jb target ->
    let tgt = Word.mask target in
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.pc <- (if t.c then tgt else Word.add t.pc w);
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Jae target ->
    let tgt = Word.mask target in
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.pc <- (if not t.c then tgt else Word.add t.pc w);
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Jr rs ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.pc <- Word.mask t.regs.(rs);
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Call target ->
    let tgt = Word.mask target in
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let ret = Word.add t.pc w in
        let sp = Word.sub r.(Isa.sp) 4 in
        jit_store_u32 t sp ret;
        r.(Isa.sp) <- sp;
        t.pc <- tgt;
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Ret ->
    Some
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let sp = r.(Isa.sp) in
        let tgt = jit_load_u32 t sp in
        r.(Isa.sp) <- Word.add sp 4;
        t.pc <- Word.mask tgt;
        t.jit_ret <- t.jit_ret + 1)
  | _ -> None

let jit_gsum t ~ppc ~bytes =
  let g = Phys_mem.granule_bits in
  let first = ppc lsr g and last = (ppc + bytes - 1) lsr g in
  let sum = ref 0 in
  for i = first to last do
    sum := !sum + Phys_mem.generation t.mem (i lsl g)
  done;
  !sum

(* Compile the run starting at [vpc] (physically at [ppc], both inside
   one page — blocks never cross a page boundary, so virtual and
   physical offsets advance in lockstep).  Stops at the page end, the
   length cap, an interpreter-only instruction (BRK among them, so a
   planted trap always runs in the interpreter), or an undecodable
   slot.  Ops are chained back to front; pc updates inside ops are
   pc-relative (or absolute targets from the encoding), so a block is
   reusable across virtual mappings of the same physical text — which
   is exactly what physical keying promises. *)
let compile_block t ~vpc ~ppc : jblock option =
  let w = Isa.width in
  let vroom = (Mmu.page_size - (vpc land (Mmu.page_size - 1))) / w in
  let proom = (Phys_mem.size t.mem - ppc) / w in
  let room = min jit_max_block (min vroom proom) in
  let mids = Array.make (max room 1) Isa.Nop in
  let n_mid = ref 0 in
  let final = ref None in
  let stop = ref false in
  while (not !stop) && Option.is_none !final && !n_mid < room do
    let off = !n_mid * w in
    match Isa.read t.mem (ppc + off) with
    | exception Isa.Decode_error _ -> stop := true
    | i ->
      (match Isa.flow_of i with
       | Isa.Fallthrough ->
         if jit_compiles_mid i then begin
           mids.(!n_mid) <- i;
           incr n_mid
         end
         else stop := true
       | Isa.Jump _ | Isa.Branch _ | Isa.Call_to _ | Isa.Indirect
       | Isa.Return ->
         final := Some i
       | Isa.Int_return | Isa.Terminal -> stop := true)
  done;
  let tail, n_final =
    match !final with
    | Some i ->
      (match compile_final t i with
       | Some op -> (op, 1)
       | None -> (jit_block_end, 0))
    | None -> (jit_block_end, 0)
  in
  let total = !n_mid + n_final in
  if total = 0 then None
  else begin
    (* The validated byte range always covers the full decoded run even
       if closure construction bails early below: over-approximating
       the text only invalidates more often, never less. *)
    let bytes = (!n_mid + (match !final with Some _ -> 1 | None -> 0)) * w in
    let bppc = ppc and bbytes = bytes in
    let entry = ref tail in
    for k = !n_mid - 1 downto 0 do
      match compile_op t mids.(k) ~bppc ~bbytes ~next:!entry with
      | Some op -> entry := op
      | None ->
        (* Unreachable while [jit_compiles_mid] and [compile_op] agree;
           ending the block here keeps it safe even if they drift. *)
        entry := jit_block_end
    done;
    t.jb_compiled <- t.jb_compiled + 1;
    Some
      {
        jb_ppc = ppc;
        jb_bytes = bytes;
        jb_gsum = jit_gsum t ~ppc ~bytes;
        jb_flush = t.icache_gen;
        jb_entry = !entry;
      }
  end

(* Direct-mapped lookup with full revalidation (invariant 4): stamp and
   generation sum must both match, else recompile from current bytes. *)
let jit_block_at t ~ppc : jblock option =
  let slot = (ppc lsr 3) land jcache_mask in
  match t.jcache.(slot) with
  | Some b when b.jb_ppc = ppc ->
    if b.jb_flush = t.icache_gen && jit_gsum t ~ppc ~bytes:b.jb_bytes = b.jb_gsum
    then begin
      t.jb_hits <- t.jb_hits + 1;
      Some b
    end
    else begin
      t.jb_inval <- t.jb_inval + 1;
      let nb = compile_block t ~vpc:t.pc ~ppc in
      t.jcache.(slot) <- nb;
      nb
    end
  | prev ->
    let nb = compile_block t ~vpc:t.pc ~ppc in
    (match nb with
     | Some _ -> t.jcache.(slot) <- nb
     | None -> ignore prev);
    nb

let read_instr t vaddr =
  if vaddr land 0xFFF <= Mmu.page_size - Isa.width then
    Isa.read t.mem (translate t ~access:Mmu.Read ~cpl:0 vaddr)
  else begin
    let buf = Bytes.create Isa.width in
    for i = 0 to Isa.width - 1 do
      let paddr = translate t ~access:Mmu.Read ~cpl:0 (Word.add vaddr i) in
      Bytes.set buf i (Char.chr (Phys_mem.read_u8 t.mem paddr))
    done;
    Isa.decode ~addr:vaddr buf ~off:0
  end

let step t =
  let start_pc = t.pc in
  let tf0 = t.tf in
  try
    let instr = fetch t in
    exec t instr;
    t.retired <- Int64.add t.retired 1L;
    (match t.retire_stop with
     | Some (target, on_stop) when Int64.compare t.retired target >= 0 ->
       (* Landed on the requested instruction boundary: freeze with pc at
          the next instruction to execute, exactly like a debugger stop. *)
       t.retire_stop <- None;
       t.stopped <- true;
       on_stop t
     | _ -> ());
    if tf0 && t.tf then begin
      (* Trap after the stepped instruction; handlers run with TF clear. *)
      t.faults <- Int64.add t.faults 1L;
      match t.hypervisor with
      | Some hook ->
        (match hook t (Fault (Step_trap, t.pc)) with
         | Handled -> ()
         | Deliver -> hw_deliver_fault t Step_trap ~return_pc:t.pc)
      | None -> hw_deliver_fault t Step_trap ~return_pc:t.pc
    end
  with
  | Fault_exn kind -> dispatch_fault t kind ~return_pc:start_pc
  | Mmu.Page_fault f -> dispatch_fault t (Page f) ~return_pc:start_pc
  | Phys_mem.Bus_error addr ->
    dispatch_fault t (Machine_check addr) ~return_pc:start_pc
  | Isa.Decode_error { opcode; _ } ->
    dispatch_fault t (Undefined opcode) ~return_pc:start_pc

(* Dispatch loop of the block translator: execute compiled blocks from
   the cache, chaining across taken transfers while the cycle budget
   [limit] holds, and falling back to one interpreter [step] whenever the
   pc cannot head a block (straddling fetch, out-of-RAM text,
   interpreter-only instruction, pinned site).  At least one instruction
   always retires.  See the invariant comment at the translator above
   for why this is bit-identical to stepping. *)
let jit_run t ~limit =
  t.jit_cyc <- 0;
  t.jit_ret <- 0;
  let rel = Int64.sub limit (Engine.now t.engine) in
  t.jit_limit <-
    (if Int64.compare rel (Int64.of_int max_int) >= 0 then max_int
     else if Int64.compare rel 0L < 0 then 0
     else Int64.to_int rel);
  let chained = ref false in
  (try
     let continue = ref true in
     while !continue do
       let pc = t.pc in
       if pc land 0xFFF > Mmu.page_size - Isa.width then begin
         (* Page-straddling fetch: the interpreter's byte-wise path. *)
         jit_flush t;
         t.jb_fallbacks <- t.jb_fallbacks + 1;
         step t;
         continue := false
       end
       else begin
         (* Instruction 1's fetch-translate, for real: charges a miss
            into the accumulator and sets accessed bits exactly like the
            interpreter's fetch would. *)
         let ppc = jit_translate t ~access:Mmu.Exec pc in
         if ppc < 0 || ppc + Isa.width > Phys_mem.size t.mem then begin
           (* Out-of-RAM text: [step]'s checked read raises Bus_error and
              becomes a machine check.  Its own translate is a TLB hit
              after the walk above, so nothing double-charges. *)
           jit_flush t;
           t.jb_fallbacks <- t.jb_fallbacks + 1;
           step t;
           continue := false
         end
         else
           match jit_block_at t ~ppc with
           | None ->
             (* Interpreter-only instruction at pc (or pinned site); as
                above, [step] refetches through the now-warm TLB. *)
             jit_flush t;
             t.jb_fallbacks <- t.jb_fallbacks + 1;
             step t;
             continue := false
           | Some b ->
             if !chained then t.jb_chains <- t.jb_chains + 1;
             chained := true;
             t.jit_vpn <- pc lsr 12;
             b.jb_entry t;
             if t.jit_cyc >= t.jit_limit then continue := false
       end
     done
   with
   | Fault_exn kind ->
     jit_flush t;
     dispatch_fault t kind ~return_pc:t.pc
   | Mmu.Page_fault f ->
     jit_flush t;
     dispatch_fault t (Page f) ~return_pc:t.pc
   | Phys_mem.Bus_error addr ->
     jit_flush t;
     dispatch_fault t (Machine_check addr) ~return_pc:t.pc
   | Isa.Decode_error { opcode; _ } ->
     jit_flush t;
     dispatch_fault t (Undefined opcode) ~return_pc:t.pc
   | e ->
     jit_flush t;
     raise e);
  jit_flush t

(* Tight stepping loop between event horizons.  The caller has already
   dispatched due events and polled once, so the first action is a step;
   the loop preserves the canonical dispatch/poll/step interleaving by
   construction: while the clock stays short of [horizon] and nothing new
   is scheduled ([wake] unchanged), a dispatch would be a no-op, so
   step/poll pairs are exactly what the unbatched loop would execute.  Any
   exit condition returns control to the dispatcher *between* a step and
   the next poll — the same point where the unbatched loop runs its
   dispatch — so cycle accounting, trap ordering and IRQ delivery points
   are bit-identical.

   When the block translator is on and no per-instruction observer is
   armed — no trap flag, no retire stop, no deliverable interrupt — the
   step is replaced by [jit_run], bounded by the nearer of the horizon
   and the next profiler sample so chains stop on exactly the boundary
   the unbatched loop would have stopped on. *)
let run_batch t ~horizon ~wake =
  let engine = t.engine in
  let continue = ref true in
  while !continue do
    if
      t.jit_enabled
      && (not t.tf)
      && (match t.retire_stop with None -> true | Some _ -> false)
      && not (t.if_ && t.pic_pending ())
    then begin
      let limit =
        if
          Int64.compare t.sample_period 0L > 0
          && Int64.compare t.next_sample horizon < 0
        then t.next_sample
        else horizon
      in
      jit_run t ~limit
    end
    else step t;
    (* Continuous pc sampling: a pure read of (pc, cpl) handed to the
       profiler between instructions.  It never advances the clock or
       schedules events, so enabling it cannot perturb guest-visible
       behaviour — replay bit-equality holds with profiling on. *)
    if
      Int64.compare t.sample_period 0L > 0
      && Int64.compare (Engine.now engine) t.next_sample >= 0
    then begin
      t.sample_hook ~pc:t.pc ~cpl:t.cpl;
      t.next_sample <- Int64.add (Engine.now engine) t.sample_period
    end;
    if
      t.halted || t.stopped
      || Int64.compare (Engine.now engine) horizon >= 0
      || Engine.wake_generation engine <> wake
    then continue := false
    else begin
      poll_interrupts t;
      (* A hook running off the poll may halt or stop the CPU; the
         unbatched loop would idle-skip here, so hand back. *)
      if t.halted || t.stopped then continue := false
    end
  done

(* -- Introspection -- *)

let set_sampling t ~period ~hook =
  if Int64.compare period 0L < 0 then
    invalid_arg "Cpu.set_sampling: negative period";
  t.sample_period <- period;
  t.sample_hook <- hook;
  t.next_sample <-
    (if Int64.compare period 0L > 0 then Int64.add (Engine.now t.engine) period
     else 0L)

let sampling_period t = t.sample_period

let icache_hits t = t.ic_hits
let icache_misses t = t.ic_misses
let icache_invalidations t = t.ic_inval

(* -- Block-translator control and telemetry -- *)

let jit_enabled t = t.jit_enabled
let set_jit_enabled t v = t.jit_enabled <- v

let blocks_compiled t = t.jb_compiled
let block_hits t = t.jb_hits
let block_invalidations t = t.jb_inval
let block_chain_follows t = t.jb_chains
let block_fallbacks t = t.jb_fallbacks
let instructions_retired t = t.retired

(* Reverse-debug support: checkpoint restore rewinds the retirement
   counter; replay-to-N arms a stop at an absolute retirement count. *)
let set_instructions_retired t v = t.retired <- v
let set_retire_stop t spec = t.retire_stop <- spec
let retire_stop_armed t =
  match t.retire_stop with Some _ -> true | None -> false
let interrupts_taken t = t.irqs_taken
let faults_taken t = t.faults
let mmu t = t.mmu
let mem t = t.mem
let bus t = t.bus
let engine t = t.engine
let costs t = t.costs

let pp_gp_reason fmt = function
  | Privileged_instruction i ->
    Format.fprintf fmt "privileged instruction (%s)" (Isa.to_string i)
  | Io_denied port -> Format.fprintf fmt "i/o denied on port 0x%x" port
  | Bad_iret -> Format.fprintf fmt "malformed iret"
  | Bad_int_gate v -> Format.fprintf fmt "gate %d not callable" v
  | Bad_vector v -> Format.fprintf fmt "bad vector %d" v
  | Bad_ring r -> Format.fprintf fmt "bad ring %d" r

let pp_fault fmt = function
  | Page f ->
    Format.fprintf fmt "page fault at 0x%x (%s, %s)" f.Mmu.vaddr
      (match f.Mmu.access with
       | Mmu.Read -> "read"
       | Mmu.Write -> "write"
       | Mmu.Exec -> "exec")
      (if f.Mmu.not_present then "not present" else "protection")
  | Gp reason -> Format.fprintf fmt "protection fault: %a" pp_gp_reason reason
  | Undefined opcode -> Format.fprintf fmt "undefined opcode 0x%x" opcode
  | Breakpoint_trap -> Format.fprintf fmt "breakpoint"
  | Step_trap -> Format.fprintf fmt "single-step"
  | Machine_check addr -> Format.fprintf fmt "machine check at 0x%x" addr

let pp_event fmt = function
  | Fault (kind, pc) -> Format.fprintf fmt "fault@0x%x: %a" pc pp_fault kind
  | Irq vector -> Format.fprintf fmt "irq vector %d" vector
  | Soft_int (v, _) -> Format.fprintf fmt "int %d" v
  | Hypercall (imm, _) -> Format.fprintf fmt "vmcall 0x%x" imm
