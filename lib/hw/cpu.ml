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

(* Instruction cache slot: physically tagged, validated against the
   memory write generations captured at fill time (invariant 4 at
   [compile]).  An 8-byte instruction can touch two generation granules;
   the sum of both granule generations is stored — generations only grow,
   so any store under either granule makes the sum diverge for good.  The
   slot caches the instruction's compiled op (see [compile]), run with an
   empty continuation, and whether that op is an [Interp] one, so the
   translator judges an [Interp] head once per text generation. *)
type icache_slot = {
  mutable itag : int; (* physical address, -1 = invalid *)
  mutable igen : int; (* summed Phys_mem granule generations at fill *)
  mutable iop : t -> unit;
  mutable iinterp : bool; (* [iop] is an [Interp] op *)
}

and t = {
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
  mutable retired : int;
  mutable retire_stop : (int64 * (t -> unit)) option;
      (* reverse-debug replay-to-N: stop when [retired] reaches the
         target, between instructions *)
  mutable irqs_taken : int;
  mutable faults : int;
  mutable sample_period : int64;
      (* pc-sampling cadence in cycles; 0 = profiling off, and the
         dispatch loop pays exactly one Int64 compare per instruction *)
  mutable next_sample : int64;
  mutable sample_hook : pc:int -> cpl:int -> unit;
  fetch_buf : Bytes.t;
  icache : icache_slot array;
  mutable ic_hits : int;
  mutable ic_misses : int;
  mutable ic_inval : int;
  (* Cycle accumulator.  Instruction execution charges cycles and counts
     retirements in the unboxed [jit_cyc]/[jit_ret]; [jit_flush] moves
     them to the engine/stats/retired counters at every point where
     anything else could observe them.  [jit_limit] is the cycle budget
     of the current block chain, relative to the engine clock at chain
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
   over its whole text at compile time, so self-modifying stores and DMA
   over text invalidate it exactly as they invalidate cached
   instructions. *)
and jblock = {
  jb_ppc : int; (* physical address of the first instruction *)
  jb_bytes : int; (* total encoded length *)
  jb_gsum : int; (* summed granule generations over the text at compile *)
  jb_entry : t -> unit; (* head of the threaded-code chain *)
  jb_reenter : bool; (* the final op stores nothing: see [run_batch] *)
}

let table_entries = 64
let icache_slots = 2048
let icache_mask = icache_slots - 1
let jcache_slots = 1024
let jcache_mask = jcache_slots - 1

(* Longest run compiled into one block.  Long enough that hot loops and
   leaf functions compile whole; short enough that a block's generation
   probe at dispatch stays a handful of granule reads. *)
let jit_max_block = 64

(* The empty continuation: ends a chain, so the dispatcher takes over. *)
let jit_block_end (_ : t) = ()

let create ~mem ~bus ~engine ~costs ~load () =
  {
    mem;
    bus;
    engine;
    costs;
    load;
    mmu = Mmu.create ();
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
    retired = 0;
    retire_stop = None;
    irqs_taken = 0;
    faults = 0;
    sample_period = 0L;
    next_sample = 0L;
    sample_hook = (fun ~pc:_ ~cpl:_ -> ());
    fetch_buf = Bytes.make Isa.width '\000';
    icache =
      Array.init icache_slots (fun _ ->
          {
            itag = -1;
            igen = 0;
            iop = jit_block_end;
            iinterp = false;
          });
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
let ptb t = t.ptb

(* The monitor flushes on every shadow-table update, so the TLB clears
   only the slots filled since its last flush.  Cached ops and blocks
   survive: a mapping change cannot make them stale (invariant 4 at
   [compile]). *)
let flush_tlb t = Mmu.flush t.mmu

let set_ptb t v =
  t.ptb <- Word.mask v;
  flush_tlb t

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

let jit_flush t =
  if t.jit_cyc > 0 then begin
    charge t t.jit_cyc;
    t.jit_cyc <- 0
  end;
  if t.jit_ret > 0 then begin
    t.retired <- t.retired + t.jit_ret;
    t.jit_ret <- 0
  end

(* [settle t f] runs [f t] on behalf of a caller outside instruction
   execution and hands the accumulator back empty, whether [f] returns
   or raises. *)
let settle t f =
  match f t with
  | v ->
    jit_flush t;
    v
  | exception e ->
    jit_flush t;
    raise e

(* -- Translated memory access --

   TLB-miss penalties land in the accumulator.  Stores report whether
   they wrote into the physical range [[lo, hi)] — a compiled block's own
   text (invariant 4 below); [lo = hi] watches nothing. *)

let tlb_mask = Mmu.tlb_slots - 1

(* [Mmu.ready_bit], spelled out so that it folds into each access site
   (the dev build cannot inline across modules). *)
let[@inline] ready_bit ~cpl access =
  1 lsl ((3 * cpl) + match access with Mmu.Read -> 0 | Mmu.Write -> 1 | Mmu.Exec -> 2)

(* Everything but a ready TLB hit: paging off, a miss, a fault or the
   first write through an entry.  [Mmu.translate] does the work; a walk
   costs [costs.tlb_miss]. *)
let translate_slow t ~access ~cpl vaddr =
  let mmu = t.mmu in
  let misses = mmu.Mmu.misses in
  let paddr = Mmu.translate mmu t.mem ~ptb:t.ptb ~cpl access vaddr in
  if mmu.Mmu.misses <> misses then t.jit_cyc <- t.jit_cyc + t.costs.tlb_miss;
  paddr

(* The one write to [Mmu] state outside it: a hit served here. *)
let[@inline] count_tlb_hit t =
  let hits = t.mmu.Mmu.hits in
  Array.unsafe_set hits 0 (Array.unsafe_get hits 0 + 1)

(* The TLB hit test, inline at every access site: a ready hit counts
   itself and returns the address exactly as [Mmu.translate]'s hit path
   would.  [vaddr] is a 32-bit word; every caller masks it. *)
let[@inline] translate t ~access ~cpl vaddr =
  let mmu = t.mmu in
  let vpn = vaddr lsr 12 in
  let slot = vpn land tlb_mask in
  if
    t.ptb <> 0
    && Array.unsafe_get mmu.Mmu.vpn slot = vpn
    && Array.unsafe_get mmu.Mmu.ready slot land ready_bit ~cpl access <> 0
  then begin
    count_tlb_hit t;
    Array.unsafe_get mmu.Mmu.frame slot lor (vaddr land 0xFFF)
  end
  else translate_slow t ~access ~cpl vaddr

(* The code page of the executing block is still in its TLB slot (see
   invariant 3). *)
let[@inline] code_resident t =
  t.ptb = 0
  || Array.unsafe_get t.mmu.Mmu.vpn (t.jit_vpn land tlb_mask) = t.jit_vpn

(* Multi-byte accesses that straddle a page fall back to byte-at-a-time so
   each byte is translated in its own page. *)
let load_u32 t ~cpl vaddr =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then
    Phys_mem.read_u32 t.mem (translate t ~access:Mmu.Read ~cpl vaddr)
  else begin
    let v = ref 0 in
    for i = 0 to 3 do
      let p = translate t ~access:Mmu.Read ~cpl (Word.add vaddr i) in
      v := !v lor (Phys_mem.read_u8 t.mem p lsl (8 * i))
    done;
    !v
  end

let store_u32 t ~cpl ~lo ~hi vaddr v =
  let vaddr = Word.mask vaddr in
  if vaddr land 0xFFF <= Mmu.page_size - 4 then begin
    let p = translate t ~access:Mmu.Write ~cpl vaddr in
    Phys_mem.write_u32 t.mem p v;
    p + 4 > lo && p < hi
  end
  else begin
    let hit = ref false in
    for i = 0 to 3 do
      let p = translate t ~access:Mmu.Write ~cpl (Word.add vaddr i) in
      Phys_mem.write_u8 t.mem p ((v lsr (8 * i)) land 0xFF);
      if p >= lo && p < hi then hit := true
    done;
    !hit
  end

let load_u8 t ~cpl vaddr =
  Phys_mem.read_u8 t.mem (translate t ~access:Mmu.Read ~cpl (Word.mask vaddr))

let store_u8 t ~cpl ~lo ~hi vaddr v =
  let p = translate t ~access:Mmu.Write ~cpl (Word.mask vaddr) in
  Phys_mem.write_u8 t.mem p v;
  p >= lo && p < hi

(* -- Interrupt table -- *)

(* Address of [vector]'s gate: the handler word, then the info word that
   [Isa.gate_*] decode. *)
let gate_base ~table ~vector =
  if vector < 0 || vector >= table_entries then
    raise (Fault_exn (Gp (Bad_vector vector)));
  Word.add table (8 * vector)

let push_frame t ~ring ~sp ~value =
  let sp = Word.sub sp 4 in
  ignore (store_u32 t ~cpl:ring ~lo:0 ~hi:0 sp value);
  sp

(* Push the frame and enter a gate whose two words, [handler] and [info],
   the caller has already loaded. *)
let deliver_gate t ~vector ~handler ~info ~error ~return_pc =
  if not (Isa.gate_present info) then
    raise (Panic (Printf.sprintf "no handler for vector %d" vector));
  let old_sp = t.regs.(Isa.sp) in
  let old_flags = flags_word t in
  let ring = Isa.gate_ring info in
  let sp0 = if ring < t.cpl then t.stacks.(ring) else old_sp in
  let sp1 = push_frame t ~ring ~sp:sp0 ~value:old_sp in
  let sp2 = push_frame t ~ring ~sp:sp1 ~value:old_flags in
  let sp3 = push_frame t ~ring ~sp:sp2 ~value:(Word.mask return_pc) in
  let sp4 = push_frame t ~ring ~sp:sp3 ~value:(Word.mask error) in
  t.regs.(Isa.sp) <- sp4;
  t.cpl <- ring;
  t.if_ <- false;
  t.tf <- false;
  t.pc <- handler;
  charge t t.costs.interrupt_delivery

(* Load [vector]'s gate from [table], then deliver through it. *)
let deliver t ~table ~vector ~error ~return_pc =
  settle t (fun t ->
      let base = gate_base ~table ~vector in
      let handler = load_u32 t ~cpl:0 base in
      let info = load_u32 t ~cpl:0 (Word.add base 4) in
      deliver_gate t ~vector ~handler ~info ~error ~return_pc)

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

(* The hook's verdict on [ev]; bare hardware always delivers. *)
let offer t ev =
  match t.hypervisor with Some hook -> hook t ev | None -> Deliver

let dispatch_fault t kind ~return_pc =
  t.faults <- t.faults + 1;
  if offer t (Fault (kind, return_pc)) = Deliver then
    hw_deliver_fault t kind ~return_pc

(* The one exception-to-fault mapping, shared by [step] and the chains
   of [run_batch]. *)
let dispatch_exn t e ~return_pc =
  match e with
  | Fault_exn kind -> dispatch_fault t kind ~return_pc
  | Mmu.Page_fault f -> dispatch_fault t (Page f) ~return_pc
  | Phys_mem.Bus_error addr -> dispatch_fault t (Machine_check addr) ~return_pc
  | Isa.Decode_error { opcode; _ } ->
    dispatch_fault t (Undefined opcode) ~return_pc
  | e -> raise e

let poll_interrupts t =
  let bare_metal = match t.hypervisor with None -> true | Some _ -> false in
  if t.if_ && t.pic_pending () && not (t.stopped && bare_metal) then
    match t.pic_ack () with
    | None -> ()
    | Some vector ->
      t.halted <- false;
      t.irqs_taken <- t.irqs_taken + 1;
      if offer t (Irq vector) = Deliver then
        deliver t ~table:t.iht ~vector ~error:0 ~return_pc:t.pc

let dispatch_soft t ~vector ~next_pc =
  if offer t (Soft_int (vector, next_pc)) = Deliver then begin
    let base = gate_base ~table:t.iht ~vector in
    let handler = load_u32 t ~cpl:0 base in
    let info = load_u32 t ~cpl:0 (Word.add base 4) in
    if (not (Isa.gate_present info)) || Isa.gate_dpl info < t.cpl then
      raise (Fault_exn (Gp (Bad_int_gate vector)))
    else
      settle t (fun t ->
          deliver_gate t ~vector ~handler ~info ~error:0 ~return_pc:next_pc)
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
      let chunk = Int.min len (Int.min src_room dst_room) in
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
      let chunk = Int.min len room in
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

(* -- Instruction semantics --

   [compile] is the only definition of what an instruction does.  It
   turns one decoded instruction into an op closure of one of three
   shapes:

   - [Mid]: straight-line work that charges its base cost into the
     accumulator, does its effect (pc advances only after all faulting
     work, flags after the result write), counts the retirement and
     tail-calls the rest of its block while the chain may continue;
   - [Final]: a control transfer, which always ends the chain (the
     dispatcher decides whether to follow it);
   - [Interp]: I/O, privileged control, COPY/CSUM, RDTSC, VMCALL, INT,
     HLT, IRET and BRK.  These reach devices, rings, the clock or the
     monitor, so they never join a block: [step] runs them, after
     flushing their base cost (and the fetch's) to the engine.  The
     dispatch loop, [run_batch], steps one when no chain may run, or as
     the fallback that ends a chain, knowing an [Interp] head from its
     icache slot.

   The interpreter ([step]) runs one op per instruction with an empty
   continuation; a chain in [run_batch] runs the ops of whole blocks.
   A chain is bit-identical to stepping the same ops one at a time
   because of four invariants:

   1. Frozen clock.  While a chain runs, nothing reads the engine clock:
      every charge lands in the accumulator, so true time is always
      [now-at-entry + jit_cyc], and the per-op budget guard
      [jit_cyc < jit_limit] is exactly the unbatched loop's
      [now < min horizon next_sample] test.  The accumulator is flushed
      before anything that could observe the clock or counters runs: an
      interpreter fallback, a fault hook, or the end of the chain.
      Chains therefore stop on the same instruction boundary where the
      unbatched loop would have stopped for the horizon, a profiler
      sample, or an event.

   2. Poll elision.  [Mid] and [Final] ops cannot change IF, HALT, the
      PIC, or schedule events, so if no interrupt was deliverable when
      the chain started ([can_chain] checks), none can become
      deliverable mid-chain, and the skipped per-instruction polls were
      all no-ops.

   3. Fetch elision.  Instruction 1's fetch-translate runs for real at
      dispatch (charging a TLB miss and setting accessed bits exactly
      like [step]'s fetch).  Later ops skip it, which is only visible if
      a data access evicts the code page's direct-mapped TLB entry — the
      next fetch would walk again, charging cycles and writing accessed
      bits.  Memory ops therefore guard on the code page's TLB slot
      ([code_resident]) and bail to the dispatcher when it fails (with
      paging off there is nothing to evict).  The one divergence is the
      TLB hit count ([Mmu.tlb_hits], exported as [mmu_tlb_hits_total]):
      stepping counts a fetch hit per instruction, a chain one per block
      dispatch, loop re-entries included.  Nothing guest-visible reads
      it; misses, cycles and accessed bits are the same either way.

   4. Text stability.  A cached op or block is valid exactly when its
      physical tag and the summed granule write generations of its text
      match; every store path bumps them, and they only grow.  A block
      is revalidated at every dispatch.  Mid-chain, the only writers are
      the compiled stores themselves: each store checks its physical
      range against the block's text and stops the chain short when it
      intersects, so the remaining stale ops never run — the dispatcher
      revalidates, recompiles from the fresh bytes and continues.  DMA
      and host writes cannot happen mid-chain because no events dispatch
      mid-chain.  Mapping changes (a TLB flush, a new page-table base)
      need no invalidation:
      - [compile] captures nothing from CPU state but [costs], which is
        constant per CPU, so an op is a function of its bytes alone;
      - a remap changes the physical address a fetch translates to, so
        the remapped fetch looks up a different cache key;
      - fetch elision and loop re-entry rest on [code_resident], which
        checks the code page's TLB slot, and the flush still clears it.
        Mappings change only in hooks and [Interp] ops, and both end a
        chain.

   Faults propagate out of an op as exceptions with pc still at the
   faulting instruction; [step] and [run_batch] flush the accumulator and
   dispatch with [return_pc] at that instruction. *)

(* A block's physical text, [[lo, hi)]; [hi] grows while it compiles. *)
type span = { lo : int; mutable hi : int }

type compiled =
  | Mid of (t -> unit)
  | Final of (t -> unit)
  | Interp of (t -> unit)

let require_ring0 t i =
  if t.cpl <> 0 then raise (Fault_exn (Gp (Privileged_instruction i)))

let set_zn t v =
  t.z <- v = 0;
  t.n <- v land 0x80000000 <> 0

(* Inlined op epilogues.  [fall]: advance pc, count the retirement and
   run on while the budget holds.  [fall_mem], after a memory access,
   also requires the code page to be TLB-resident (invariant 3) and no
   store into the block's own text (invariant 4). *)
let[@inline] fall t next =
  t.pc <- Word.add t.pc Isa.width;
  t.jit_ret <- t.jit_ret + 1;
  if t.jit_cyc < t.jit_limit then next t

let[@inline] fall_mem t ~hit next =
  t.pc <- Word.add t.pc Isa.width;
  t.jit_ret <- t.jit_ret + 1;
  if
    (not hit)
    && t.jit_cyc < t.jit_limit
    && code_resident t
  then next t

let[@inline] alu t rd v =
  t.regs.(rd) <- v;
  set_zn t v

let[@inline] jump t cyc target =
  t.jit_cyc <- t.jit_cyc + cyc;
  t.pc <- target;
  t.jit_ret <- t.jit_ret + 1

(* [Interp] prologue and epilogue: the base cost reaches the engine
   before any effect, because devices and hooks observe the clock;
   [enter] returns the fallthrough pc. *)
let[@inline] enter t cyc =
  t.jit_cyc <- t.jit_cyc + cyc;
  jit_flush t;
  Word.add t.pc Isa.width

let[@inline] leave t pc =
  t.pc <- pc;
  t.jit_ret <- t.jit_ret + 1

(* [rest ()] compiles the remainder of the block and returns its entry;
   only [Mid] ops force it, and stores read [text] afterwards, when it
   covers the whole block. *)
let compile cpu instr ~text ~(rest : unit -> t -> unit) =
  let cyc = Isa.base_cycles cpu.costs instr in
  match instr with
  | Isa.Nop ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        fall t next)
  | Isa.Movi (rd, imm) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.regs.(rd) <- imm;
        fall t next)
  | Isa.Mov (rd, rs) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.regs.(rd) <- t.regs.(rs);
        fall t next)
  | Isa.Add (rd, a, b) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        alu t rd (Word.add t.regs.(a) t.regs.(b));
        fall t next)
  | Isa.Addi (rd, a, imm) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        alu t rd (Word.add t.regs.(a) imm);
        fall t next)
  | Isa.Sub (rd, a, b) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        alu t rd (Word.sub t.regs.(a) t.regs.(b));
        fall t next)
  | Isa.And_ (rd, a, b) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        alu t rd (Word.logand t.regs.(a) t.regs.(b));
        fall t next)
  | Isa.Or_ (rd, a, b) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        alu t rd (Word.logor t.regs.(a) t.regs.(b));
        fall t next)
  | Isa.Xor_ (rd, a, b) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        alu t rd (Word.logxor t.regs.(a) t.regs.(b));
        fall t next)
  | Isa.Shl (rd, a, b) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        alu t rd (Word.shift_left t.regs.(a) t.regs.(b));
        fall t next)
  | Isa.Shr (rd, a, b) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        alu t rd (Word.shift_right t.regs.(a) t.regs.(b));
        fall t next)
  | Isa.Mul (rd, a, b) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        alu t rd (Word.mul t.regs.(a) t.regs.(b));
        fall t next)
  | Isa.Cmp (a, b) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        t.z <- Word.equal r.(a) r.(b);
        t.n <- Word.signed_lt r.(a) r.(b);
        t.c <- Word.unsigned_lt r.(a) r.(b);
        fall t next)
  | Isa.Cmpi (a, imm) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        t.z <- Word.equal r.(a) imm;
        t.n <- Word.signed_lt r.(a) imm;
        t.c <- Word.unsigned_lt r.(a) imm;
        fall t next)
  | Isa.Ld (rd, base, imm) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.regs.(rd) <- load_u32 t ~cpl:t.cpl (Word.add t.regs.(base) imm);
        fall_mem t ~hit:false next)
  | Isa.St (base, imm, src) ->
    let next = rest () in
    let lo = text.lo and hi = text.hi in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let hit =
          store_u32 t ~cpl:t.cpl ~lo ~hi (Word.add r.(base) imm) r.(src)
        in
        fall_mem t ~hit next)
  | Isa.Ldb (rd, base, imm) ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        t.regs.(rd) <- load_u8 t ~cpl:t.cpl (Word.add t.regs.(base) imm);
        fall_mem t ~hit:false next)
  | Isa.Stb (base, imm, src) ->
    let next = rest () in
    let lo = text.lo and hi = text.hi in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let hit =
          store_u8 t ~cpl:t.cpl ~lo ~hi (Word.add r.(base) imm)
            (r.(src) land 0xFF)
        in
        fall_mem t ~hit next)
  | Isa.Push rs ->
    let next = rest () in
    let lo = text.lo and hi = text.hi in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let sp = Word.sub r.(Isa.sp) 4 in
        let hit = store_u32 t ~cpl:t.cpl ~lo ~hi sp r.(rs) in
        r.(Isa.sp) <- sp;
        fall_mem t ~hit next)
  | Isa.Pop rd ->
    let next = rest () in
    Mid
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let sp = r.(Isa.sp) in
        let v = load_u32 t ~cpl:t.cpl sp in
        r.(Isa.sp) <- Word.add sp 4;
        r.(rd) <- v;
        fall_mem t ~hit:false next)
  | Isa.Jmp target ->
    let tgt = Word.mask target in
    Final (fun t -> jump t cyc tgt)
  | Isa.Jz target ->
    let tgt = Word.mask target in
    Final (fun t -> jump t cyc (if t.z then tgt else Word.add t.pc Isa.width))
  | Isa.Jnz target ->
    let tgt = Word.mask target in
    Final (fun t -> jump t cyc (if t.z then Word.add t.pc Isa.width else tgt))
  | Isa.Jlt target ->
    let tgt = Word.mask target in
    Final (fun t -> jump t cyc (if t.n then tgt else Word.add t.pc Isa.width))
  | Isa.Jge target ->
    let tgt = Word.mask target in
    Final (fun t -> jump t cyc (if t.n then Word.add t.pc Isa.width else tgt))
  | Isa.Jb target ->
    let tgt = Word.mask target in
    Final (fun t -> jump t cyc (if t.c then tgt else Word.add t.pc Isa.width))
  | Isa.Jae target ->
    let tgt = Word.mask target in
    Final (fun t -> jump t cyc (if t.c then Word.add t.pc Isa.width else tgt))
  | Isa.Jr rs -> Final (fun t -> jump t cyc (Word.mask t.regs.(rs)))
  | Isa.Call target ->
    let tgt = Word.mask target in
    Final
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let ret = Word.add t.pc Isa.width in
        let sp = Word.sub r.(Isa.sp) 4 in
        ignore (store_u32 t ~cpl:t.cpl ~lo:0 ~hi:0 sp ret);
        r.(Isa.sp) <- sp;
        t.pc <- tgt;
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Ret ->
    Final
      (fun t ->
        t.jit_cyc <- t.jit_cyc + cyc;
        let r = t.regs in
        let sp = r.(Isa.sp) in
        let tgt = load_u32 t ~cpl:t.cpl sp in
        r.(Isa.sp) <- Word.add sp 4;
        t.pc <- Word.mask tgt;
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Hlt ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        require_ring0 t instr;
        t.halted <- true;
        leave t npc)
  | Isa.In_ (rd, rs) ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        t.regs.(rd) <- Word.mask (port_in t t.regs.(rs));
        leave t npc)
  | Isa.Ini (rd, imm) ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        t.regs.(rd) <- Word.mask (port_in t imm);
        leave t npc)
  | Isa.Out (p, v) ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        port_out t t.regs.(p) t.regs.(v);
        leave t npc)
  | Isa.Outi (imm, v) ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        port_out t imm t.regs.(v);
        leave t npc)
  | Isa.Int_ vector ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        dispatch_soft t ~vector ~next_pc:npc;
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Iret ->
    Interp
      (fun t ->
        ignore (enter t cyc);
        require_ring0 t instr;
        do_iret t;
        t.jit_ret <- t.jit_ret + 1)
  | Isa.Sti ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        require_ring0 t instr;
        t.if_ <- true;
        leave t npc)
  | Isa.Cli ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        require_ring0 t instr;
        t.if_ <- false;
        leave t npc)
  | Isa.Liht rs ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        require_ring0 t instr;
        t.iht <- t.regs.(rs);
        leave t npc)
  | Isa.Lptb rs ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        require_ring0 t instr;
        set_ptb t t.regs.(rs);
        leave t npc)
  | Isa.Lstk (ring, rs) ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        require_ring0 t instr;
        t.stacks.(ring land 3) <- t.regs.(rs);
        leave t npc)
  | Isa.Tlbflush ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        require_ring0 t instr;
        flush_tlb t;
        leave t npc)
  | Isa.Copy (d, s, n) ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        let r = t.regs in
        copy_block t ~dst:r.(d) ~src:r.(s) ~len:r.(n);
        leave t npc)
  | Isa.Csum (rd, a, n) ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        let r = t.regs in
        r.(rd) <- checksum_block t ~addr:r.(a) ~len:r.(n);
        leave t npc)
  | Isa.Rdtsc rd ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        t.regs.(rd) <- Word.mask (Int64.to_int (Engine.now t.engine));
        leave t npc)
  | Isa.Vmcall imm ->
    Interp
      (fun t ->
        let npc = enter t cyc in
        match t.hypervisor with
        | Some hook ->
          t.pc <- npc;
          ignore (hook t (Hypercall (imm, npc)));
          t.jit_ret <- t.jit_ret + 1
        | None -> raise (Fault_exn (Undefined 0x2E)))
  | Isa.Brk ->
    Interp
      (fun t ->
        ignore (enter t cyc);
        raise (Fault_exn Breakpoint_trap))

(* -- Basic-block translator -- *)

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
   physical offsets advance in lockstep).  Stops after a control
   transfer, or before the page end, the length cap, an [Interp]
   instruction (BRK among them, so a planted trap always runs in
   [step]) or an undecodable slot.  pc updates inside ops are
   pc-relative (or absolute targets from the encoding), so a block is
   reusable across virtual mappings of the same physical text — which
   is exactly what physical keying promises. *)
let compile_block t ~vpc ~ppc : jblock option =
  let w = Isa.width in
  let vroom = (Mmu.page_size - (vpc land (Mmu.page_size - 1))) / w in
  let proom = (Phys_mem.size t.mem - ppc) / w in
  let room = Int.min jit_max_block (Int.min vroom proom) in
  let text = { lo = ppc; hi = ppc } in
  (* [chain k ()] is the entry of the run from instruction [k] on. *)
  let rec chain k () =
    if k >= room then jit_block_end
    else
      match Isa.read t.mem (ppc + (k * w)) with
      | exception Isa.Decode_error _ -> jit_block_end
      | instr ->
        text.hi <- ppc + ((k + 1) * w);
        (match compile t instr ~text ~rest:(chain (k + 1)) with
         | Mid op | Final op -> op
         | Interp _ ->
           text.hi <- ppc + (k * w);
           jit_block_end)
  in
  let entry = chain 0 () in
  if text.hi = ppc then None
  else begin
    let bytes = text.hi - ppc in
    t.jb_compiled <- t.jb_compiled + 1;
    Some
      {
        jb_ppc = ppc;
        jb_bytes = bytes;
        jb_gsum = jit_gsum t ~ppc ~bytes;
        jb_entry = entry;
        jb_reenter =
          (match Isa.read t.mem (text.hi - w) with
           | Isa.Call _ -> false
           | _ -> true);
      }
  end

(* Direct-mapped lookup with full revalidation (invariant 4): the
   generation sum must match, else recompile from current bytes. *)
let jit_block_at t ~ppc : jblock option =
  let slot = (ppc lsr 3) land jcache_mask in
  match t.jcache.(slot) with
  | Some b as cached when b.jb_ppc = ppc ->
    if jit_gsum t ~ppc ~bytes:b.jb_bytes = b.jb_gsum then begin
      t.jb_hits <- t.jb_hits + 1;
      cached
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

(* -- Fetch and step -- *)

(* The instruction on its own: compiled with an empty continuation. *)
let no_text = { lo = 0; hi = 0 }
let no_rest () = jit_block_end

let compile_one t instr = compile t instr ~text:no_text ~rest:no_rest

let op_of t instr =
  match compile_one t instr with Mid op | Final op | Interp op -> op

(* Decode an instruction that straddles a page, translating each byte in
   its own page. *)
let decode_bytewise t ~access ~cpl vaddr =
  for i = 0 to Isa.width - 1 do
    let paddr = translate t ~access ~cpl (Word.add vaddr i) in
    Bytes.set t.fetch_buf i (Char.chr (Phys_mem.read_u8 t.mem paddr))
  done;
  Isa.decode ~addr:vaddr t.fetch_buf ~off:0

let[@inline] icache_slot t paddr =
  Array.unsafe_get t.icache ((paddr lsr 3) land icache_mask)

let[@inline] granule_sum t paddr =
  Phys_mem.generation t.mem paddr
  + Phys_mem.generation t.mem (paddr + (Isa.width - 1))

(* [slot] holds the op of the current bytes at [paddr]. *)
let[@inline] slot_valid slot paddr pgen = slot.itag = paddr && slot.igen = pgen

let fetch_cached t paddr =
  let slot = icache_slot t paddr in
  let pgen = granule_sum t paddr in
  if slot_valid slot paddr pgen then begin
    t.ic_hits <- t.ic_hits + 1;
    slot.iop
  end
  else begin
    if slot.itag = paddr then t.ic_inval <- t.ic_inval + 1;
    t.ic_misses <- t.ic_misses + 1;
    let op, interp =
      match compile_one t (Isa.read t.mem paddr) with
      | Mid op | Final op -> (op, false)
      | Interp op -> (op, true)
    in
    slot.itag <- paddr;
    slot.igen <- pgen;
    slot.iop <- op;
    slot.iinterp <- interp;
    op
  end

(* The icache's verdict that [ppc] heads an [Interp] op, trusted exactly
   when [fetch_cached] would hit the slot.  The block cache can still
   hold a block compiled at [ppc] before its head was rewritten, when a
   step outside a chain filled the slot since (chaining off, trap flag,
   retire stop); the verdict then defers to [jit_block_at], which counts
   that block's invalidation. *)
let interp_at t ppc =
  let slot = icache_slot t ppc in
  slot.iinterp
  && slot_valid slot ppc (granule_sum t ppc)
  &&
  match Array.unsafe_get t.jcache ((ppc lsr 3) land jcache_mask) with
  | Some b -> b.jb_ppc <> ppc
  | None -> true

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
      op_of t (Isa.read t.mem paddr)
  end
  else op_of t (decode_bytewise t ~access:Mmu.Exec ~cpl:t.cpl pc)

let read_instr t vaddr =
  settle t (fun t ->
      if vaddr land 0xFFF <= Mmu.page_size - Isa.width then
        Isa.read t.mem (translate t ~access:Mmu.Read ~cpl:0 (Word.mask vaddr))
      else decode_bytewise t ~access:Mmu.Read ~cpl:0 vaddr)

let step t =
  let start_pc = t.pc in
  let tf0 = t.tf in
  try
    fetch t t;
    jit_flush t;
    (match t.retire_stop with
     | Some (target, on_stop)
       when Int64.compare (Int64.of_int t.retired) target >= 0 ->
       (* Landed on the requested instruction boundary: freeze with pc at
          the next instruction to execute, exactly like a debugger stop. *)
       t.retire_stop <- None;
       t.stopped <- true;
       on_stop t
     | _ -> ());
    (* Trap after the stepped instruction; handlers run with TF clear. *)
    if tf0 && t.tf then dispatch_fault t Step_trap ~return_pc:t.pc
  with e ->
    jit_flush t;
    dispatch_exn t e ~return_pc:start_pc

(* [run_batch] may run a chain in place of a step: chaining is on and no
   per-instruction observer is armed — no trap flag, no retire stop, no
   deliverable interrupt. *)
let can_chain t =
  t.jit_enabled
  && (not t.tf)
  && (match t.retire_stop with None -> true | Some _ -> false)
  && not (t.if_ && t.pic_pending ())

(* The dispatch loop between event horizons.  The caller has already
   dispatched due events and polled once, so an iteration starts with
   guest code: a chain when [can_chain] holds, else one [step].  Then it
   flushes the accumulator, samples, tests for exit and polls.

   A chain is the block at the pc, followed by the blocks it leads to
   (chain follows) while the budget holds; a block that loops to its own
   entry re-runs as its own inner loop ([jb_reenter]).  The budget is
   the nearer of [horizon] and the next profiler sample, relative to the
   clock at chain entry.  A pc that cannot head a block (straddling
   fetch, out-of-RAM text, [Interp] head) takes one [step], counted as a
   fallback, and ends the chain; so does a fault.

   This is bit-identical to the unbatched loop, which dispatches due
   events, polls and steps one instruction at a time.  While the clock
   stays short of [horizon] and nothing new is scheduled ([wake]
   unchanged) a dispatch is a no-op, so polls and steps are all it
   would run.  Inside a chain the polls are no-ops too and the budget
   ends it on the boundary where the horizon or a sample would have
   stopped stepping (invariants 1 and 2 at [compile]).  Every exit hands
   back between an instruction and the next poll, the point where the
   unbatched loop dispatches, so cycle accounting, trap ordering, IRQ
   delivery points and sample boundaries are the same.  After a fallback
   step, ending the chain and starting the next one (when the poll found
   nothing and [can_chain] still holds) re-reads the clock for the new
   budget and does not count the next block as a chain follow. *)
let run_batch t ~horizon ~wake =
  let engine = t.engine in
  let continue = ref true in
  while !continue do
    (if can_chain t then begin
       let limit =
         if
           Int64.compare t.sample_period 0L > 0
           && Int64.compare t.next_sample horizon < 0
         then t.next_sample
         else horizon
       in
       let rel = Int64.sub limit (Engine.now engine) in
       t.jit_limit <-
         (if Int64.compare rel (Int64.of_int max_int) >= 0 then max_int
          else if Int64.compare rel 0L < 0 then 0
          else Int64.to_int rel);
       try
         let chained = ref false in
         let more = ref true in
         while !more do
           let pc = t.pc in
           let block =
             if pc land 0xFFF > Mmu.page_size - Isa.width then None
             else begin
               (* Instruction 1's fetch-translate, for real: charges a
                  miss and sets accessed bits exactly like [step]'s fetch
                  would. *)
               let ppc = translate t ~access:Mmu.Exec ~cpl:t.cpl pc in
               if
                 ppc < 0
                 || ppc + Isa.width > Phys_mem.size t.mem
                 || interp_at t ppc
               then None
               else jit_block_at t ~ppc
             end
           in
           match block with
           | None ->
             (* [step] refetches through the now-warm TLB, so nothing
                double-charges; out-of-RAM text raises Bus_error there
                and becomes a machine check. *)
             t.jb_fallbacks <- t.jb_fallbacks + 1;
             step t;
             more := false
           | Some b ->
             if !chained then t.jb_chains <- t.jb_chains + 1;
             chained := true;
             t.jit_vpn <- pc lsr 12;
             b.jb_entry t;
             (* A loop: the chain ended at the block's own entry.  The
                dispatcher would find the same block: no Interp op ran,
                so nothing flushed, no event fired and no DMA wrote;
                every Mid store into the text ended the chain (invariant
                4); and the final op stores nothing.  While the code page
                keeps its TLB slot the fetch would hit, charging nothing
                and setting no accessed bit, so run the block again and
                count what the dispatcher would have: a block hit, a
                chain follow and the fetch's TLB hit. *)
             if b.jb_reenter then
               while t.pc = pc && t.jit_cyc < t.jit_limit && code_resident t do
                 t.jb_hits <- t.jb_hits + 1;
                 t.jb_chains <- t.jb_chains + 1;
                 if t.ptb <> 0 then count_tlb_hit t;
                 b.jb_entry t
               done;
             more := t.jit_cyc < t.jit_limit
         done
       with e ->
         jit_flush t;
         dispatch_exn t e ~return_pc:t.pc
     end
     else step t);
    jit_flush t;
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
let instructions_retired t = Int64.of_int t.retired

(* Reverse-debug support: checkpoint restore rewinds the retirement
   counter; replay-to-N arms a stop at an absolute retirement count. *)
let set_instructions_retired t v = t.retired <- Int64.to_int v
let set_retire_stop t spec = t.retire_stop <- spec
let interrupts_taken t = Int64.of_int t.irqs_taken
let faults_taken t = Int64.of_int t.faults
let mmu t = t.mmu
let costs t = t.costs
