type access = Read | Write | Exec

type fault = {
  vaddr : int;
  access : access;
  not_present : bool;
}

exception Page_fault of fault

let page_size = 4096

let pte_present = 0x1
let pte_writable = 0x2
let pte_user = 0x4
let pte_nx = 0x8
let pte_accessed = 0x20
let pte_dirty = 0x40

let make_pte ~frame ~writable ~user =
  (frame land 0xFFFFF000) lor pte_present
  lor (if writable then pte_writable else 0)
  lor (if user then pte_user else 0)

let frame_of pte = pte land 0xFFFFF000
let is_present pte = pte land pte_present <> 0
let is_writable pte = pte land pte_writable <> 0
let is_user pte = pte land pte_user <> 0
let dir_index vaddr = (vaddr lsr 22) land 0x3FF
let table_index vaddr = (vaddr lsr 12) land 0x3FF

(* Direct-mapped TLB keyed by virtual page number, as parallel arrays
   indexed by slot (see the representation notes in mmu.mli). *)
type t = {
  vpn : int array;
  frame : int array;
  ready : int array;
  flags : int array;
  pte_addr : int array;
  filled : int array;
      (* slots that went from invalid to valid since the last flush; no
         slot is listed twice, so [nfilled <= tlb_slots] *)
  mutable nfilled : int;
  hits : int array;
  mutable misses : int;
  mutable flushes : int;
}

let tlb_slots = 256
let tlb_mask = tlb_slots - 1

let create () =
  {
    vpn = Array.make tlb_slots (-1);
    frame = Array.make tlb_slots 0;
    ready = Array.make tlb_slots 0;
    flags = Array.make tlb_slots 0;
    pte_addr = Array.make tlb_slots 0;
    filled = Array.make tlb_slots 0;
    nfilled = 0;
    hits = [| 0 |];
    misses = 0;
    flushes = 0;
  }

(* Every valid slot is listed in [filled], so clearing the listed ones
   leaves the same TLB as clearing all 256. *)
let flush t =
  for i = 0 to t.nfilled - 1 do
    t.vpn.(t.filled.(i)) <- -1
  done;
  t.nfilled <- 0;
  t.flushes <- t.flushes + 1

(* The permission rule: ring 3 needs the user bit, a write the writable
   bit, and a fetch a page without NX.  [flags] holds an entry's
   effective [pte_writable], [pte_user] and [pte_nx] bits. *)
let permits ~cpl access flags =
  (cpl <> 3 || flags land pte_user <> 0)
  &&
  match access with
  | Read -> true
  | Write -> flags land pte_writable <> 0
  | Exec -> flags land pte_nx = 0

let ready_bit ~cpl access =
  1 lsl ((3 * cpl) + match access with Read -> 0 | Write -> 1 | Exec -> 2)

(* A hit needs no further work when the rule permits it and, for a
   write, the entry has already set the PTE's dirty bit. *)
let ready_of_flags flags =
  let mask = ref 0 in
  for cpl = 0 to 3 do
    List.iter
      (fun access ->
        if
          permits ~cpl access flags
          && (access <> Write || flags land pte_dirty <> 0)
        then mask := !mask lor ready_bit ~cpl access)
      [ Read; Write; Exec ]
  done;
  !mask

(* Every fill and first write needs a mask, so [ready_of_flags] runs
   once per combination of the four bits it reads, here: [pte_writable],
   [pte_user] and [pte_nx] (bits 1-3) and [pte_dirty] (bit 6). *)
let ready_index flags = ((flags lsr 1) land 7) lor ((flags lsr 3) land 8)

let ready_table =
  Array.init 16 (fun i ->
      ready_of_flags (((i land 7) lsl 1) lor ((i land 8) lsl 3)))

let ready_mask flags = ready_table.(ready_index flags)

let protection_fault vaddr access =
  Page_fault { vaddr; access; not_present = false }

(* A hit the ready mask does not cover: a forbidden access, or the first
   write through an entry that has not dirtied its PTE yet. *)
let hit_slow t mem ~cpl access vaddr slot =
  let flags = t.flags.(slot) in
  if not (permits ~cpl access flags) then raise (protection_fault vaddr access);
  (* Once this entry has set the PTE dirty bit, later write hits are
     ready and skip the PTE read-modify-write entirely.  A flush
     (LPTB/TLBFLUSH) drops the entry, so table edits behave as on real
     hardware, where stale dirty state also requires a flush. *)
  if access = Write && flags land pte_dirty = 0 then begin
    let pte_addr = t.pte_addr.(slot) in
    let pte = Phys_mem.read_u32 mem pte_addr in
    Phys_mem.write_u32 mem pte_addr (pte lor pte_dirty);
    t.flags.(slot) <- flags lor pte_dirty;
    t.ready.(slot) <- ready_mask (flags lor pte_dirty)
  end

let walk t mem ~ptb ~cpl access vaddr =
  let vpn = vaddr lsr 12 in
  let slot = vpn land tlb_mask in
  t.misses <- t.misses + 1;
  (* The walk, inline so that a miss allocates nothing. *)
  let pde_addr = (ptb land 0xFFFFF000) + (4 * dir_index vaddr) in
  let pde = Phys_mem.read_u32 mem pde_addr in
  if not (is_present pde) then
    raise (Page_fault { vaddr; access; not_present = true });
  let pte_addr = frame_of pde + (4 * table_index vaddr) in
  let pte = Phys_mem.read_u32 mem pte_addr in
  if not (is_present pte) then
    raise (Page_fault { vaddr; access; not_present = true });
  (* Effective permissions combine both levels, like x86.  NX is
     restrictive at either level (shadow directories never set it, so
     in practice only leaf PTEs carry it). *)
  let dirty = if access = Write then pte_dirty else 0 in
  let flags =
    (pde land pte land (pte_writable lor pte_user))
    lor ((pde lor pte) land pte_nx)
    lor dirty
  in
  if not (permits ~cpl access flags) then raise (protection_fault vaddr access);
  Phys_mem.write_u32 mem pde_addr (pde lor pte_accessed);
  Phys_mem.write_u32 mem pte_addr (pte lor pte_accessed lor dirty);
  if t.vpn.(slot) < 0 then begin
    t.filled.(t.nfilled) <- slot;
    t.nfilled <- t.nfilled + 1
  end;
  t.vpn.(slot) <- vpn;
  t.frame.(slot) <- frame_of pte;
  t.flags.(slot) <- flags;
  t.ready.(slot) <- ready_mask flags;
  t.pte_addr.(slot) <- pte_addr;
  frame_of pte lor (vaddr land 0xFFF)

let translate t mem ~ptb ~cpl access vaddr =
  if ptb = 0 then vaddr
  else begin
    let vpn = vaddr lsr 12 in
    let slot = vpn land tlb_mask in
    if t.vpn.(slot) = vpn then begin
      t.hits.(0) <- t.hits.(0) + 1;
      if t.ready.(slot) land ready_bit ~cpl access = 0 then
        hit_slow t mem ~cpl access vaddr slot;
      t.frame.(slot) lor (vaddr land 0xFFF)
    end
    else walk t mem ~ptb ~cpl access vaddr
  end

let probe mem ~ptb vaddr =
  if ptb = 0 then Some (make_pte ~frame:(vaddr land 0xFFFFF000) ~writable:true ~user:true)
  else
    (* The tables are guest data: an entry outside RAM maps nothing. *)
    let read addr =
      if addr + 4 <= Phys_mem.size mem then Phys_mem.read_u32 mem addr else 0
    in
    let pde = read ((ptb land 0xFFFFF000) + (4 * dir_index vaddr)) in
    if not (is_present pde) then None
    else
      let pte = read (frame_of pde + (4 * table_index vaddr)) in
      if not (is_present pte) then None
      else
        (* Report effective permissions so callers need not re-combine. *)
        let combined =
          pte land lnot (pte_writable lor pte_user)
          lor (pde land pte land (pte_writable lor pte_user))
        in
        Some combined

let tlb_hits t = t.hits.(0)
let tlb_misses t = t.misses
let tlb_flushes t = t.flushes
