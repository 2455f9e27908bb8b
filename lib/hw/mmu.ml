type access = Read | Write | Exec

type fault = {
  vaddr : int;
  access : access;
  not_present : bool;
}

exception Page_fault of fault

let page_size = 4096
let entries_per_table = 1024

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
let is_nx pte = pte land pte_nx <> 0
let dir_index vaddr = (vaddr lsr 22) land 0x3FF
let table_index vaddr = (vaddr lsr 12) land 0x3FF

(* Direct-mapped TLB keyed by virtual page number.  Each entry caches the
   physical frame, the effective permissions and the PTE's physical address
   so the dirty bit can be set on write hits. *)
type tlb_entry = {
  mutable vpn : int; (* -1 = invalid *)
  mutable frame : int;
  mutable writable : bool;
  mutable user : bool;
  mutable nx : bool;
  mutable pte_addr : int;
  mutable dirty : bool; (* PTE dirty bit already set via this entry *)
}

type t = {
  tlb : tlb_entry array;
  tlb_mask : int;
  filled : int array;
      (* slots that went from invalid to valid since the last flush; no
         slot is listed twice, so [nfilled <= tlb_slots] *)
  mutable nfilled : int;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let tlb_slots = 256

let create () =
  {
    tlb =
      Array.init tlb_slots (fun _ ->
          {
            vpn = -1;
            frame = 0;
            writable = false;
            user = false;
            nx = false;
            pte_addr = 0;
            dirty = false;
          });
    tlb_mask = tlb_slots - 1;
    filled = Array.make tlb_slots 0;
    nfilled = 0;
    hits = 0;
    misses = 0;
    flushes = 0;
  }

(* Every valid slot is listed in [filled], so clearing the listed ones
   leaves the same TLB as clearing all 256. *)
let flush t =
  for i = 0 to t.nfilled - 1 do
    t.tlb.(t.filled.(i)).vpn <- -1
  done;
  t.nfilled <- 0;
  t.flushes <- t.flushes + 1

let check_perms ~cpl ~access ~writable ~user ~nx ~vaddr =
  if cpl = 3 && not user then
    raise (Page_fault { vaddr; access; not_present = false });
  match access with
  | Write when not writable ->
    raise (Page_fault { vaddr; access; not_present = false })
  | Exec when nx ->
    raise (Page_fault { vaddr; access; not_present = false })
  | Write | Read | Exec -> ()

let translate t mem ~ptb ~cpl access vaddr =
  if ptb = 0 then vaddr
  else begin
    let vpn = vaddr lsr 12 in
    let entry = t.tlb.(vpn land t.tlb_mask) in
    if entry.vpn = vpn then begin
      t.hits <- t.hits + 1;
      check_perms ~cpl ~access ~writable:entry.writable ~user:entry.user
        ~nx:entry.nx ~vaddr;
      (* Write-hit fast path: once this entry has set the PTE dirty bit,
         later write hits skip the PTE read-modify-write entirely.  A flush
         (LPTB/TLBFLUSH) drops the entry, so table edits behave as on real
         hardware, where stale dirty state also requires a flush. *)
      if access = Write && not entry.dirty then begin
        let pte = Phys_mem.read_u32 mem entry.pte_addr in
        Phys_mem.write_u32 mem entry.pte_addr (pte lor pte_dirty);
        entry.dirty <- true
      end;
      entry.frame lor (vaddr land 0xFFF)
    end
    else begin
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
      let writable = is_writable pde && is_writable pte in
      let user = is_user pde && is_user pte in
      let nx = is_nx pde || is_nx pte in
      check_perms ~cpl ~access ~writable ~user ~nx ~vaddr;
      Phys_mem.write_u32 mem pde_addr (pde lor pte_accessed);
      let dirty = if access = Write then pte_dirty else 0 in
      Phys_mem.write_u32 mem pte_addr (pte lor pte_accessed lor dirty);
      if entry.vpn < 0 then begin
        t.filled.(t.nfilled) <- vpn land t.tlb_mask;
        t.nfilled <- t.nfilled + 1
      end;
      entry.vpn <- vpn;
      entry.frame <- frame_of pte;
      entry.writable <- writable;
      entry.user <- user;
      entry.nx <- nx;
      entry.pte_addr <- pte_addr;
      entry.dirty <- access = Write;
      frame_of pte lor (vaddr land 0xFFF)
    end
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

let tlb_covers t ~vpn = (t.tlb.(vpn land t.tlb_mask)).vpn = vpn

let tlb_hits t = t.hits
let tlb_misses t = t.misses
let tlb_flushes t = t.flushes
