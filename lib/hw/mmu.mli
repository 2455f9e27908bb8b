(** Two-level paging MMU with a small TLB, modelled on IA-32.

    A page-table base (PTB) of 0 disables paging (identity mapping, no
    checks) — the state the machine boots in.  Otherwise PTB points at a
    4 KiB page directory of 1024 entries, each optionally pointing at a page
    table of 1024 page-table entries mapping 4 KiB pages.

    PTE/PDE format (like x86 without PAE):
    bit 0 present, bit 1 writable, bit 2 user-accessible, bit 5 accessed,
    bit 6 dirty, bits 12-31 frame number.  The supervisor/user split is the
    two-level hardware protection the paper works around: rings 0-2 are
    supervisor, ring 3 is user. *)

type access = Read | Write | Exec

type fault = {
  vaddr : int;
  access : access;
  not_present : bool;  (** true: missing PDE/PTE; false: permission *)
}

exception Page_fault of fault

val page_size : int
val entries_per_table : int

(** {2 Entry construction/inspection} *)

val pte_present : int
val pte_writable : int
val pte_user : int

(** No-execute (bit 3, reserved on real IA-32).  Only the monitor's shadow
    tables set it — it is the mechanism behind page-permission virtual
    breakpoints: an armed page stays readable/writable (pristine data
    reads) but any fetch from it raises [Page_fault] with [access = Exec]
    and [not_present = false] into the monitor. *)
val pte_nx : int

val pte_accessed : int
val pte_dirty : int

(** [make_pte ~frame ~writable ~user] is a present entry mapping physical
    [frame] (byte address, low 12 bits ignored). *)
val make_pte : frame:int -> writable:bool -> user:bool -> int

val frame_of : int -> int
val is_present : int -> bool
val is_writable : int -> bool
val is_user : int -> bool
val is_nx : int -> bool

(** [dir_index vaddr] and [table_index vaddr] split a virtual address. *)
val dir_index : int -> int

val table_index : int -> int

(** {2 Translation} *)

type t

(** [create ()] is an MMU with an empty TLB.  The MMU only counts
    misses; the caller charges [Costs.tlb_miss] for each one (see
    {!tlb_misses}). *)
val create : unit -> t

(** [flush t] drops every TLB entry (LPTB and TLBFLUSH do this).  It
    costs the number of slots filled since the last flush, not the TLB's
    size, and bumps {!tlb_flushes}. *)
val flush : t -> unit

(** [translate t mem ~ptb ~cpl access vaddr] is the physical address of
    [vaddr].  Sets accessed/dirty bits on the walked entries.  A walk
    (TLB miss) bumps {!tlb_misses}; a caller that models the miss
    penalty compares that counter across the call, so a TLB hit
    allocates nothing.
    @raise Page_fault on a missing or forbidden mapping. *)
val translate : t -> Phys_mem.t -> ptb:int -> cpl:int -> access -> int -> int

(** [probe mem ~ptb vaddr] walks the tables without touching accessed/dirty
    bits or the TLB; [None] when unmapped at either level, including when
    a table lies outside physical memory.  Used by the monitor's
    shadow-paging code to read the guest's tables. *)
val probe : Phys_mem.t -> ptb:int -> int -> int option

(** [tlb_covers t ~vpn] — the direct-mapped slot for virtual page [vpn]
    still holds that page's entry.  The CPU's block translator uses this
    as a per-instruction guard: while the code page stays resident, no
    fetch in the block could have walked the tables (no TLB-miss charge,
    no accessed-bit store), so skipping the per-instruction fetch
    translation is invisible.  A data access that evicts the code page's
    entry flips this to [false] and the chain hands back to the
    dispatcher. *)
val tlb_covers : t -> vpn:int -> bool

(** [tlb_hits t] / [tlb_misses t] count translations served from the TLB
    and table walks (including walks that end in a fault), since
    [create].  Neither counts with paging off. *)
val tlb_hits : t -> int

val tlb_misses : t -> int

(** [tlb_flushes t] counts {!flush} calls since [create]. *)
val tlb_flushes : t -> int
