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

(** {2 Entry construction/inspection} *)

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

(** [dir_index vaddr] and [table_index vaddr] split a virtual address. *)
val dir_index : int -> int

val table_index : int -> int

(** {2 Translation} *)

(** The TLB: 256 direct-mapped slots, virtual page [vpn] in slot
    [vpn land (tlb_slots - 1)], stored as parallel arrays indexed by
    slot.  The representation is exposed so that the CPU can test a hit
    inline at every load, store and fetch (a cross-module call cannot be
    inlined in the dev build, which compiles with [-opaque]).

    This module is the only writer of entries: [vpn], [frame], [ready],
    [flags], [pte_addr] and [filled] change only in {!translate} and
    {!flush}.  [private] stops other modules from setting a field; the
    arrays' contents are theirs to read only.  The one write allowed
    outside is [hits.(0)]: the CPU bumps it for each hit it serves
    itself, exactly as {!translate}'s hit path would have.  It may serve
    a hit only when paging is on, [vpn.(slot)] is the page and
    [ready.(slot)] has the bit {!ready_bit}[ ~cpl access]; the address is
    then [frame.(slot) lor (vaddr land 0xFFF)].  Everything else goes to
    {!translate}, the one miss, fault and dirty-bit path. *)
type t = private {
  vpn : int array;  (** virtual page number per slot; [-1] = invalid *)
  frame : int array;  (** physical frame (byte address) per slot *)
  ready : int array;
      (** per slot, the {!ready_bit}s of the accesses a hit serves with
          no further work: see {!ready_mask} *)
  flags : int array;
      (** per slot, the effective [pte_writable], [pte_user] and [pte_nx]
          bits of both table levels, plus [pte_dirty] once this entry has
          set the PTE's dirty bit *)
  pte_addr : int array;  (** physical address of the slot's PTE *)
  filled : int array;
      (** the first [nfilled] are the slots filled since the last flush *)
  mutable nfilled : int;
  hits : int array;  (** one cell: translations served from the TLB *)
  mutable misses : int;  (** table walks, including those that fault *)
  mutable flushes : int;
}

val tlb_slots : int

(** [ready_bit ~cpl access] is [1 lsl (3 * cpl + a)], where [a] is 0 for
    [Read], 1 for [Write] and 2 for [Exec]. *)
val ready_bit : cpl:int -> access -> int

(** [ready_mask flags] is the [ready] value of an entry with [flags]: for
    each ring [cpl] 0-3 and access, the {!ready_bit} is set exactly when
    the access is permitted (ring 3 needs [pte_user], [Write] needs
    [pte_writable], [Exec] needs no [pte_nx]) and, for [Write], [flags]
    has [pte_dirty].  This is the one definition of the permission rule;
    {!translate} raises the protection fault on exactly the accesses it
    does not permit. *)
val ready_mask : int -> int

(** [create ()] is an MMU with an empty TLB.  The MMU only counts
    misses; the caller charges [Costs.tlb_miss] for each one (see
    {!tlb_misses}). *)
val create : unit -> t

(** [flush t] drops every TLB entry (LPTB and TLBFLUSH do this).  It
    costs the number of slots filled since the last flush, not the TLB's
    size, and bumps {!tlb_flushes}. *)
val flush : t -> unit

(** [translate t mem ~ptb ~cpl access vaddr] is the physical address of
    [vaddr].  Sets accessed/dirty bits on the walked entries, and the
    PTE's dirty bit on the first write hit through an entry.  A walk
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

(** [tlb_hits t] / [tlb_misses t] count translations served from the TLB
    and table walks (including walks that end in a fault), since
    [create].  Neither counts with paging off. *)
val tlb_hits : t -> int

val tlb_misses : t -> int

(** [tlb_flushes t] counts {!flush} calls since [create]. *)
val tlb_flushes : t -> int
