(** Breakpoint table for the debug stub.

    Breakpoints are page-permission virtual breakpoints (Price 2019):
    guest text is never touched; instead every page holding an armed site
    is mapped no-execute in the shadow tables and the monitor fields the
    resulting exec faults.  The table records the armed addresses, the
    monitor's observe-only sites, and per-page armed-site counts that
    the shadow fill consults to decide NX. *)

type t

val create : unit -> t

(** [add t ~addr] arms a breakpoint; [false] when one already exists at
    [addr]. *)
val add : t -> addr:int -> bool

(** [remove t ~addr] disarms; [true] if a breakpoint was present. *)
val remove : t -> addr:int -> bool

val mem : t -> addr:int -> bool
val count : t -> int

(** [page_armed t ~page] — some armed site lives on the 4 KiB page
    containing [page] (any address on the page may be passed).  O(1), and
    the empty-table case is a single length check — this sits on the
    monitor's page-fault path. *)
val page_armed : t -> page:int -> bool

(** [armed_pages t] — sorted page base addresses holding at least one
    armed site. *)
val armed_pages : t -> int list

(** [addresses t] — sorted list of breakpoint addresses. *)
val addresses : t -> int list

(** Observe-only sites: the monitor's race-witness machinery arms these
    on statically-reported race windows.  They share the per-page
    armed-site counts (so their pages map NX) but live outside the
    stub's table — an exec fault at one never stops the guest, and
    {!clear} (stub detach) leaves them armed. *)

(** [add_observe t ~addr] — [false] if already observed. *)
val add_observe : t -> addr:int -> bool

(** [remove_observe t ~addr] — [true] if it was present. *)
val remove_observe : t -> addr:int -> bool

val observe_mem : t -> addr:int -> bool

(** Sorted observe-site addresses. *)
val observed : t -> int list

(** [clear t] forgets the stub's breakpoints (detach); returns the
    sorted addresses that were armed so the caller can disarm their
    pages.  Observe-only sites survive. *)
val clear : t -> int list
