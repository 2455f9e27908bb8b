(** Write-watchpoint table.

    The monitor implements data breakpoints with the same shadow-paging
    machinery that protects its own memory: pages containing a watched
    range are mapped read-only in the shadow tables, so every guest store
    to them faults.  Stores inside a watched range stop the guest and
    notify the debugger; stores elsewhere on the page are replayed
    transparently (unprotect, single-step, re-protect). *)

type t

val create : unit -> t

(** [add t ~addr ~len] registers a range; [false] when an identical range
    already exists.  @raise Invalid_argument when [len <= 0]. *)
val add : t -> addr:int -> len:int -> bool

(** [remove t ~addr ~len] — [false] when no such range. *)
val remove : t -> addr:int -> len:int -> bool

(** [hit t vaddr] — the watched range containing [vaddr], if any. *)
val hit : t -> int -> (int * int) option

(** [page_watched t page_base] — does any range touch this 4 KiB page? *)
val page_watched : t -> int -> bool

(** [pages_of ~addr ~len] — page base addresses a range covers. *)
val pages_of : addr:int -> len:int -> int list

val count : t -> int
