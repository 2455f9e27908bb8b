(** Physical memory: byte-addressable, with little-endian multi-byte
    access, kept as 4 KiB pages.

    Every page starts as one zero page shared by all memories; the first
    store into a page, through any path, gives it its own copy.  So a
    memory costs the pages that were written, not its size.  Accesses
    behave as on one contiguous array: words and ranges may cross pages.

    Addresses are physical; translation lives in {!Mmu}.  Out-of-range
    accesses raise {!Bus_error}, which the CPU turns into a machine check. *)

type t

exception Bus_error of int

(** [create ~size] is zero-filled memory of [size] bytes.  It allocates
    three words per page (pointers to the page and to its granule
    generations, and the page's write generation) but no page and no
    granule generations: a page gets those on its first store. *)
val create : size:int -> t

val size : t -> int

(** {2 Write generations}

    Every store bumps a generation counter for each [1 lsl granule_bits]-
    byte granule it touches.  Physically tagged caches — the CPU's
    instruction cache and compiled blocks — validate an entry by comparing
    the generation captured at fill time against {!generation}, so guest
    stores, DMA, debugger memory writes and program loading all invalidate
    without explicit hooks.  Granules are finer than MMU pages so data
    kept adjacent to code does not thrash the instruction cache.

    The same stores also bump one generation per [1 lsl page_bits]-byte
    page they touch (each page once).  Checkpoints compare it against
    the generation recorded at their last copy of the page to find the
    pages written since.  A page whose generation is still 0 has never
    been written and holds the zeros of {!create}. *)

val granule_bits : int
val page_bits : int

(** [generation t addr] is the current write generation of the granule
    containing physical address [addr] (which must be in range). *)
val generation : t -> int -> int

(** [page_generation t addr] is the current write generation of the
    page containing physical address [addr] (which must be in range). *)
val page_generation : t -> int -> int

(** 8-bit access; value in [0, 255]. *)
val read_u8 : t -> int -> int

val write_u8 : t -> int -> int -> unit

(** 16-bit little-endian access. *)
val read_u16 : t -> int -> int

val write_u16 : t -> int -> int -> unit

(** 32-bit little-endian access. *)
val read_u32 : t -> int -> Word.t

val write_u32 : t -> int -> Word.t -> unit

(** [load_bytes t ~addr bytes] copies [bytes] into memory at [addr]. *)
val load_bytes : t -> addr:int -> bytes -> unit

(** [read_bytes t ~addr ~len] copies a region out. *)
val read_bytes : t -> addr:int -> len:int -> bytes

(** [blit_to_bytes t ~addr dst ~off ~len] copies a region out into a
    caller-supplied buffer — the allocation-free form of {!read_bytes}
    used by the DMA device models. *)
val blit_to_bytes : t -> addr:int -> bytes -> off:int -> len:int -> unit

(** [write_bytes t ~addr src ~off ~len] copies [len] bytes of [src]
    starting at [off] into memory at [addr] — the counterpart of
    {!blit_to_bytes} for device-to-memory DMA. *)
val write_bytes : t -> addr:int -> bytes -> off:int -> len:int -> unit

(** [blit t ~src ~dst ~len] copies within physical memory (used by the DMA
    engine and the COPY instruction); handles overlap like [Bytes.blit],
    across pages too. *)
val blit : t -> src:int -> dst:int -> len:int -> unit

(** [checksum t ~addr ~len] is the ones'-complement 16-bit sum used by the
    guest's UDP stack (and by tests to validate transmitted frames). *)
val checksum : t -> addr:int -> len:int -> int

(** [checksum_add t ~addr ~len ~index sum] accumulates the region into a
    running ones'-complement sum, where [index] is the byte offset of
    [addr] within the overall message (it fixes 16-bit pairing parity).
    Fold the result with [checksum]-style carry wrapping when done.

    The result is the unfolded integer sum of adding each byte at an
    even message index as a low byte and at an odd one as a high byte.
    It is computed 8 bytes at a time (four little-endian 16-bit lanes per
    read), so callers may split a message at any byte and still get the
    bytewise sum; it allocates nothing. *)
val checksum_add : t -> addr:int -> len:int -> index:int -> int -> int

(** [fill t ~addr ~len v] sets a region to byte [v]. *)
val fill : t -> addr:int -> len:int -> int -> unit
