(* Every store bumps the generation of the 64-byte granule(s) it touches,
   so physically-tagged caches above (the CPU's instruction cache)
   validate with an array read instead of watching every writer.  The
   granule is deliberately finer than an MMU page: guest kernels keep hot
   data right next to code, and a 4 KiB granule would let counter stores
   invalidate the whole text page around them.  A second counter per
   4 KiB page, bumped by the same stores, lets checkpoints find the pages
   written since their last capture without reading 64 granule counters
   per page. *)
let granule_bits = 6
let page_bits = 12

type t = {
  data : Bytes.t;
  granule_gens : int array;
  page_gens : int array;
}

exception Bus_error of int

let create ~size =
  if size <= 0 then invalid_arg "Phys_mem.create: size <= 0";
  {
    data = Bytes.make size '\000';
    granule_gens = Array.make (((size - 1) lsr granule_bits) + 1) 0;
    page_gens = Array.make (((size - 1) lsr page_bits) + 1) 0;
  }

let size t = Bytes.length t.data

let check t addr len =
  if addr < 0 || addr + len > Bytes.length t.data then raise (Bus_error addr)

let generation t addr =
  Array.unsafe_get t.granule_gens (addr lsr granule_bits)

let page_generation t addr = Array.unsafe_get t.page_gens (addr lsr page_bits)

(* [addr, addr+len) is already bounds-checked when this runs.  A store
   within one granule is within one page, so only a multi-granule range
   can reach a second page. *)
let bump t addr len =
  let first = addr lsr granule_bits in
  let last = (addr + len - 1) lsr granule_bits in
  let page = addr lsr page_bits in
  Array.unsafe_set t.granule_gens first
    (Array.unsafe_get t.granule_gens first + 1);
  Array.unsafe_set t.page_gens page (Array.unsafe_get t.page_gens page + 1);
  if last > first then begin
    for g = first + 1 to last do
      t.granule_gens.(g) <- t.granule_gens.(g) + 1
    done;
    for p = page + 1 to (addr + len - 1) lsr page_bits do
      t.page_gens.(p) <- t.page_gens.(p) + 1
    done
  end

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get t.data addr)

let write_u8 t addr v =
  check t addr 1;
  bump t addr 1;
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))

let read_u16 t addr =
  check t addr 2;
  Char.code (Bytes.unsafe_get t.data addr)
  lor (Char.code (Bytes.unsafe_get t.data (addr + 1)) lsl 8)

let write_u16 t addr v =
  check t addr 2;
  bump t addr 2;
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set t.data (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))

let read_u32 t addr =
  check t addr 4;
  Char.code (Bytes.unsafe_get t.data addr)
  lor (Char.code (Bytes.unsafe_get t.data (addr + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get t.data (addr + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get t.data (addr + 3)) lsl 24)

let write_u32 t addr v =
  check t addr 4;
  bump t addr 4;
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set t.data (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set t.data (addr + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set t.data (addr + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

let load_bytes t ~addr bytes =
  check t addr (Bytes.length bytes);
  if Bytes.length bytes > 0 then bump t addr (Bytes.length bytes);
  Bytes.blit bytes 0 t.data addr (Bytes.length bytes)

let read_bytes t ~addr ~len =
  check t addr len;
  Bytes.sub t.data addr len

let blit_to_bytes t ~addr dst ~off ~len =
  check t addr len;
  Bytes.blit t.data addr dst off len

let write_bytes t ~addr src ~off ~len =
  check t addr len;
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Phys_mem.write_bytes";
  if len > 0 then bump t addr len;
  Bytes.blit src off t.data addr len

let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  if len > 0 then bump t dst len;
  Bytes.blit t.data src t.data dst len

(* [checksum_add]'s word-wide loop keeps the even and the odd 16-bit
   lanes of each little-endian word apart, two lanes per accumulator in
   32-bit slots.  A slot takes at most two lanes per 16 bytes, so after a
   4 KiB drain block it holds under 2^26 and never carries into its
   neighbour; draining adds the slots to the sum. *)
let lane_mask = 0x0000FFFF0000FFFF
let drain_bytes = 4096

let checksum_add t ~addr ~len ~index sum =
  check t addr len;
  (* Ones'-complement accumulation with explicit byte index, so callers
     summing chunk by chunk keep global little-endian 16-bit pairing.  A
     byte at an even message index is a low byte, at an odd one a high
     byte; once the index is even, every 16 bytes are eight such pairs,
     so the word-wide loop returns the same unfolded sum as adding byte
     by byte. *)
  let data = t.data in
  let sum = ref sum and pos = ref addr and stop = addr + len in
  if len > 0 && index land 1 = 1 then begin
    sum := !sum + (Char.code (Bytes.unsafe_get data addr) lsl 8);
    pos := addr + 1
  end;
  while !pos + 16 <= stop do
    let block_stop = min stop (!pos + drain_bytes) in
    let even = ref 0 and odd = ref 0 in
    while !pos + 16 <= block_stop do
      let a = Bytes.get_int64_le data !pos
      and b = Bytes.get_int64_le data (!pos + 8) in
      even :=
        !even + (Int64.to_int a land lane_mask) + (Int64.to_int b land lane_mask);
      odd :=
        !odd
        + (Int64.to_int (Int64.shift_right_logical a 16) land lane_mask)
        + (Int64.to_int (Int64.shift_right_logical b 16) land lane_mask);
      pos := !pos + 16
    done;
    sum :=
      !sum
      + (!even land 0xFFFFFFFF) + (!even lsr 32)
      + (!odd land 0xFFFFFFFF) + (!odd lsr 32)
  done;
  while !pos + 2 <= stop do
    sum :=
      !sum
      + Char.code (Bytes.unsafe_get data !pos)
      + (Char.code (Bytes.unsafe_get data (!pos + 1)) lsl 8);
    pos := !pos + 2
  done;
  if !pos < stop then sum := !sum + Char.code (Bytes.unsafe_get data !pos);
  !sum

let checksum t ~addr ~len =
  check t addr len;
  (* Standard Internet checksum: 16-bit ones'-complement sum, odd trailing
     byte padded with zero. *)
  let sum = checksum_add t ~addr ~len ~index:0 0 in
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

let fill t ~addr ~len v =
  check t addr len;
  if len > 0 then bump t addr len;
  Bytes.fill t.data addr len (Char.chr (v land 0xFF))
