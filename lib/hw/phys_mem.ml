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

let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Memory is an array of 4 KiB pages.  Every page starts as [zero], one
   page shared by every memory and never written; the first store into a
   page gives it its own copy ([writable]).  A machine therefore costs
   the pages its guest touches, not its size.  A range op splits at page
   boundaries (a range inside one page is one pass of its loop); a word
   access that straddles a page goes byte by byte. *)
let zero = Bytes.make page_size '\000'

(* A page's granule generations live in their own small array, and
   every page starts sharing [zero_gens] (never written) the way it
   shares [zero]: the first store into a page gives it its own.  A
   machine therefore does not allocate and zero-fill one word per
   granule up front (2 MiB for 16 MiB of RAM). *)
let granules_per_page = 1 lsl (page_bits - granule_bits)
let zero_gens = Array.make granules_per_page 0

type t = {
  pages : Bytes.t array;
  size : int;
  granule_gens : int array array; (* per page *)
  page_gens : int array;
}

exception Bus_error of int

let create ~size =
  if size <= 0 then invalid_arg "Phys_mem.create: size <= 0";
  let npages = ((size - 1) lsr page_bits) + 1 in
  {
    pages = Array.make npages zero;
    size;
    granule_gens = Array.make npages zero_gens;
    page_gens = Array.make npages 0;
  }

let size t = t.size

let check t addr len =
  if addr < 0 || addr + len > t.size then raise (Bus_error addr)

let generation t addr =
  Array.unsafe_get
    (Array.unsafe_get t.granule_gens (addr lsr page_bits))
    ((addr lsr granule_bits) land (granules_per_page - 1))

let page_generation t addr = Array.unsafe_get t.page_gens (addr lsr page_bits)

(* Granule [g]'s generation + 1, giving its page its own generations
   first. *)
let bump_granule t g =
  let p = g lsr (page_bits - granule_bits) in
  let gens = Array.unsafe_get t.granule_gens p in
  let gens =
    if gens != zero_gens then gens
    else begin
      let own = Array.make granules_per_page 0 in
      Array.unsafe_set t.granule_gens p own;
      own
    end
  in
  let k = g land (granules_per_page - 1) in
  Array.unsafe_set gens k (Array.unsafe_get gens k + 1)

(* [addr, addr+len) is already bounds-checked when this runs.  A store
   within one granule is within one page, so only a multi-granule range
   can reach a second page. *)
let bump t addr len =
  let first = addr lsr granule_bits in
  let last = (addr + len - 1) lsr granule_bits in
  let page = addr lsr page_bits in
  bump_granule t first;
  Array.unsafe_set t.page_gens page (Array.unsafe_get t.page_gens page + 1);
  if last > first then begin
    for g = first + 1 to last do
      bump_granule t g
    done;
    for p = page + 1 to (addr + len - 1) lsr page_bits do
      t.page_gens.(p) <- t.page_gens.(p) + 1
    done
  end

(* The page holding [addr], for reading. *)
let[@inline] page t addr = Array.unsafe_get t.pages (addr lsr page_bits)

(* Page [p], for writing: its own copy, made on the first store. *)
let own t p =
  let b = Bytes.make page_size '\000' in
  Array.unsafe_set t.pages p b;
  b

let[@inline] writable t p =
  let b = Array.unsafe_get t.pages p in
  if b != zero then b else own t p

(* The byte store of the word writers, after [check] and [bump]. *)
let poke t addr v =
  Bytes.unsafe_set
    (writable t (addr lsr page_bits))
    (addr land page_mask)
    (Char.unsafe_chr (v land 0xFF))

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get (page t addr) (addr land page_mask))

let write_u8 t addr v =
  check t addr 1;
  bump t addr 1;
  poke t addr v

let read_u16 t addr =
  check t addr 2;
  let off = addr land page_mask in
  if off <= page_size - 2 then Bytes.get_uint16_le (page t addr) off
  else
    Char.code (Bytes.unsafe_get (page t addr) off)
    lor (Char.code (Bytes.unsafe_get (page t (addr + 1)) 0) lsl 8)

let write_u16 t addr v =
  check t addr 2;
  bump t addr 2;
  let off = addr land page_mask in
  if off <= page_size - 2 then
    Bytes.set_uint16_le (writable t (addr lsr page_bits)) off (v land 0xFFFF)
  else begin
    poke t addr v;
    poke t (addr + 1) (v lsr 8)
  end

let read_u32 t addr =
  check t addr 4;
  let off = addr land page_mask in
  if off <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (page t addr) off) land 0xFFFFFFFF
  else begin
    let v = ref 0 in
    for i = 3 downto 0 do
      let a = addr + i in
      v :=
        (!v lsl 8)
        lor Char.code (Bytes.unsafe_get (page t a) (a land page_mask))
    done;
    !v
  end

let write_u32 t addr v =
  check t addr 4;
  bump t addr 4;
  let off = addr land page_mask in
  if off <= page_size - 4 then
    Bytes.set_int32_le (writable t (addr lsr page_bits)) off (Int32.of_int v)
  else
    for i = 0 to 3 do
      poke t (addr + i) (v lsr (8 * i))
    done

(* Memory to bytes: [len] bytes at [addr] into [dst] at [off], page by
   page.  The range is checked; an empty one touches no page. *)
let copy_out t addr dst off len =
  let a = ref addr and d = ref off and stop = addr + len in
  while !a < stop do
    let o = !a land page_mask in
    let n = Int.min (page_size - o) (stop - !a) in
    Bytes.blit (page t !a) o dst !d n;
    a := !a + n;
    d := !d + n
  done

(* Bytes to memory: the counterpart of [copy_out]. *)
let copy_in t addr src off len =
  let a = ref addr and s = ref off and stop = addr + len in
  while !a < stop do
    let o = !a land page_mask in
    let n = Int.min (page_size - o) (stop - !a) in
    Bytes.blit src !s (writable t (!a lsr page_bits)) o n;
    a := !a + n;
    s := !s + n
  done

let load_bytes t ~addr bytes =
  let len = Bytes.length bytes in
  check t addr len;
  if len > 0 then begin
    bump t addr len;
    copy_in t addr bytes 0 len
  end

let read_bytes t ~addr ~len =
  check t addr len;
  let b = Bytes.create len in
  copy_out t addr b 0 len;
  b

let blit_to_bytes t ~addr dst ~off ~len =
  check t addr len;
  if off < 0 || len < 0 || off + len > Bytes.length dst then
    invalid_arg "Phys_mem.blit_to_bytes";
  copy_out t addr dst off len

let write_bytes t ~addr src ~off ~len =
  check t addr len;
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Phys_mem.write_bytes";
  if len > 0 then begin
    bump t addr len;
    copy_in t addr src off len
  end

(* Chunks never cross a page on either side.  Like [Bytes.blit], an
   overlapping copy to a higher address runs backwards, so each chunk
   reads its source before an earlier chunk overwrites it; one chunk's
   own overlap (both ends in one page) is [Bytes.blit]'s. *)
let blit t ~src ~dst ~len =
  check t src len;
  check t dst len;
  if len < 0 then invalid_arg "Phys_mem.blit";
  if len > 0 then begin
    bump t dst len;
    if dst <= src || dst >= src + len then begin
      let i = ref 0 in
      while !i < len do
        let s = src + !i and d = dst + !i in
        let so = s land page_mask and d_o = d land page_mask in
        let n =
          Int.min (len - !i) (Int.min (page_size - so) (page_size - d_o))
        in
        let dp = writable t (d lsr page_bits) in
        Bytes.blit (page t s) so dp d_o n;
        i := !i + n
      done
    end
    else begin
      let i = ref len in
      while !i > 0 do
        (* the chunk ends at [!i]: [se], [de] are its last bytes *)
        let se = src + !i - 1 and de = dst + !i - 1 in
        let n =
          Int.min !i
            (Int.min ((se land page_mask) + 1) ((de land page_mask) + 1))
        in
        let dp = writable t (de lsr page_bits) in
        Bytes.blit (page t se)
          ((se land page_mask) - n + 1)
          dp
          ((de land page_mask) - n + 1)
          n;
        i := !i - n
      done
    end
  end

(* [sum_page]'s word-wide loop keeps the even and the odd 16-bit lanes
   of each little-endian word apart, two lanes per accumulator in 32-bit
   slots.  A slot takes at most two lanes per 16 bytes, so over one page
   it holds under 2^26 and never carries into its neighbour; draining
   adds the slots to the sum. *)
let lane_mask = 0x0000FFFF0000FFFF

(* Ones'-complement accumulation over [len] bytes of one page from
   offset [pos], with explicit byte index, so callers summing chunk by
   chunk keep global little-endian 16-bit pairing.  A byte at an even
   message index is a low byte, at an odd one a high byte; once the index
   is even, every 16 bytes are eight such pairs, so the word-wide loop
   returns the same unfolded sum as adding byte by byte.  The zero page
   adds nothing. *)
let sum_page data ~pos ~len ~index sum =
  if data == zero then sum
  else begin
    let sum = ref sum and pos = ref pos and stop = pos + len in
    if len > 0 && index land 1 = 1 then begin
      sum := !sum + (Char.code (Bytes.unsafe_get data !pos) lsl 8);
      incr pos
    end;
    let even = ref 0 and odd = ref 0 in
    while !pos + 16 <= stop do
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
      + (!odd land 0xFFFFFFFF) + (!odd lsr 32);
    while !pos + 2 <= stop do
      sum :=
        !sum
        + Char.code (Bytes.unsafe_get data !pos)
        + (Char.code (Bytes.unsafe_get data (!pos + 1)) lsl 8);
      pos := !pos + 2
    done;
    if !pos < stop then sum := !sum + Char.code (Bytes.unsafe_get data !pos);
    !sum
  end

let checksum_add t ~addr ~len ~index sum =
  check t addr len;
  let sum = ref sum and a = ref addr and stop = addr + len in
  while !a < stop do
    let o = !a land page_mask in
    let n = Int.min (page_size - o) (stop - !a) in
    sum := sum_page (page t !a) ~pos:o ~len:n ~index:(index + !a - addr) !sum;
    a := !a + n
  done;
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
  if len < 0 then invalid_arg "Phys_mem.fill";
  if len > 0 then begin
    bump t addr len;
    let c = Char.unsafe_chr (v land 0xFF) in
    let a = ref addr and stop = addr + len in
    while !a < stop do
      let o = !a land page_mask in
      let n = Int.min (page_size - o) (stop - !a) in
      Bytes.fill (writable t (!a lsr page_bits)) o n c;
      a := !a + n
    done
  end
