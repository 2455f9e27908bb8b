(* Every store bumps the generation of the 64-byte granule(s) it touches,
   so physically-tagged caches above (the CPU's instruction cache)
   validate with an array read instead of watching every writer.  The
   granule is deliberately finer than an MMU page: guest kernels keep hot
   data right next to code, and a 4 KiB granule would let counter stores
   invalidate the whole text page around them. *)
let granule_bits = 6

type t = {
  data : Bytes.t;
  granule_gens : int array;
}

exception Bus_error of int

let create ~size =
  if size <= 0 then invalid_arg "Phys_mem.create: size <= 0";
  {
    data = Bytes.make size '\000';
    granule_gens = Array.make (((size - 1) lsr granule_bits) + 1) 0;
  }

let size t = Bytes.length t.data

let check t addr len =
  if addr < 0 || addr + len > Bytes.length t.data then raise (Bus_error addr)

let generation t addr =
  Array.unsafe_get t.granule_gens (addr lsr granule_bits)

(* [addr, addr+len) is already bounds-checked when this runs. *)
let bump t addr len =
  let first = addr lsr granule_bits in
  let last = (addr + len - 1) lsr granule_bits in
  Array.unsafe_set t.granule_gens first
    (Array.unsafe_get t.granule_gens first + 1);
  if last > first then
    for p = first + 1 to last do
      t.granule_gens.(p) <- t.granule_gens.(p) + 1
    done

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

let checksum_add t ~addr ~len ~index sum =
  check t addr len;
  (* Ones'-complement accumulation with explicit byte index, so callers
     summing chunk by chunk keep global little-endian 16-bit pairing. *)
  let sum = ref sum in
  for i = 0 to len - 1 do
    let b = Char.code (Bytes.unsafe_get t.data (addr + i)) in
    if (index + i) land 1 = 0 then sum := !sum + b
    else sum := !sum + (b lsl 8)
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
  if len > 0 then bump t addr len;
  Bytes.fill t.data addr len (Char.chr (v land 0xFF))
