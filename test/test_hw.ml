(* Tests for the hardware model: word arithmetic, physical memory, ISA
   encode/decode, the assembler, MMU translation, CPU execution semantics
   (including privilege, interrupts and paging) and the device models. *)

module Engine = Vmm_sim.Engine
module Word = Vmm_hw.Word
module Phys_mem = Vmm_hw.Phys_mem
module Isa = Vmm_hw.Isa
module Asm = Vmm_hw.Asm
module Mmu = Vmm_hw.Mmu
module Cpu = Vmm_hw.Cpu
module Io_bus = Vmm_hw.Io_bus
module Pic = Vmm_hw.Pic
module Pit = Vmm_hw.Pit
module Uart = Vmm_hw.Uart
module Scsi = Vmm_hw.Scsi
module Nic = Vmm_hw.Nic
module Machine = Vmm_hw.Machine
module Costs = Vmm_hw.Costs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* -- Word -- *)

let test_word_wrap () =
  check int "add wraps" 0 (Word.add 0xFFFFFFFF 1);
  check int "sub wraps" 0xFFFFFFFF (Word.sub 0 1);
  check int "mul wraps" 0xFFFFFFFE (Word.mul 0xFFFFFFFF 2);
  check int "signed view" (-1) (Word.to_signed 0xFFFFFFFF);
  check int "of_signed" 0xFFFFFFFF (Word.of_signed (-1))

let test_word_shifts () =
  check int "shl" 0x80000000 (Word.shift_left 1 31);
  check int "shl mod 32" 2 (Word.shift_left 1 33);
  check int "shr" 1 (Word.shift_right 0x80000000 31);
  check int "byte" 0xCD (Word.byte 0xABCD1234 2)

let test_word_compare () =
  check bool "unsigned" true (Word.unsigned_lt 1 0xFFFFFFFF);
  check bool "signed" true (Word.signed_lt 0xFFFFFFFF 1)

(* -- Phys_mem -- *)

let test_mem_rw () =
  let m = Phys_mem.create ~size:4096 in
  Phys_mem.write_u32 m 0 0xDEADBEEF;
  check int "u32" 0xDEADBEEF (Phys_mem.read_u32 m 0);
  check int "u8 LE" 0xEF (Phys_mem.read_u8 m 0);
  check int "u16 LE" 0xBEEF (Phys_mem.read_u16 m 0);
  Phys_mem.write_u16 m 100 0x1234;
  check int "u16 rt" 0x1234 (Phys_mem.read_u16 m 100)

let test_mem_bounds () =
  let m = Phys_mem.create ~size:16 in
  Alcotest.check_raises "oob read" (Phys_mem.Bus_error 16) (fun () ->
      ignore (Phys_mem.read_u8 m 16));
  Alcotest.check_raises "straddling u32" (Phys_mem.Bus_error 13) (fun () ->
      ignore (Phys_mem.read_u32 m 13))

(* An empty range at the very end of a memory whose size is a whole
   number of pages names no page: every path must touch nothing, and
   one byte further is a bus error. *)
let test_mem_empty_range_at_end () =
  let size = 2 * 4096 in
  let m = Phys_mem.create ~size in
  Phys_mem.write_u8 m (size - 1) 0x5A;
  let gen = Phys_mem.page_generation m (size - 1) in
  check int "read_bytes" 0
    (Bytes.length (Phys_mem.read_bytes m ~addr:size ~len:0));
  let dst = Bytes.of_string "abcd" in
  Phys_mem.blit_to_bytes m ~addr:size dst ~off:4 ~len:0;
  check Alcotest.string "blit_to_bytes" "abcd" (Bytes.to_string dst);
  check int "checksum_add" 77
    (Phys_mem.checksum_add m ~addr:size ~len:0 ~index:1 77);
  check int "checksum" 0xFFFF (Phys_mem.checksum m ~addr:size ~len:0);
  Phys_mem.write_bytes m ~addr:size dst ~off:0 ~len:0;
  Phys_mem.load_bytes m ~addr:size Bytes.empty;
  Phys_mem.fill m ~addr:size ~len:0 0xFF;
  Phys_mem.blit m ~src:size ~dst:0 ~len:0;
  Phys_mem.blit m ~src:0 ~dst:size ~len:0;
  check int "no store counted" gen (Phys_mem.page_generation m (size - 1));
  check int "last byte kept" 0x5A (Phys_mem.read_u8 m (size - 1));
  Alcotest.check_raises "read_bytes past the end" (Phys_mem.Bus_error size)
    (fun () -> ignore (Phys_mem.read_bytes m ~addr:size ~len:1));
  Alcotest.check_raises "empty read past the end"
    (Phys_mem.Bus_error (size + 1)) (fun () ->
      ignore (Phys_mem.read_bytes m ~addr:(size + 1) ~len:0));
  Alcotest.check_raises "blit_to_bytes past the end" (Phys_mem.Bus_error size)
    (fun () -> Phys_mem.blit_to_bytes m ~addr:size dst ~off:0 ~len:1);
  Alcotest.check_raises "checksum_add past the end" (Phys_mem.Bus_error size)
    (fun () -> ignore (Phys_mem.checksum_add m ~addr:size ~len:1 ~index:0 0))

let test_mem_checksum_matches_rfc () =
  (* Independent reference implementation. *)
  let m = Phys_mem.create ~size:64 in
  let data = [ 0x45; 0x00; 0x00; 0x3c; 0x1c; 0x46; 0x40; 0x00 ] in
  List.iteri (fun i v -> Phys_mem.write_u8 m i v) data;
  let reference =
    let sum =
      (0x45 lor (0x00 lsl 8))
      + (0x00 lor (0x3c lsl 8))
      + (0x1c lor (0x46 lsl 8))
      + (0x40 lor (0x00 lsl 8))
    in
    let s = (sum land 0xFFFF) + (sum lsr 16) in
    lnot ((s land 0xFFFF) + (s lsr 16)) land 0xFFFF
  in
  check int "checksum" reference (Phys_mem.checksum m ~addr:0 ~len:8)

let test_mem_checksum_odd_len () =
  let m = Phys_mem.create ~size:8 in
  Phys_mem.write_u8 m 0 0xAB;
  Phys_mem.write_u8 m 1 0xCD;
  Phys_mem.write_u8 m 2 0x12;
  let sum = 0xAB lor (0xCD lsl 8) in
  let sum = sum + 0x12 in
  let s = (sum land 0xFFFF) + (sum lsr 16) in
  check int "odd trailing byte" (lnot s land 0xFFFF)
    (Phys_mem.checksum m ~addr:0 ~len:3)

(* Page write generations: a store bumps the page(s) it touches and no
   other; a range bumps each page it covers. *)
let page_gens m =
  Array.init
    (Phys_mem.size m lsr Phys_mem.page_bits)
    (fun p -> Phys_mem.page_generation m (p lsl Phys_mem.page_bits))

let changed_pages before after =
  List.filter
    (fun p -> before.(p) <> after.(p))
    (List.init (Array.length after) Fun.id)

let test_mem_page_generations () =
  let m = Phys_mem.create ~size:(8 * 4096) in
  let pages = Alcotest.(list int) in
  let g0 = page_gens m in
  Phys_mem.write_u32 m 0x0FFE 0xDEADBEEF;
  check pages "u32 at 0x0FFE bumps both pages" [ 0; 1 ]
    (changed_pages g0 (page_gens m));
  let g1 = page_gens m in
  Phys_mem.write_u8 m ((5 * 4096) + 17) 1;
  check pages "u8 store bumps only its page" [ 5 ]
    (changed_pages g1 (page_gens m));
  let g2 = page_gens m in
  Phys_mem.write_u16 m ((3 * 4096) + 100) 1;
  check pages "u16 store bumps only its page" [ 3 ]
    (changed_pages g2 (page_gens m));
  let g3 = page_gens m in
  Phys_mem.fill m ~addr:((2 * 4096) + 8) ~len:(2 * 4096) 0xAA;
  check pages "fill over 3 pages bumps all 3" [ 2; 3; 4 ]
    (changed_pages g3 (page_gens m));
  let g4 = page_gens m in
  Phys_mem.blit m ~src:0 ~dst:((4 * 4096) + 4000) ~len:(4096 + 200);
  check pages "blit over 3 pages bumps all 3" [ 4; 5; 6 ]
    (changed_pages g4 (page_gens m));
  let g5 = page_gens m in
  Phys_mem.fill m ~addr:(7 * 4096) ~len:4096 0;
  check int "a whole-page range bumps its page once" (g5.(7) + 1)
    (Phys_mem.page_generation m (7 * 4096));
  check pages "and no neighbour" [ 7 ] (changed_pages g5 (page_gens m))

(* The bytewise definition [checksum_add] must keep computing: a byte at
   an even message index is a low byte, at an odd one a high byte. *)
let bytewise_checksum_add mem ~addr ~len ~index sum =
  let s = ref sum in
  for i = 0 to len - 1 do
    let b = Phys_mem.read_u8 mem (addr + i) in
    s := !s + if (index + i) land 1 = 0 then b else b lsl 8
  done;
  !s

let checksum_mem =
  let mem = Phys_mem.create ~size:(24 * 1024) in
  let rng = Vmm_sim.Rng.create ~seed:2005L in
  for i = 0 to Phys_mem.size mem - 1 do
    Phys_mem.write_u8 mem i (Vmm_sim.Rng.int rng 256)
  done;
  (* Runs of 0xFF make the lane sums carry; this one fills a whole
     page, the most the word-wide loop sums before draining. *)
  Phys_mem.fill mem ~addr:0x1000 ~len:5000 0xFF;
  mem

let prop_checksum_add_matches_bytewise =
  QCheck.Test.make ~name:"checksum_add matches bytewise model" ~count:500
    QCheck.(
      quad (int_bound 8191) (int_bound 9000) (int_bound 1_000_001)
        (int_bound 0xFFFFFF))
    (fun (addr, len, index, sum) ->
      Phys_mem.checksum_add checksum_mem ~addr ~len ~index sum
      = bytewise_checksum_add checksum_mem ~addr ~len ~index sum)

(* The paged memory against a flat [Bytes] model: random sequences of
   every access path, clustered at page boundaries so words straddle
   pages and ranges span several, with overlapping blits both ways and
   accesses past the end.  Every byte and every granule and page
   generation must match the model, and a fresh memory must still read
   zeros (no first write may land in the shared zero page). *)
type mem_op =
  | W8 of int * int
  | W16 of int * int
  | W32 of int * int
  | R8 of int
  | R16 of int
  | R32 of int
  | Blit of int * int * int
  | Fill of int * int * int
  | Write_bytes of int * string * int * int
  | Load of int * string
  | Read of int * int
  | Blit_out of int * int * int
  | Csum of int * int * int * int list

let show_mem_op = function
  | W8 (a, v) -> Printf.sprintf "w8 %x %x" a v
  | W16 (a, v) -> Printf.sprintf "w16 %x %x" a v
  | W32 (a, v) -> Printf.sprintf "w32 %x %x" a v
  | R8 a -> Printf.sprintf "r8 %x" a
  | R16 a -> Printf.sprintf "r16 %x" a
  | R32 a -> Printf.sprintf "r32 %x" a
  | Blit (s, d, l) -> Printf.sprintf "blit %x->%x %d" s d l
  | Fill (a, l, v) -> Printf.sprintf "fill %x %d %x" a l v
  | Write_bytes (a, s, o, l) ->
    Printf.sprintf "write_bytes %x [%d] %d %d" a (String.length s) o l
  | Load (a, s) -> Printf.sprintf "load %x %d" a (String.length s)
  | Read (a, l) -> Printf.sprintf "read %x %d" a l
  | Blit_out (a, o, l) -> Printf.sprintf "blit_to_bytes %x %d %d" a o l
  | Csum (a, l, i, cuts) ->
    Printf.sprintf "csum %x %d @%d cut [%s]" a l i
      (String.concat "," (List.map string_of_int cuts))

(* Six pages and a partial seventh: the end is not a page boundary. *)
let model_size = (6 * 4096) + 100

let gen_mem_op =
  let open QCheck.Gen in
  let page = 4096 in
  let addr =
    frequency
      [
        (4, int_bound (model_size - 1));
        (4, map2 (fun p d -> (p * page) - d) (int_range 1 6) (int_range 0 17));
        (1, map (fun d -> model_size - d) (int_range (-3) 4));
        (1, return (-1));
      ]
  in
  let len = frequency [ (3, int_bound 64); (2, int_bound (2 * page + 100)) ] in
  let byte = int_bound 0xFF in
  let data = string_size ~gen:char len in
  frequency
    [
      (3, map2 (fun a v -> W8 (a, v)) addr byte);
      (3, map2 (fun a v -> W16 (a, v)) addr (int_bound 0xFFFF));
      (3, map2 (fun a v -> W32 (a, v)) addr (int_bound 0xFFFFFFFF));
      (2, map (fun a -> R8 a) addr);
      (2, map (fun a -> R16 a) addr);
      (2, map (fun a -> R32 a) addr);
      (* overlapping copies both ways, across page boundaries *)
      ( 4,
        map3
          (fun s d l -> Blit (s, s + d, l))
          addr (int_range (-200) 200) len );
      (2, map3 (fun s d l -> Blit (s, d, l)) addr addr len);
      ( 2,
        map3
          (fun a l v -> Fill (a, l, v))
          addr len
          (frequency [ (1, return 0); (2, byte) ]) );
      ( 2,
        map3
          (fun a s (o, l) ->
            let n = String.length s in
            let o = o mod (n + 1) in
            Write_bytes (a, s, o, l mod (n - o + 1)))
          addr data
          (pair (int_bound 1000) (int_bound 10000)) );
      (2, map2 (fun a s -> Load (a, s)) addr data);
      (2, map2 (fun a l -> Read (a, l)) addr len);
      (2, map3 (fun a o l -> Blit_out (a, o, l)) addr (int_bound 16) len);
      ( 3,
        map3
          (fun a l (i, cuts) -> Csum (a, l, i, List.sort compare cuts))
          addr len
          (pair (int_bound 1001) (list_size (int_bound 4) (int_bound 10000)))
      );
    ]

type mem_model = {
  bytes : Bytes.t;
  granules : int array;
  pages : int array;
}

let model_in_range a l = a >= 0 && a + l <= model_size

let model_store md a l =
  let gb = Phys_mem.granule_bits in
  for g = a lsr gb to (a + l - 1) lsr gb do
    md.granules.(g) <- md.granules.(g) + 1
  done;
  for p = a lsr Phys_mem.page_bits to (a + l - 1) lsr Phys_mem.page_bits do
    md.pages.(p) <- md.pages.(p) + 1
  done

let model_word md a width =
  let v = ref 0 in
  for i = width - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get md.bytes (a + i))
  done;
  !v

let prop_mem_matches_flat_model =
  QCheck.Test.make ~name:"paged memory matches a flat model" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
        Gen.(list_size (int_range 1 40) gen_mem_op))
    (fun ops ->
      let mem = Phys_mem.create ~size:model_size in
      let md =
        {
          bytes = Bytes.make model_size '\000';
          granules =
            Array.make (((model_size - 1) lsr Phys_mem.granule_bits) + 1) 0;
          pages = Array.make (((model_size - 1) lsr Phys_mem.page_bits) + 1) 0;
        }
      in
      (* Non-zero bytes in the first three pages, so a copy that reads a
         source its own earlier chunk overwrote shows; the rest stays
         the shared zero page until an op writes it. *)
      let pattern =
        Bytes.init ((3 * 4096) + 50) (fun i -> Char.chr (((i * 7) + 13) land 0xFF))
      in
      Phys_mem.load_bytes mem ~addr:0 pattern;
      Bytes.blit pattern 0 md.bytes 0 (Bytes.length pattern);
      model_store md 0 (Bytes.length pattern);
      let fail op fmt =
        Printf.ksprintf
          (fun msg -> QCheck.Test.fail_reportf "%s: %s" (show_mem_op op) msg)
          fmt
      in
      (* [run op ~bad f] runs [f], which must raise [Bus_error bad] when
         [bad] is [Some _] and must not raise otherwise. *)
      let run op ~bad f =
        match (f (), bad) with
        | (), None -> ()
        | (), Some a -> fail op "no Bus_error %x" a
        | exception Phys_mem.Bus_error a when bad = Some a -> ()
        | exception Phys_mem.Bus_error a -> fail op "Bus_error %x" a
      in
      let bad_range a l = if model_in_range a l then None else Some a in
      let store op a l f =
        run op ~bad:(bad_range a l) f;
        if model_in_range a l && l > 0 then model_store md a l
      in
      let write_word op a width v =
        store op a width (fun () ->
            match width with
            | 1 -> Phys_mem.write_u8 mem a v
            | 2 -> Phys_mem.write_u16 mem a v
            | _ -> Phys_mem.write_u32 mem a v);
        if model_in_range a width then
          for i = 0 to width - 1 do
            Bytes.set md.bytes (a + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
          done
      in
      let read_word op a width =
        let got = ref 0 in
        run op ~bad:(bad_range a width) (fun () ->
            got :=
              match width with
              | 1 -> Phys_mem.read_u8 mem a
              | 2 -> Phys_mem.read_u16 mem a
              | _ -> Phys_mem.read_u32 mem a);
        if model_in_range a width && !got <> model_word md a width then
          fail op "read %x, model %x" !got (model_word md a width)
      in
      List.iter
        (fun op ->
          match op with
          | W8 (a, v) -> write_word op a 1 v
          | W16 (a, v) -> write_word op a 2 v
          | W32 (a, v) -> write_word op a 4 v
          | R8 a -> read_word op a 1
          | R16 a -> read_word op a 2
          | R32 a -> read_word op a 4
          | Blit (src, dst, len) ->
            let bad =
              if not (model_in_range src len) then Some src
              else bad_range dst len
            in
            run op ~bad (fun () -> Phys_mem.blit mem ~src ~dst ~len);
            if bad = None && len > 0 then begin
              model_store md dst len;
              Bytes.blit md.bytes src md.bytes dst len
            end
          | Fill (a, len, v) ->
            store op a len (fun () -> Phys_mem.fill mem ~addr:a ~len v);
            if model_in_range a len then
              Bytes.fill md.bytes a len (Char.chr v)
          | Write_bytes (a, s, off, len) ->
            let src = Bytes.of_string s in
            store op a len (fun () ->
                Phys_mem.write_bytes mem ~addr:a src ~off ~len);
            if model_in_range a len then Bytes.blit src off md.bytes a len
          | Load (a, s) ->
            let src = Bytes.of_string s in
            store op a (Bytes.length src) (fun () ->
                Phys_mem.load_bytes mem ~addr:a src);
            if model_in_range a (Bytes.length src) then
              Bytes.blit src 0 md.bytes a (Bytes.length src)
          | Read (a, len) ->
            run op ~bad:(bad_range a len) (fun () ->
                let got = Phys_mem.read_bytes mem ~addr:a ~len in
                if not (Bytes.equal got (Bytes.sub md.bytes a len)) then
                  fail op "bytes differ")
          | Blit_out (a, off, len) ->
            let dst = Bytes.make (off + len + 3) '\xA5' in
            run op ~bad:(bad_range a len) (fun () ->
                Phys_mem.blit_to_bytes mem ~addr:a dst ~off ~len);
            if model_in_range a len then begin
              let want = Bytes.make (off + len + 3) '\xA5' in
              Bytes.blit md.bytes a want off len;
              if not (Bytes.equal dst want) then fail op "buffer differs"
            end
          | Csum (a, len, index, cuts) ->
            (* a message summed in pieces cut at [cuts]; out of range,
               in one piece, so the error names [a] *)
            let cuts =
              if model_in_range a len then
                List.filter (fun c -> c < len) cuts @ [ len ]
              else [ len ]
            in
            let sum = ref 0 and at = ref 0 in
            run op ~bad:(bad_range a len) (fun () ->
                List.iter
                  (fun c ->
                    sum :=
                      Phys_mem.checksum_add mem ~addr:(a + !at) ~len:(c - !at)
                        ~index:(index + !at) !sum;
                    at := c)
                  cuts);
            if model_in_range a len then begin
              let want = ref 0 in
              for i = 0 to len - 1 do
                let b = Char.code (Bytes.get md.bytes (a + i)) in
                want := !want + if (index + i) land 1 = 0 then b else b lsl 8
              done;
              if !sum <> !want then fail op "sum %x, model %x" !sum !want
            end)
        ops;
      if
        not
          (Bytes.equal md.bytes
             (Phys_mem.read_bytes mem ~addr:0 ~len:model_size))
      then QCheck.Test.fail_report "memory differs from the model";
      Array.iteri
        (fun g n ->
          let got = Phys_mem.generation mem (g lsl Phys_mem.granule_bits) in
          if got <> n then
            QCheck.Test.fail_reportf "granule %d generation %d, model %d" g
              got n)
        md.granules;
      Array.iteri
        (fun p n ->
          let got = Phys_mem.page_generation mem (p lsl Phys_mem.page_bits) in
          if got <> n then
            QCheck.Test.fail_reportf "page %d generation %d, model %d" p got n)
        md.pages;
      let fresh = Phys_mem.create ~size:model_size in
      if
        not
          (Bytes.equal
             (Bytes.make model_size '\000')
             (Phys_mem.read_bytes fresh ~addr:0 ~len:model_size))
      then QCheck.Test.fail_report "a fresh memory does not read zeros";
      true)

(* The footprint of a 16 MiB memory is its write-generation arrays, not
   its bytes: pages are shared zeros until written.  A flat array of
   bytes would allocate 16 MiB here. *)
let test_mem_create_footprint () =
  let size = 16 * 1024 * 1024 in
  let before = Gc.allocated_bytes () in
  let mem = Phys_mem.create ~size in
  let mib = (Gc.allocated_bytes () -. before) /. 1048576. in
  check bool
    (Printf.sprintf "create allocates %.2f MiB, under 3" mib)
    true (mib < 3.0);
  Phys_mem.write_u32 mem (size - 4) 0xDEADBEEF;
  check int "the last word is writable" 0xDEADBEEF
    (Phys_mem.read_u32 mem (size - 4))

(* -- ISA encode/decode -- *)

let instr_arbitrary =
  QCheck.make Isa_gen.instr_gen ~print:(fun i -> Isa.to_string i)

let prop_isa_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000 instr_arbitrary
    (fun i ->
      let b = Isa.encode i in
      Bytes.length b = Isa.width && Isa.decode ~addr:0 b ~off:0 = i)

let test_isa_decode_error () =
  let b = Bytes.make 8 '\xFE' in
  Alcotest.check_raises "bad opcode"
    (Isa.Decode_error { addr = 0; opcode = 0xFE })
    (fun () -> ignore (Isa.decode ~addr:0 b ~off:0))

let test_isa_privileged_set () =
  check bool "sti" true (Isa.is_privileged Isa.Sti);
  check bool "hlt" true (Isa.is_privileged Isa.Hlt);
  check bool "add" false (Isa.is_privileged (Isa.Add (0, 1, 2)));
  check bool "in" false (Isa.is_privileged (Isa.Ini (0, 0x20)))

(* -- Assembler -- *)

let test_asm_labels () =
  let a = Asm.create ~origin:0x100 () in
  Asm.jmp a (Asm.lbl "target");
  Asm.nop a;
  Asm.label a "target";
  Asm.hlt a;
  let p = Asm.assemble a in
  check int "label addr" (0x100 + 16) (Asm.symbol p "target");
  let i = Isa.decode ~addr:0 p.Asm.code ~off:0 in
  check bool "jump resolved" true (i = Isa.Jmp (0x100 + 16))

let test_asm_undefined_label () =
  let a = Asm.create () in
  Asm.jmp a (Asm.lbl "nowhere");
  Alcotest.check_raises "undefined" (Asm.Undefined_label "nowhere") (fun () ->
      ignore (Asm.assemble a))

let test_asm_duplicate_label () =
  let a = Asm.create () in
  Asm.label a "x";
  Alcotest.check_raises "duplicate" (Asm.Duplicate_label "x") (fun () ->
      Asm.label a "x")

let test_asm_data_and_align () =
  let a = Asm.create ~origin:0 () in
  Asm.bytes a (Bytes.of_string "abc");
  Asm.align a 8;
  Asm.label a "data";
  Asm.word a (Asm.lbl "data");
  let p = Asm.assemble a in
  check int "aligned" 8 (Asm.symbol p "data");
  let m = Phys_mem.create ~size:64 in
  Asm.load p m;
  check int "word self-ref" 8 (Phys_mem.read_u32 m 8)

(* -- Machine helpers -- *)

let fresh_machine () = Machine.create ~mem_size:(2 * 1024 * 1024) ()

let run_program ?(limit = 200_000) build =
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  build a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  let halted = Machine.run_until_halted ~limit m in
  check bool "program halted" true halted;
  (m, p)

let reg m r = Cpu.read_reg (Machine.cpu m) r

(* -- CPU basics -- *)

let test_cpu_arith () =
  let m, _ =
    run_program (fun a ->
        Asm.movi a 1 (Asm.imm 10);
        Asm.movi a 2 (Asm.imm 32);
        Asm.add a 3 1 2;
        Asm.sub a 4 2 1;
        Asm.mul a 5 1 2;
        Asm.movi a 6 (Asm.imm 0xF0F0);
        Asm.movi a 7 (Asm.imm 0x0FF0);
        Asm.and_ a 8 6 7;
        Asm.or_ a 9 6 7;
        Asm.xor_ a 10 6 7;
        Asm.hlt a)
  in
  check int "add" 42 (reg m 3);
  check int "sub" 22 (reg m 4);
  check int "mul" 320 (reg m 5);
  check int "and" 0x00F0 (reg m 8);
  check int "or" 0xFFF0 (reg m 9);
  check int "xor" 0xFF00 (reg m 10)

let test_cpu_branches () =
  let m, _ =
    run_program (fun a ->
        (* r1 counts loop iterations 0..4 *)
        Asm.movi a 1 (Asm.imm 0);
        Asm.label a "loop";
        Asm.addi a 1 1 (Asm.imm 1);
        Asm.cmpi a 1 (Asm.imm 5);
        Asm.jnz a (Asm.lbl "loop");
        (* signed comparison: -1 < 1 *)
        Asm.movi a 2 (Asm.imm 0xFFFFFFFF);
        Asm.movi a 3 (Asm.imm 1);
        Asm.cmp a 2 3;
        Asm.jlt a (Asm.lbl "signed_ok");
        Asm.movi a 4 (Asm.imm 0);
        Asm.hlt a;
        Asm.label a "signed_ok";
        Asm.movi a 4 (Asm.imm 1);
        (* unsigned: 0xFFFFFFFF > 1 *)
        Asm.cmp a 2 3;
        Asm.jae a (Asm.lbl "unsigned_ok");
        Asm.movi a 5 (Asm.imm 0);
        Asm.hlt a;
        Asm.label a "unsigned_ok";
        Asm.movi a 5 (Asm.imm 1);
        Asm.hlt a)
  in
  check int "loop count" 5 (reg m 1);
  check int "signed" 1 (reg m 4);
  check int "unsigned" 1 (reg m 5)

let test_cpu_call_stack () =
  let m, _ =
    run_program (fun a ->
        Asm.movi a Isa.sp (Asm.imm 0x8000);
        Asm.movi a 1 (Asm.imm 7);
        Asm.call a (Asm.lbl "double");
        Asm.hlt a;
        Asm.label a "double";
        Asm.push a 2;
        Asm.add a 2 1 1;
        Asm.mov a 1 2;
        Asm.pop a 2;
        Asm.ret a)
  in
  check int "doubled" 14 (reg m 1);
  check int "sp restored" 0x8000 (reg m Isa.sp)

let test_cpu_memory () =
  let m, _ =
    run_program (fun a ->
        Asm.movi a 1 (Asm.imm 0x9000);
        Asm.movi a 2 (Asm.imm 0xCAFEBABE);
        Asm.st a 1 4 2;
        Asm.ld a 3 1 4;
        Asm.ldb a 4 1 4;
        Asm.movi a 5 (Asm.imm 0x55);
        Asm.stb a 1 100 5;
        Asm.ldb a 6 1 100;
        Asm.hlt a)
  in
  check int "ld" 0xCAFEBABE (reg m 3);
  check int "ldb low byte" 0xBE (reg m 4);
  check int "stb/ldb" 0x55 (reg m 6)

let test_cpu_copy_csum () =
  let m = fresh_machine () in
  let mem = Machine.mem m in
  let src = 0x10000 and dst = 0x20000 and len = 1000 in
  for i = 0 to len - 1 do
    Phys_mem.write_u8 mem (src + i) ((i * 31) land 0xFF)
  done;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm dst);
  Asm.movi a 2 (Asm.imm src);
  Asm.movi a 3 (Asm.imm len);
  Asm.copy a 1 2 3;
  Asm.csum a 4 1 3;
  Asm.hlt a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  ignore (Machine.run_until_halted m);
  check bool "copied" true
    (Phys_mem.read_bytes mem ~addr:src ~len
    = Phys_mem.read_bytes mem ~addr:dst ~len);
  check int "checksum matches reference"
    (Phys_mem.checksum mem ~addr:dst ~len)
    (reg m 4)

let test_cpu_rdtsc_monotonic () =
  let m, _ =
    run_program (fun a ->
        Asm.rdtsc a 1;
        Asm.nop a;
        Asm.nop a;
        Asm.rdtsc a 2;
        Asm.hlt a)
  in
  check bool "tsc advanced" true (reg m 2 > reg m 1)

(* -- Interrupt table plumbing -- *)

let write_gate mem ~table ~vector ~handler ~ring ~dpl =
  Phys_mem.write_u32 mem (table + (8 * vector)) handler;
  Phys_mem.write_u32 mem (table + (8 * vector) + 4) (Isa.gate_info ~ring ~dpl)

let test_cpu_software_interrupt () =
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 2 (Asm.imm 0);
  Asm.int_ a 48;
  (* handler returns here *)
  Asm.addi a 2 2 (Asm.imm 100);
  Asm.hlt a;
  Asm.label a "handler";
  Asm.addi a 2 2 (Asm.imm 1);
  Asm.iret a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:48
    ~handler:(Asm.symbol p "handler") ~ring:0 ~dpl:3;
  ignore (Machine.run_until_halted m);
  check int "handler then continuation" 101 (reg m 2)

let test_cpu_privilege_fault_ring3 () =
  (* STI at ring 3 must deliver #GP to the ring-0 handler. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  (* ring-0 setup *)
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0x9000);
  Asm.lstk a 0 1;
  (* drop to ring 3 via iret: frame = error, pc, flags(cpl=3), sp *)
  Asm.movi a 3 (Asm.imm 0x7000);
  Asm.push a 3 (* user sp *);
  Asm.movi a 3 (Asm.imm 0x3000) (* flags: cpl=3, if=0 *);
  Asm.push a 3;
  Asm.movi a 3 (Asm.lbl "user");
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0);
  Asm.push a 3;
  Asm.iret a;
  Asm.label a "user";
  Asm.sti a (* must fault *);
  Asm.label a "unreachable";
  Asm.jmp a (Asm.lbl "unreachable");
  Asm.label a "gp_handler";
  Asm.movi a 5 (Asm.imm 0xFA17);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:Isa.vec_protection
    ~handler:(Asm.symbol p "gp_handler") ~ring:0 ~dpl:0;
  ignore (Machine.run_until_halted m);
  check int "gp handler ran" 0xFA17 (reg m 5);
  check int "back at ring 0" 0 (Cpu.cpl (Machine.cpu m))

let test_cpu_stack_switch_on_ring_change () =
  (* Interrupt from ring 3 must land on the ring-0 stack from LSTK. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0xA000);
  Asm.lstk a 0 1;
  Asm.movi a 3 (Asm.imm 0x7000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0x3000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.lbl "user");
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0);
  Asm.push a 3;
  Asm.iret a;
  Asm.label a "user";
  Asm.int_ a 48;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "handler";
  Asm.mov a 6 Isa.sp;
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:48
    ~handler:(Asm.symbol p "handler") ~ring:0 ~dpl:3;
  ignore (Machine.run_until_halted m);
  (* 4 words pushed below the ring-0 entry stack top *)
  check int "switched stack" (0xA000 - 16) (reg m 6)

let test_cpu_int_gate_dpl_enforced () =
  (* INT 49 from ring 3 with dpl 0 must raise #GP instead. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0xA000);
  Asm.lstk a 0 1;
  Asm.movi a 3 (Asm.imm 0x7000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0x3000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.lbl "user");
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0);
  Asm.push a 3;
  Asm.iret a;
  Asm.label a "user";
  Asm.int_ a 49;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "kernel_gate";
  Asm.movi a 5 (Asm.imm 0xBAD);
  Asm.hlt a;
  Asm.label a "gp";
  Asm.movi a 5 (Asm.imm 0x600D);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:49
    ~handler:(Asm.symbol p "kernel_gate") ~ring:0 ~dpl:0;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:Isa.vec_protection
    ~handler:(Asm.symbol p "gp") ~ring:0 ~dpl:0;
  ignore (Machine.run_until_halted m);
  check int "gp instead of gate" 0x600D (reg m 5)

let test_cpu_hardware_interrupt () =
  (* Program the PIT one-shot; the handler bumps a counter and halts. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 2 (Asm.imm 100);
  Asm.outi a (Asm.imm Vmm_hw.Machine.Ports.pit) 2 (* reload low *);
  Asm.movi a 2 (Asm.imm 0);
  Asm.outi a (Asm.imm (Vmm_hw.Machine.Ports.pit + 1)) 2;
  Asm.movi a 2 (Asm.imm 2);
  Asm.outi a (Asm.imm (Vmm_hw.Machine.Ports.pit + 2)) 2 (* one-shot *);
  Asm.sti a;
  Asm.label a "wait";
  Asm.jmp a (Asm.lbl "wait");
  Asm.label a "timer";
  Asm.movi a 7 (Asm.imm 0x7E57);
  (* EOI *)
  Asm.movi a 2 (Asm.imm 0x20);
  Asm.outi a (Asm.imm Vmm_hw.Machine.Ports.pic) 2;
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000
    ~vector:(Isa.vec_irq_base_default + Machine.Irq.timer)
    ~handler:(Asm.symbol p "timer") ~ring:0 ~dpl:0;
  ignore (Machine.run_until_halted ~limit:2_000_000 m);
  check int "timer handler ran" 0x7E57 (reg m 7);
  check int "pit fired once" 1 (Pit.ticks_fired (Machine.pit m))

let test_cpu_if_masks_interrupts () =
  (* With IF clear the PIT interrupt must stay pending. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 2 (Asm.imm 10);
  Asm.outi a (Asm.imm Vmm_hw.Machine.Ports.pit) 2;
  Asm.movi a 2 (Asm.imm 0);
  Asm.outi a (Asm.imm (Vmm_hw.Machine.Ports.pit + 1)) 2;
  Asm.movi a 2 (Asm.imm 2);
  Asm.outi a (Asm.imm (Vmm_hw.Machine.Ports.pit + 2)) 2;
  (* busy loop long enough for the one-shot to expire *)
  Asm.movi a 1 (Asm.imm 0);
  Asm.label a "loop";
  Asm.addi a 1 1 (Asm.imm 1);
  Asm.cmpi a 1 (Asm.imm 50_000);
  Asm.jnz a (Asm.lbl "loop");
  Asm.hlt a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  ignore (Machine.run_until_halted ~limit:2_000_000 m);
  check bool "request latched, not delivered" true
    (Pic.requested (Machine.pic m) land 1 = 1);
  check Alcotest.int64 "no interrupt taken" 0L
    (Cpu.interrupts_taken (Machine.cpu m))

(* -- Paging -- *)

let build_identity_tables mem ~pd ~pt ~mbytes ~user =
  (* One page table covers 4 MiB; map [0, mbytes MiB) identity. *)
  let pages = mbytes * 256 in
  Phys_mem.write_u32 mem pd (Mmu.make_pte ~frame:pt ~writable:true ~user);
  for i = 0 to pages - 1 do
    Phys_mem.write_u32 mem
      (pt + (4 * i))
      (Mmu.make_pte ~frame:(i * 4096) ~writable:true ~user)
  done

let test_mmu_translate_and_bits () =
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  let mmu = Mmu.create () in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:false;
  let misses = Mmu.tlb_misses mmu in
  let paddr = Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Read 0x1234 in
  check int "identity" 0x1234 paddr;
  check int "miss counted" 1 (Mmu.tlb_misses mmu - misses);
  let misses = Mmu.tlb_misses mmu in
  ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Read 0x1238);
  check int "tlb hit walks nothing" 0 (Mmu.tlb_misses mmu - misses);
  let pte = Phys_mem.read_u32 mem (0x5000 + 4) in
  check bool "accessed set" true (pte land Mmu.pte_accessed <> 0);
  ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Write 0x1300);
  let pte = Phys_mem.read_u32 mem (0x5000 + 4) in
  check bool "dirty set" true (pte land Mmu.pte_dirty <> 0)

let test_mmu_faults () =
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  let mmu = Mmu.create () in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:false;
  (* unmapped: beyond 1 MiB *)
  (try
     ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Read 0x200000);
     Alcotest.fail "expected not-present fault"
   with Mmu.Page_fault f -> check bool "not present" true f.Mmu.not_present);
  (* user access to supervisor page *)
  (try
     ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:3 Mmu.Read 0x1000);
     Alcotest.fail "expected protection fault"
   with Mmu.Page_fault f -> check bool "protection" false f.Mmu.not_present);
  (* write to read-only page *)
  Phys_mem.write_u32 mem (0x5000 + 8)
    (Mmu.make_pte ~frame:0x2000 ~writable:false ~user:false);
  Mmu.flush mmu;
  try
    ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Write 0x2000);
    Alcotest.fail "expected write fault"
  with Mmu.Page_fault f -> check bool "write prot" false f.Mmu.not_present

let test_mmu_probe () =
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:true;
  (match Mmu.probe mem ~ptb:0x4000 0x3000 with
   | Some pte ->
     check int "frame" 0x3000 (Mmu.frame_of pte);
     check bool "user" true (Mmu.is_user pte)
   | None -> Alcotest.fail "expected mapping");
  check bool "unmapped probe" true (Mmu.probe mem ~ptb:0x4000 0x600000 = None);
  (* A directory entry pointing past RAM maps nothing; it is not a bus
     error in the caller. *)
  Phys_mem.write_u32 mem 0x4000 (Mmu.make_pte ~frame:0x7FFFF000 ~writable:true ~user:true);
  check bool "table outside RAM" true (Mmu.probe mem ~ptb:0x4000 0x3000 = None);
  check bool "directory outside RAM" true (Mmu.probe mem ~ptb:0x7FFFF000 0x3000 = None)

let test_mmu_write_hit_dirty_cached () =
  (* The TLB caches the dirty state: after the first write marks the PTE,
     later write hits must not re-read or re-write it.  Pin that by clearing
     the PTE's dirty bit behind the TLB's back — a write hit must leave it
     clear, and only a flush (which drops the cached state) re-sets it. *)
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  let mmu = Mmu.create () in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:false;
  let pte_addr = 0x5000 + 4 (* vpn 1 *) in
  let pte_dirty () = Phys_mem.read_u32 mem pte_addr land Mmu.pte_dirty <> 0 in
  (* Walks made by [f]. *)
  let walks f =
    let misses = Mmu.tlb_misses mmu in
    ignore (f ());
    Mmu.tlb_misses mmu - misses
  in
  check int "fill walks" 1
    (walks (fun () -> Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Read 0x1000));
  check bool "read fill leaves clean" false (pte_dirty ());
  check int "write hit walks nothing" 0
    (walks (fun () -> Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Write 0x1004));
  check bool "first write sets dirty" true (pte_dirty ());
  Phys_mem.write_u32 mem pte_addr
    (Phys_mem.read_u32 mem pte_addr land lnot Mmu.pte_dirty);
  ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Write 0x1008);
  check bool "later write hits skip the PTE" false (pte_dirty ());
  Mmu.flush mmu;
  check int "miss after flush" 1
    (walks (fun () -> Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Write 0x100C));
  check bool "dirty re-set after flush" true (pte_dirty ());
  check bool "hits counted" true (Mmu.tlb_hits mmu >= 2)

let test_mmu_hit_allocates_nothing () =
  (* Every guest fetch, load and store translates; a TLB hit returns the
     bare physical address and bumps an int counter.  Any per-call box
     costs at least two words, so under one word per call is none. *)
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  let mmu = Mmu.create () in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:false;
  ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Write 0x1000);
  let hits = Mmu.tlb_hits mmu and misses = Mmu.tlb_misses mmu in
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    let access = if i land 1 = 0 then Mmu.Read else Mmu.Write in
    ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 access (0x1000 lor (i land 0xFFF)))
  done;
  let words = Gc.minor_words () -. before in
  check bool
    (Printf.sprintf "no allocation per hit (%.0f words over %d)" words calls)
    true
    (words < float_of_int calls);
  check int "all hits" calls (Mmu.tlb_hits mmu - hits);
  check int "no walks" 0 (Mmu.tlb_misses mmu - misses)

let test_mmu_flush_allocates_nothing () =
  (* The monitor flushes on every shadow-table update, so a fill and the
     flush that drops it must not allocate either. *)
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  let mmu = Mmu.create () in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:false;
  let misses = Mmu.tlb_misses mmu and flushes = Mmu.tlb_flushes mmu in
  let cycles = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to cycles do
    ignore (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0 Mmu.Read ((i land 0xFF) lsl 12));
    Mmu.flush mmu
  done;
  let words = Gc.minor_words () -. before in
  check bool
    (Printf.sprintf "no allocation per miss and flush (%.0f words over %d)"
       words cycles)
    true (words < 1.);
  check int "every translation walked" cycles (Mmu.tlb_misses mmu - misses);
  check int "flushes counted" cycles (Mmu.tlb_flushes mmu - flushes)

let access_name = function
  | Mmu.Read -> "read"
  | Mmu.Write -> "write"
  | Mmu.Exec -> "exec"

let test_mmu_ready_mask_exhaustive () =
  (* A TLB hit needs no further work exactly when the access is
     permitted and, for a write, the entry has already set its PTE's
     dirty bit.  Checked for every entry, ring and access against the
     rule spelled out here, and, for every entry [translate] can fill,
     against what [translate] then does. *)
  let accesses = [ Mmu.Read; Mmu.Write; Mmu.Exec ] in
  let permitted ~writable ~user ~nx ~cpl access =
    (cpl <> 3 || user)
    && match access with
       | Mmu.Read -> true
       | Mmu.Write -> writable
       | Mmu.Exec -> not nx
  in
  let bit b flag = if b then flag else 0 in
  let entry combo =
    let writable = combo land 1 <> 0 and user = combo land 2 <> 0 in
    let nx = combo land 4 <> 0 and dirty = combo land 8 <> 0 in
    let flags =
      bit writable Mmu.pte_writable lor bit user Mmu.pte_user
      lor bit nx Mmu.pte_nx lor bit dirty Mmu.pte_dirty
    in
    (writable, user, nx, dirty, flags)
  in
  for combo = 0 to 15 do
    let writable, user, nx, dirty, flags = entry combo in
    let mask = Mmu.ready_mask flags in
    for cpl = 0 to 3 do
      List.iter
        (fun access ->
          check bool
            (Printf.sprintf "flags %#x ring %d %s" flags cpl (access_name access))
            (permitted ~writable ~user ~nx ~cpl access
            && (access <> Mmu.Write || dirty))
            (mask land Mmu.ready_bit ~cpl access <> 0))
        accesses
    done
  done;
  let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
  build_identity_tables mem ~pd:0x4000 ~pt:0x5000 ~mbytes:1 ~user:true;
  let vaddr = 0x1000 and slot = 1 in
  for combo = 0 to 15 do
    let writable, user, nx, dirty, flags = entry combo in
    (* Only a write fills a dirty entry, so a read-only one is clean. *)
    if writable || not dirty then
      for cpl = 0 to 3 do
        List.iter
          (fun access ->
            let what =
              Printf.sprintf "flags %#x ring %d %s" flags cpl (access_name access)
            in
            let mmu = Mmu.create () in
            Phys_mem.write_u32 mem (0x5000 + 4)
              (Mmu.make_pte ~frame:vaddr ~writable ~user lor bit nx Mmu.pte_nx);
            ignore
              (Mmu.translate mmu mem ~ptb:0x4000 ~cpl:0
                 (if dirty then Mmu.Write else Mmu.Read)
                 vaddr);
            check int ("fill: " ^ what) (Mmu.ready_mask flags)
              mmu.Mmu.ready.(slot);
            let allowed =
              match Mmu.translate mmu mem ~ptb:0x4000 ~cpl access vaddr with
              | _ -> true
              | exception Mmu.Page_fault f ->
                check bool ("protection: " ^ what) false f.Mmu.not_present;
                false
            in
            check bool ("permitted: " ^ what)
              (permitted ~writable ~user ~nx ~cpl access)
              allowed;
            let flags = if allowed && access = Mmu.Write then flags lor Mmu.pte_dirty else flags in
            check int ("after: " ^ what) (Mmu.ready_mask flags) mmu.Mmu.ready.(slot))
          accesses
      done
  done

let test_cpu_page_fault_delivery () =
  (* Enable paging, then touch an unmapped page; #PF handler records the
     faulting address from the error slot. *)
  let m = fresh_machine () in
  let mem = Machine.mem m in
  build_identity_tables mem ~pd:0x40000 ~pt:0x41000 ~mbytes:1 ~user:false;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0x40000);
  Asm.lptb a 1;
  Asm.movi a 2 (Asm.imm 0x500000);
  Asm.ld a 3 2 0 (* faults: beyond mapped 1 MiB *);
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "pf";
  Asm.ld a 4 Isa.sp 0 (* error slot = faulting vaddr *);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate mem ~table:0x2000 ~vector:Isa.vec_page_fault
    ~handler:(Asm.symbol p "pf") ~ring:0 ~dpl:0;
  ignore (Machine.run_until_halted m);
  check int "faulting address" 0x500000 (reg m 4)

(* -- Devices -- *)

let test_pic_priority_and_eoi () =
  let pic = Pic.create () in
  Pic.raise_irq pic 5;
  Pic.raise_irq pic 2;
  check (Alcotest.option int) "highest priority first"
    (Some (Isa.vec_irq_base_default + 2))
    (Pic.ack pic);
  (* 5 still pending but blocked? line 5 is lower priority than in-service 2 *)
  check bool "blocked by in-service" false (Pic.pending pic);
  Pic.io_write pic 0 0x20 (* EOI *);
  check (Alcotest.option int) "then lower priority"
    (Some (Isa.vec_irq_base_default + 5))
    (Pic.ack pic);
  Pic.io_write pic 0 0x20;
  check bool "drained" false (Pic.pending pic)

let test_pic_higher_priority_preempts_service () =
  let pic = Pic.create () in
  Pic.raise_irq pic 5;
  ignore (Pic.ack pic);
  Pic.raise_irq pic 1;
  check bool "higher priority deliverable over in-service 5" true
    (Pic.pending pic)

let test_pic_mask () =
  let pic = Pic.create () in
  Pic.io_write pic 1 0x01 (* mask line 0 *);
  Pic.raise_irq pic 0;
  check bool "masked" false (Pic.pending pic);
  Pic.io_write pic 1 0x00;
  check bool "unmasked" true (Pic.pending pic)

let test_pic_intr_line_callback () =
  let pic = Pic.create () in
  let level = ref false in
  Pic.set_intr pic (fun l -> level := l);
  Pic.raise_irq pic 3;
  check bool "asserted" true !level;
  ignore (Pic.ack pic);
  Pic.io_write pic 0 0x20;
  check bool "deasserted" false !level

type pic_op =
  | Raise of int
  | Ack
  | Eoi
  | Mask of int
  | Capture
  | Restore

let prop_pic_level_is_deliverability =
  (* [Pic.pending] reads the level the PIC keeps after every write to
     its request, service and mask bits.  After any sequence of writes it
     must equal deliverability recomputed from those bits (service read
     through the command port), the level last passed to the INTR
     callback, and whether an acknowledge succeeds. *)
  let print_op = function
    | Raise l -> Printf.sprintf "Raise %d" l
    | Ack -> "Ack"
    | Eoi -> "Eoi"
    | Mask v -> Printf.sprintf "Mask %#x" v
    | Capture -> "Capture"
    | Restore -> "Restore"
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun l -> Raise l) (int_bound (Pic.lines - 1)));
          (2, return Ack);
          (2, return Eoi);
          (2, map (fun v -> Mask v) (int_bound 0xFF));
          (1, return Capture);
          (1, return Restore);
        ])
  in
  QCheck.Test.make ~name:"PIC level is deliverability" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_op)
       QCheck.Gen.(list_size (int_range 1 80) op_gen))
    (fun ops ->
      let pic = Pic.create () in
      let level = ref None in
      Pic.set_intr pic (fun l -> level := Some l);
      let saved = ref (Pic.capture pic) in
      let lowest v =
        let rec go i = if i >= Pic.lines || v land (1 lsl i) <> 0 then i else go (i + 1) in
        go 0
      in
      let deliverable () =
        let line = lowest (Pic.requested pic land lnot (Pic.mask pic)) in
        line < Pic.lines && line < lowest (Pic.io_read pic 0)
      in
      List.for_all
        (fun op ->
          let ack_agrees =
            match op with
            | Ack ->
              let before = Pic.pending pic in
              before = (Pic.ack pic <> None)
            | Raise l ->
              Pic.raise_irq pic l;
              true
            | Eoi ->
              Pic.io_write pic 0 0x20;
              true
            | Mask v ->
              Pic.io_write pic 1 v;
              true
            | Capture ->
              saved := Pic.capture pic;
              true
            | Restore ->
              Pic.restore pic !saved;
              true
          in
          let pending = Pic.pending pic in
          ack_agrees
          && pending = deliverable ()
          && !level = Some pending)
        ops)

let test_poll_blocked_line_allocates_nothing () =
  (* With IF set, every instruction boundary asks the PIC whether a line
     is deliverable.  Here line 3 is requested but blocked by line 0 in
     service, so each poll must answer no without building anything. *)
  let m = fresh_machine () in
  let cpu = Machine.cpu m and pic = Machine.pic m in
  Cpu.set_interrupts_enabled cpu true;
  Pic.raise_irq pic 0;
  ignore (Pic.ack pic);
  Pic.raise_irq pic 3;
  let taken = Cpu.interrupts_taken cpu in
  let polls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to polls do
    Cpu.poll_interrupts cpu
  done;
  let words = Gc.minor_words () -. before in
  check bool
    (Printf.sprintf "no allocation per poll (%.0f words over %d)" words polls)
    true (words < 1.);
  check Alcotest.int64 "nothing delivered" taken (Cpu.interrupts_taken cpu);
  check int "line 3 still requested" 0x08 (Pic.requested pic land 0x08)

let test_pit_periodic () =
  let engine = Engine.create () in
  let fired = ref 0 in
  let costs = Costs.default in
  let pit = Pit.create ~engine ~costs ~raise_irq:(fun () -> incr fired) () in
  (* 1000 input ticks per period *)
  Pit.io_write pit 0 1000;
  Pit.io_write pit 1 0;
  Pit.io_write pit 2 1;
  let second = Costs.cycles_of_seconds costs 1.0 in
  Engine.run_until engine ~time:second;
  (* 1193182/1000 ≈ 1193 expiries in one second *)
  check bool "rate" true (abs (!fired - 1193) <= 2);
  Pit.io_write pit 2 0;
  let before = !fired in
  Engine.run_until engine ~time:(Int64.mul second 2L);
  check int "stopped" before !fired

let test_uart_wire () =
  let engine = Engine.create () in
  let costs = Costs.default in
  let uart = Uart.create ~engine ~costs () in
  let received = ref [] in
  Uart.set_on_tx uart (fun b -> received := b :: !received);
  Uart.io_write uart 0 (Char.code 'h');
  Uart.io_write uart 0 (Char.code 'i');
  check int "tx busy" 0 (Uart.io_read uart 1 land 2);
  ignore (Engine.run_until_idle engine);
  check (Alcotest.list int) "bytes in order"
    [ Char.code 'h'; Char.code 'i' ]
    (List.rev !received);
  check int "tx idle" 2 (Uart.io_read uart 1 land 2)

let test_uart_rx_irq () =
  let engine = Engine.create () in
  let uart = Uart.create ~engine ~costs:Costs.default () in
  let irqs = ref 0 in
  Uart.set_irq uart (fun () -> incr irqs);
  Uart.inject_rx uart 0x41;
  check int "no irq while disabled" 0 !irqs;
  Uart.io_write uart 2 1 (* enable: pending byte raises at once *);
  check int "irq on enable with pending" 1 !irqs;
  check int "status rx ready" 1 (Uart.io_read uart 1 land 1);
  check int "data" 0x41 (Uart.io_read uart 0);
  check int "drained" 0 (Uart.io_read uart 1 land 1)

let test_scsi_read () =
  let m = fresh_machine () in
  let scsi = Machine.scsi m and bus = Machine.bus m in
  let base = Machine.Ports.scsi in
  Io_bus.write bus base 1 (* target 1 *);
  Io_bus.write bus (base + 1) 4 (* lba 4 *);
  Io_bus.write bus (base + 2) 2048 (* bytes *);
  Io_bus.write bus (base + 3) 0x30000 (* dma *);
  Io_bus.write bus (base + 4) 1 (* read *);
  check int "busy bit" (1 lsl 17) (Io_bus.read bus (base + 5) land (1 lsl 17));
  ignore (Engine.run_until_idle (Machine.engine m));
  check int "done bit" 2 (Io_bus.read bus (base + 5) land 2);
  let off = 4 * Scsi.sector_size in
  let ok = ref true in
  for i = 0 to 2047 do
    if
      Phys_mem.read_u8 (Machine.mem m) (0x30000 + i)
      <> Scsi.pattern_byte ~target:1 ~offset:(off + i)
    then ok := false
  done;
  check bool "pattern data" true !ok;
  check bool "irq raised" true
    (Pic.requested (Machine.pic m) land (1 lsl Machine.Irq.scsi) <> 0);
  Io_bus.write bus (base + 6) 1 (* ack *);
  check int "done cleared" 0 (Io_bus.read bus (base + 5) land 2);
  check int "one read" 1 (Scsi.reads_completed scsi)

let test_scsi_write_readback () =
  let m = fresh_machine () in
  let bus = Machine.bus m and mem = Machine.mem m in
  let base = Machine.Ports.scsi in
  Phys_mem.fill mem ~addr:0x30000 ~len:512 0xAB;
  Io_bus.write bus base 0;
  Io_bus.write bus (base + 1) 10;
  Io_bus.write bus (base + 2) 512;
  Io_bus.write bus (base + 3) 0x30000;
  Io_bus.write bus (base + 4) 2 (* write *);
  ignore (Engine.run_until_idle (Machine.engine m));
  Io_bus.write bus (base + 6) 0;
  (* read it back elsewhere *)
  Io_bus.write bus base 0;
  Io_bus.write bus (base + 1) 10;
  Io_bus.write bus (base + 2) 512;
  Io_bus.write bus (base + 3) 0x40000;
  Io_bus.write bus (base + 4) 1;
  ignore (Engine.run_until_idle (Machine.engine m));
  check int "written data read back" 0xAB (Phys_mem.read_u8 mem 0x40000);
  check int "last byte too" 0xAB (Phys_mem.read_u8 mem (0x40000 + 511))

let test_scsi_streaming_rate () =
  (* Completion time of a 1 MiB read must match the configured media rate. *)
  let m = fresh_machine () in
  let bus = Machine.bus m in
  let base = Machine.Ports.scsi in
  let costs = Machine.costs m in
  let bytes = 1024 * 1024 in
  Io_bus.write bus base 0;
  Io_bus.write bus (base + 1) 0;
  Io_bus.write bus (base + 2) bytes;
  Io_bus.write bus (base + 3) 0x100000;
  let t0 = Engine.now (Machine.engine m) in
  Io_bus.write bus (base + 4) 1;
  ignore (Engine.run_until_idle (Machine.engine m));
  let elapsed = Int64.to_float (Int64.sub (Engine.now (Machine.engine m)) t0) in
  let expected =
    float_of_int (8 * bytes) /. (costs.Costs.disk_rate_mbps *. 1e6)
    *. costs.Costs.cpu_hz
  in
  check bool "rate within 5%" true
    (abs_float (elapsed -. expected) /. expected < 0.05)

let test_nic_tx () =
  let m = fresh_machine () in
  let nic = Machine.nic m and bus = Machine.bus m and mem = Machine.mem m in
  let frames = ref [] in
  Nic.set_on_frame nic (fun f -> frames := f :: !frames);
  let base = Machine.Ports.nic in
  Phys_mem.fill mem ~addr:0x50000 ~len:100 0x5A;
  Io_bus.write bus base 0x50000;
  Io_bus.write bus (base + 1) 100;
  Io_bus.write bus (base + 2) 1;
  ignore (Engine.run_until_idle (Machine.engine m));
  (match !frames with
   | [ f ] ->
     check int "length" 100 (Bytes.length f);
     check int "payload" 0x5A (Char.code (Bytes.get f 50))
   | _ -> Alcotest.fail "expected one frame");
  check int "counter" 1 (Nic.frames_sent nic);
  check bool "irq" true
    (Pic.requested (Machine.pic m) land (1 lsl Machine.Irq.nic) <> 0);
  check int "completion pending" 2 (Io_bus.read bus (base + 3) land 2);
  Io_bus.write bus (base + 4) 1;
  check int "completion consumed" 0 (Io_bus.read bus (base + 3) land 2)

let test_nic_wire_rate () =
  (* Two back-to-back 1500-byte frames serialize sequentially at 1 Gbps. *)
  let m = fresh_machine () in
  let nic = Machine.nic m and bus = Machine.bus m in
  let times = ref [] in
  Nic.set_on_frame nic (fun _ -> times := Engine.now (Machine.engine m) :: !times);
  let base = Machine.Ports.nic in
  Io_bus.write bus base 0x50000;
  Io_bus.write bus (base + 1) 1500;
  Io_bus.write bus (base + 2) 1;
  Io_bus.write bus (base + 2) 1;
  ignore (Engine.run_until_idle (Machine.engine m));
  match List.rev !times with
  | [ t1; t2 ] ->
    let costs = Machine.costs m in
    let gap = Int64.to_float (Int64.sub t2 t1) /. costs.Costs.cpu_hz in
    let expected = 1500.0 *. 8.0 /. 1e9 in
    check bool "serialization gap" true (abs_float (gap -. expected) /. expected < 0.2)
  | _ -> Alcotest.fail "expected two frames"

let test_nic_clear_on_frame () =
  (* Detaching the consumer must stop the callback (and the per-frame copy
     it forces); re-attaching brings it back. *)
  let m = fresh_machine () in
  let nic = Machine.nic m and bus = Machine.bus m in
  let calls = ref 0 in
  Nic.set_on_frame nic (fun _ -> incr calls);
  Nic.clear_on_frame nic;
  let base = Machine.Ports.nic in
  let send () =
    Io_bus.write bus base 0x50000;
    Io_bus.write bus (base + 1) 100;
    Io_bus.write bus (base + 2) 1;
    ignore (Engine.run_until_idle (Machine.engine m))
  in
  send ();
  check int "detached consumer not called" 0 !calls;
  Nic.set_on_frame nic (fun _ -> incr calls);
  send ();
  check int "re-attached consumer called" 1 !calls;
  check int "both frames sent" 2 (Nic.frames_sent nic)

let test_nic_rx () =
  let m = fresh_machine () in
  let nic = Machine.nic m and bus = Machine.bus m and mem = Machine.mem m in
  let base = Machine.Ports.nic in
  Nic.inject_rx nic (Bytes.of_string "hello-frame");
  check int "rx waiting" 8 (Io_bus.read bus (base + 3) land 8);
  check int "rx length" 11 (Io_bus.read bus (base + 7));
  Io_bus.write bus (base + 6) 0x60000;
  Io_bus.write bus (base + 2) 2;
  check bool "frame in memory" true
    (Bytes.to_string (Phys_mem.read_bytes mem ~addr:0x60000 ~len:11)
    = "hello-frame")

let test_io_bus_unclaimed () =
  let bus = Io_bus.create () in
  check int "floating read" 0xFFFFFFFF (Io_bus.read bus 0x999);
  Io_bus.write bus 0x999 42 (* must not raise *)

let test_io_bus_conflict () =
  let bus = Io_bus.create () in
  Io_bus.register bus ~name:"a" ~base:0x10 ~count:4
    ~read:(fun _ -> 0)
    ~write:(fun _ _ -> ());
  Alcotest.check_raises "conflict"
    (Io_bus.Port_conflict { port = 0x12; owner = "a" })
    (fun () ->
      Io_bus.register bus ~name:"b" ~base:0x12 ~count:2
        ~read:(fun _ -> 0)
        ~write:(fun _ _ -> ()))

let test_io_permission_bitmap () =
  (* OUT at ring 3 to a non-permitted port must #GP; permitted goes through. *)
  let m = fresh_machine () in
  let hits = ref [] in
  Io_bus.register (Machine.bus m) ~name:"probe" ~base:0x500 ~count:2
    ~read:(fun _ -> 0)
    ~write:(fun off v -> hits := (off, v) :: !hits);
  Cpu.allow_port (Machine.cpu m) 0x501 true;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0xA000);
  Asm.lstk a 0 1;
  Asm.movi a 3 (Asm.imm 0x7000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0x3000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.lbl "user");
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0);
  Asm.push a 3;
  Asm.iret a;
  Asm.label a "user";
  Asm.movi a 2 (Asm.imm 77);
  Asm.outi a (Asm.imm 0x501) 2 (* permitted: direct *);
  Asm.outi a (Asm.imm 0x500) 2 (* denied: #GP *);
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "gp";
  Asm.ld a 5 Isa.sp 0 (* error = port *);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate (Machine.mem m) ~table:0x2000 ~vector:Isa.vec_protection
    ~handler:(Asm.symbol p "gp") ~ring:0 ~dpl:0;
  ignore (Machine.run_until_halted m);
  check (Alcotest.list (Alcotest.pair int int)) "only permitted write landed"
    [ (1, 77) ] !hits;
  check int "gp error carries port" 0x500 (reg m 5)

(* -- CPU edge cases -- *)

let test_cpu_fetch_across_page_boundary () =
  (* Data directives can misalign code; a fetch straddling two pages must
     still decode (byte-at-a-time translation path). *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:(0x2000 - 4) () in
  Asm.space a 4 (* push the first instruction to 0x2000 - wait, origin
                   already offsets; place an instruction at 0xFFC *);
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  (* hand-place an instruction straddling 0x2FFC..0x3003 *)
  let mem = Machine.mem m in
  Phys_mem.load_bytes mem ~addr:0x2FFC (Isa.encode (Isa.Movi (1, 0x1234)));
  Phys_mem.load_bytes mem ~addr:0x3004 (Isa.encode Isa.Hlt);
  Vmm_hw.Cpu.set_pc (Machine.cpu m) 0x2FFC;
  ignore (Machine.run_until_halted m);
  check int "instruction decoded across boundary" 0x1234 (reg m 1)

let test_cpu_unaligned_u32_across_pages () =
  let m, _ =
    run_program (fun a ->
        Asm.movi a 1 (Asm.imm 0x2FFE) (* straddles 0x2FFF/0x3000 *);
        Asm.movi a 2 (Asm.imm 0xA1B2C3D4);
        Asm.st a 1 0 2;
        Asm.ld a 3 1 0;
        Asm.hlt a)
  in
  check int "unaligned store/load across pages" 0xA1B2C3D4 (reg m 3)

let test_cpu_copy_across_pages () =
  let m = fresh_machine () in
  let mem = Machine.mem m in
  for i = 0 to 9999 do
    Phys_mem.write_u8 mem (0x2800 + i) ((i * 13) land 0xFF)
  done;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 0x8800) (* destination also crosses pages *);
  Asm.movi a 2 (Asm.imm 0x2800);
  Asm.movi a 3 (Asm.imm 10000);
  Asm.copy a 1 2 3;
  Asm.hlt a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  ignore (Machine.run_until_halted m);
  check bool "multi-page copy" true
    (Phys_mem.read_bytes mem ~addr:0x2800 ~len:10000
    = Phys_mem.read_bytes mem ~addr:0x8800 ~len:10000)

let test_cpu_csum_across_pages_paged () =
  (* Three consecutive virtual pages on scattered, out-of-order frames; an
     odd-aligned CSUM over all three must sum exactly the physical bytes
     it crosses, in virtual order. *)
  let m = fresh_machine () in
  let mem = Machine.mem m in
  build_identity_tables mem ~pd:0x40000 ~pt:0x41000 ~mbytes:1 ~user:false;
  let vbase = 0x100000 and frames = [| 0x60000; 0x30000; 0x50000 |] in
  Array.iteri
    (fun i frame ->
      Phys_mem.write_u32 mem
        (0x41000 + (4 * ((vbase lsr 12) + i)))
        (Mmu.make_pte ~frame ~writable:true ~user:false);
      for b = 0 to Mmu.page_size - 1 do
        Phys_mem.write_u8 mem (frame + b) (((i * 4096) + b) * 37 land 0xFF)
      done)
    frames;
  let start = vbase + 0x7FF and len = (2 * Mmu.page_size) + 1234 in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 0x40000);
  Asm.lptb a 1;
  Asm.movi a 2 (Asm.imm start);
  Asm.movi a 3 (Asm.imm len);
  Asm.csum a 4 2 3;
  Asm.hlt a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  ignore (Machine.run_until_halted m);
  let gathered = Phys_mem.create ~size:len in
  for i = 0 to len - 1 do
    let v = start + i in
    let frame = frames.((v lsr 12) - (vbase lsr 12)) in
    Phys_mem.write_u8 gathered i (Phys_mem.read_u8 mem (frame + (v land 0xFFF)))
  done;
  check int "paged csum = checksum of the physical bytes"
    (Phys_mem.checksum gathered ~addr:0 ~len)
    (reg m 4)

let test_cpu_tlb_miss_charged_once () =
  (* End to end: the cycles a load costs differ between a cold and a warm
     data page by exactly the TLB-miss penalty. *)
  let m = fresh_machine () in
  let cpu = Machine.cpu m in
  build_identity_tables (Machine.mem m) ~pd:0x40000 ~pt:0x41000 ~mbytes:1
    ~user:false;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 2 (Asm.imm 0x3000);
  Asm.ld a 3 2 0;
  Asm.ld a 3 2 4;
  Asm.hlt a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  Cpu.set_ptb cpu 0x40000;
  let step () =
    let misses = Mmu.tlb_misses (Cpu.mmu cpu) and t0 = Machine.now m in
    Cpu.step cpu;
    (Int64.sub (Machine.now m) t0, Mmu.tlb_misses (Cpu.mmu cpu) - misses)
  in
  let _, code_walks = step () (* movi: walks the code page *) in
  check int "code page walked" 1 code_walks;
  let cold, cold_walks = step () in
  let warm, warm_walks = step () in
  check int "cold load walks" 1 cold_walks;
  check int "warm load walks nothing" 0 warm_walks;
  check Alcotest.int64 "cold - warm = tlb_miss"
    (Int64.of_int (Cpu.costs cpu).Costs.tlb_miss)
    (Int64.sub cold warm)

(* -- Inline TLB hits --

   The CPU serves a ready TLB hit itself; everything else goes through
   [Mmu.translate].  Each test fills an entry with one access, then makes
   a second access through the same entry that the hit alone must not
   serve. *)

(* A bare machine with paging on over user-accessible identity tables,
   booted at 0x1000 and stepped by hand.  A hook records page faults
   instead of delivering them, so the faulting step leaves pc alone. *)
let paged_machine build =
  let m = fresh_machine () in
  let cpu = Machine.cpu m in
  build_identity_tables (Machine.mem m) ~pd:0x40000 ~pt:0x41000 ~mbytes:1
    ~user:true;
  let a = Asm.create ~origin:0x1000 () in
  build a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  Cpu.set_ptb cpu 0x40000;
  let faults = ref [] in
  Cpu.set_hypervisor cpu
    (Some
       (fun _ ev ->
         (match ev with
          | Cpu.Fault (Cpu.Page f, _) -> faults := f :: !faults
          | _ -> ());
         Cpu.Handled));
  (m, cpu, faults)

let data_page = 0x3000
let data_pte = 0x41000 + (4 * (data_page lsr 12))

let set_data_pte m ~writable ~user ~nx =
  Phys_mem.write_u32 (Machine.mem m) data_pte
    (Mmu.make_pte ~frame:data_page ~writable ~user
    lor if nx then Mmu.pte_nx else 0)

let check_protection_fault faults ~vaddr ~access =
  match faults with
  | [ f ] ->
    check int "fault address" vaddr f.Mmu.vaddr;
    check Alcotest.string "fault access" (access_name access)
      (access_name f.Mmu.access);
    check bool "protection, not absence" false f.Mmu.not_present
  | _ -> Alcotest.failf "expected one page fault, got %d" (List.length faults)

let test_tlb_write_after_read_sets_dirty () =
  let st = Isa.St (2, 4, 3) in
  let m, cpu, faults =
    paged_machine (fun a ->
        Asm.movi a 2 (Asm.imm data_page);
        Asm.ld a 3 2 0;
        Asm.instr a st;
        Asm.hlt a)
  in
  Cpu.step cpu (* movi *);
  Cpu.step cpu (* ld: fills the data page's entry, clean *);
  let dirty () = Phys_mem.read_u32 (Machine.mem m) data_pte land Mmu.pte_dirty <> 0 in
  check bool "read fill leaves the PTE clean" false (dirty ());
  let misses = Mmu.tlb_misses (Cpu.mmu cpu) and t0 = Machine.now m in
  Cpu.step cpu (* st: hits the clean entry *);
  check bool "write sets the PTE dirty bit" true (dirty ());
  check int "no walk" 0 (Mmu.tlb_misses (Cpu.mmu cpu) - misses);
  check Alcotest.int64 "no tlb_miss charged"
    (Int64.of_int (Isa.base_cycles (Cpu.costs cpu) st))
    (Int64.sub (Machine.now m) t0);
  check int "no fault" 0 (List.length !faults)

let test_tlb_ring3_load_of_supervisor_page () =
  let m, cpu, faults =
    paged_machine (fun a ->
        Asm.movi a 2 (Asm.imm data_page);
        Asm.ld a 3 2 0;
        Asm.ld a 4 2 0;
        Asm.hlt a)
  in
  set_data_pte m ~writable:true ~user:false ~nx:false;
  Phys_mem.write_u32 (Machine.mem m) data_page 0x5A;
  Cpu.step cpu;
  Cpu.step cpu (* ring 0 fills the supervisor page's entry *);
  check int "ring 0 reads it" 0x5A (reg m 3);
  Cpu.set_cpl cpu 3;
  Cpu.step cpu;
  check_protection_fault !faults ~vaddr:data_page ~access:Mmu.Read;
  check int "ring 3 read nothing" 0 (reg m 4)

let test_tlb_fetch_from_nx_page () =
  let m, cpu, faults =
    paged_machine (fun a ->
        Asm.movi a 2 (Asm.imm data_page);
        Asm.ld a 3 2 0;
        Asm.jmp a (Asm.imm data_page);
        Asm.hlt a)
  in
  set_data_pte m ~writable:true ~user:true ~nx:true;
  Isa.write (Machine.mem m) data_page (Isa.Movi (9, 1));
  Cpu.step cpu;
  Cpu.step cpu (* a data read fills the NX page's entry *);
  Cpu.step cpu (* jmp *);
  Cpu.step cpu (* the fetch hits that entry *);
  check_protection_fault !faults ~vaddr:data_page ~access:Mmu.Exec;
  check int "nothing ran there" 0 (reg m 9);
  check int "pc stays at the page" data_page (Cpu.pc cpu)

let test_tlb_write_to_read_only_page () =
  let m, cpu, faults =
    paged_machine (fun a ->
        Asm.movi a 2 (Asm.imm data_page);
        Asm.movi a 3 (Asm.imm 0x77);
        Asm.ld a 4 2 0;
        Asm.st a 2 0 3;
        Asm.hlt a)
  in
  set_data_pte m ~writable:false ~user:true ~nx:false;
  Cpu.step cpu;
  Cpu.step cpu;
  Cpu.step cpu (* a read fills the read-only page's entry *);
  Cpu.step cpu;
  check_protection_fault !faults ~vaddr:data_page ~access:Mmu.Write;
  check int "memory unchanged" 0 (Phys_mem.read_u32 (Machine.mem m) data_page)

let test_cpu_iret_to_ring3_with_pending_step () =
  (* IRET restoring a flags word with TF set must trap after the first
     user instruction. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0xA000);
  Asm.lstk a 0 1;
  Asm.movi a 3 (Asm.imm 0x7000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm (0x3000 lor 0x100)) (* ring 3, TF *);
  Asm.push a 3;
  Asm.movi a 3 (Asm.lbl "user");
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0);
  Asm.push a 3;
  Asm.iret a;
  Asm.label a "user";
  Asm.movi a 5 (Asm.imm 1);
  Asm.movi a 5 (Asm.imm 2);
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "step_handler";
  Asm.mov a 6 5 (* captures r5 at trap time *);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  let gate_flags = 1 in
  Phys_mem.write_u32 (Machine.mem m) (0x2000 + (8 * Isa.vec_debug_step))
    (Asm.symbol p "step_handler");
  Phys_mem.write_u32 (Machine.mem m)
    (0x2000 + (8 * Isa.vec_debug_step) + 4)
    gate_flags;
  ignore (Machine.run_until_halted m);
  check int "trapped after exactly one instruction" 1 (reg m 6)

(* -- Cross-checking properties -- *)

let prop_mmu_probe_agrees_with_translate =
  (* For random guest-style mappings, a successful translate and probe
     must agree on the physical frame; a probe miss must mean translate
     faults. *)
  QCheck.Test.make ~name:"mmu probe agrees with translate" ~count:100
    QCheck.(
      pair (int_bound 255)
        (list_of_size (Gen.int_range 1 32) (pair (int_bound 255) (int_bound 255))))
    (fun (probe_page, mappings) ->
      let mem = Phys_mem.create ~size:(4 * 1024 * 1024) in
      let mmu = Mmu.create () in
      let pd = 0x200000 and pt = 0x201000 in
      Phys_mem.write_u32 mem pd (Mmu.make_pte ~frame:pt ~writable:true ~user:true);
      List.iter
        (fun (vpage, ppage) ->
          Phys_mem.write_u32 mem
            (pt + (4 * (vpage land 0xFF)))
            (Mmu.make_pte ~frame:((ppage land 0xFF) * 4096) ~writable:true ~user:true))
        mappings;
      let vaddr = (probe_page land 0xFF) * 4096 in
      let probe = Mmu.probe mem ~ptb:pd vaddr in
      let translate =
        try Some (Mmu.translate mmu mem ~ptb:pd ~cpl:3 Mmu.Read vaddr)
        with Mmu.Page_fault _ -> None
      in
      match (probe, translate) with
      | Some pte, Some paddr -> Mmu.frame_of pte = paddr
      | None, None -> true
      | Some _, None | None, Some _ -> false)

(* Operations on one MMU for the flush property: a translation, a sweep
   of [len] consecutive pages (more than the TLB holds, so slots are
   evicted and refilled), a flush, or a PTE rewrite. *)
type tlb_op =
  | Tr of Mmu.access * int * int (* access, cpl, vpn *)
  | Sweep of int * int (* first vpn, len *)
  | Flush
  | Edit of int * int (* vpn, PTE flag bits *)

let prop_tlb_flush_matches_whole_flush =
  (* [Mmu.flush] clears only the slots filled since the last flush.  The
     reference clears all 256 by starting from a fresh TLB; after every
     op both must hold the same pages in the same slots, count the same
     hits and misses, and leave the same accessed/dirty bits in their
     tables. *)
  let pd = 0x100000 and pt0 = 0x101000 and dirs = 4 in
  let vpns = dirs * 1024 in
  let pte_of ~vpn bits = ((vpn * 7919) land 511) lsl 12 lor bits in
  let op_gen =
    QCheck.Gen.(
      let vpn = oneof [ int_bound 15; int_bound (vpns - 1) ] in
      let access = oneofl [ Mmu.Read; Mmu.Write; Mmu.Exec ] in
      frequency
        [
          (10, map3 (fun a c v -> Tr (a, c, v)) access (oneofl [ 0; 3 ]) vpn);
          (1, map2 (fun v n -> Sweep (v, n)) (int_bound (vpns - 1)) (int_range 257 600));
          (2, return Flush);
          (2, map2 (fun v b -> Edit (v, b)) vpn (int_bound 0x7F));
        ])
  in
  let print_op = function
    | Tr (a, c, v) ->
      Printf.sprintf "Tr(%s,%d,%#x)"
        (match a with Mmu.Read -> "R" | Write -> "W" | Exec -> "X")
        c v
    | Sweep (v, n) -> Printf.sprintf "Sweep(%#x,%d)" v n
    | Flush -> "Flush"
    | Edit (v, b) -> Printf.sprintf "Edit(%#x,%#x)" v b
  in
  QCheck.Test.make ~name:"TLB flush in proportion to fills matches a whole-array flush"
    ~count:200
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print_op))
       QCheck.Gen.(pair (int_bound 0x7FFF) (list_size (int_range 1 60) op_gen)))
    (fun (seed, ops) ->
      let rng = Vmm_sim.Rng.create ~seed:(Int64.of_int seed) in
      let tables () =
        let mem = Phys_mem.create ~size:(2 * 1024 * 1024) in
        for d = 0 to dirs - 1 do
          (* the last directory entry is read-only supervisor *)
          Phys_mem.write_u32 mem (pd + (4 * d))
            (Mmu.make_pte ~frame:(pt0 + (d * 4096)) ~writable:(d < dirs - 1)
               ~user:(d < dirs - 1))
        done;
        mem
      in
      let mem = tables () and ref_mem = tables () in
      let edit vpn bits =
        List.iter
          (fun m -> Phys_mem.write_u32 m (pt0 + (4 * vpn)) (pte_of ~vpn bits))
          [ mem; ref_mem ]
      in
      (* mostly present, with random writable/user/NX/accessed/dirty bits *)
      for vpn = 0 to vpns - 1 do
        let bits = Vmm_sim.Rng.int rng 0x80 in
        edit vpn (if Vmm_sim.Rng.int rng 10 = 0 then bits else bits lor 1)
      done;
      let mmu = Mmu.create () in
      (* The reference: a fresh TLB per flush, so every slot is empty after
         one; [ref_hits]/[ref_misses] carry the counts of earlier ones. *)
      let ref_mmu = ref (Mmu.create ()) and ref_hits = ref 0 and ref_misses = ref 0 in
      let translate m mem access cpl vpn =
        match Mmu.translate m mem ~ptb:pd ~cpl access ((vpn lsl 12) lor 0x123) with
        | paddr -> Ok paddr
        | exception Mmu.Page_fault f -> Error f
      in
      let tr access cpl vpn =
        translate mmu mem access cpl vpn = translate !ref_mmu ref_mem access cpl vpn
      in
      let agrees () =
        Mmu.tlb_hits mmu = !ref_hits + Mmu.tlb_hits !ref_mmu
        && Mmu.tlb_misses mmu = !ref_misses + Mmu.tlb_misses !ref_mmu
        && mmu.Mmu.vpn = !ref_mmu.Mmu.vpn
        && Bytes.equal
             (Phys_mem.read_bytes mem ~addr:pd ~len:((dirs + 1) * 4096))
             (Phys_mem.read_bytes ref_mem ~addr:pd ~len:((dirs + 1) * 4096))
      in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Tr (access, cpl, vpn) -> tr access cpl vpn
            | Sweep (first, len) ->
              List.for_all
                (fun i -> tr Mmu.Read 0 ((first + i) mod vpns))
                (List.init len Fun.id)
            | Flush ->
              Mmu.flush mmu;
              ref_hits := !ref_hits + Mmu.tlb_hits !ref_mmu;
              ref_misses := !ref_misses + Mmu.tlb_misses !ref_mmu;
              ref_mmu := Mmu.create ();
              true
            | Edit (vpn, bits) ->
              edit vpn bits;
              true
          in
          same && agrees ())
        ops)

let prop_disassembly_roundtrip =
  (* Assembling a random instruction list and disassembling from memory
     yields the same instruction sequence. *)
  QCheck.Test.make ~name:"assemble/disassemble roundtrip" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 64) instr_arbitrary)
    (fun instrs ->
      let a = Asm.create ~origin:0x2000 () in
      List.iteri
        (fun i instr ->
          ignore i;
          Asm.instr a instr)
        instrs;
      let p = Asm.assemble a in
      let mem = Phys_mem.create ~size:(64 * 1024) in
      Asm.load p mem;
      List.for_all
        (fun (i, instr) -> Isa.read mem (0x2000 + (i * Isa.width)) = instr)
        (List.mapi (fun i instr -> (i, instr)) instrs))

let test_machine_determinism () =
  (* Two machines running the same program for the same simulated time
     must agree on every observable. *)
  let run () =
    let m = fresh_machine () in
    let a = Asm.create ~origin:0x1000 () in
    Asm.movi a Isa.sp (Asm.imm 0x8000);
    Asm.movi a 1 (Asm.imm 0);
    Asm.label a "loop";
    Asm.addi a 1 1 (Asm.imm 1);
    Asm.movi a 2 (Asm.imm 0x30000);
    Asm.st a 2 0 1;
    Asm.jmp a (Asm.lbl "loop");
    Machine.boot m (Asm.assemble a) ~entry:0x1000;
    Machine.run_seconds m 0.001;
    ( Cpu.read_reg (Machine.cpu m) 1,
      Cpu.instructions_retired (Machine.cpu m),
      Vmm_sim.Stats.busy_cycles (Machine.load m) )
  in
  let a = run () and b = run () in
  check bool "identical observables" true (a = b)

(* -- Load accounting -- *)

let test_machine_idle_vs_busy () =
  (* A program that halts immediately: almost all time is idle. *)
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.hlt a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  (* a far-future event so the idle skip has a target *)
  ignore
    (Engine.at (Machine.engine m)
       ~time:(Costs.cycles_of_seconds (Machine.costs m) 0.01)
       (fun () -> ()));
  let t0 = Machine.now m and b0 = Vmm_sim.Stats.busy_cycles (Machine.load m) in
  Machine.run_seconds m 0.01;
  let u = Machine.utilization m ~since:t0 ~since_busy:b0 in
  check bool "mostly idle" true (u < 0.001)

let test_machine_busy_loop () =
  let m = fresh_machine () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.label a "loop";
  Asm.jmp a (Asm.lbl "loop");
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  let t0 = Machine.now m and b0 = Vmm_sim.Stats.busy_cycles (Machine.load m) in
  Machine.run_for m ~cycles:100_000L;
  let u = Machine.utilization m ~since:t0 ~since_busy:b0 in
  check bool "fully busy" true (u > 0.99)

(* -- Decoded-instruction cache -- *)

let test_icache_self_modifying () =
  (* The guest overwrites an instruction it already executed; the refetch
     must observe the store and re-decode, not replay the cached decode. *)
  let enc = Isa.encode (Isa.Movi (1, 99)) in
  let word off =
    Char.code (Bytes.get enc off)
    lor (Char.code (Bytes.get enc (off + 1)) lsl 8)
    lor (Char.code (Bytes.get enc (off + 2)) lsl 16)
    lor (Char.code (Bytes.get enc (off + 3)) lsl 24)
  in
  let m, _ =
    run_program (fun a ->
        (* a few store-free iterations first, so some refetches hit *)
        Asm.movi a 3 (Asm.imm 0);
        Asm.label a "warm";
        Asm.addi a 3 3 (Asm.imm 1);
        Asm.cmpi a 3 (Asm.imm 3);
        Asm.jnz a (Asm.lbl "warm");
        Asm.movi a 5 (Asm.imm 0);
        Asm.label a "patchme";
        Asm.movi a 1 (Asm.imm 1);
        Asm.addi a 5 5 (Asm.imm 1);
        Asm.cmpi a 5 (Asm.imm 2);
        Asm.jz a (Asm.lbl "done");
        Asm.movi a 6 (Asm.imm (word 0));
        Asm.movi a 7 (Asm.imm (word 4));
        Asm.movi a 8 (Asm.lbl "patchme");
        Asm.st a 8 0 6;
        Asm.st a 8 4 7;
        Asm.jmp a (Asm.lbl "patchme");
        Asm.label a "done";
        Asm.hlt a)
  in
  let cpu = Machine.cpu m in
  check int "patched instruction executed" 99 (reg m 1);
  check bool "invalidation counted" true (Cpu.icache_invalidations cpu >= 1);
  check bool "straight-line refetches hit" true (Cpu.icache_hits cpu > 0)

let test_icache_breakpoint_patch () =
  (* Host-side text patching — exactly what the debug stub's breakpoint
     plant/remove does — must invalidate the cached decode both ways. *)
  let m = fresh_machine () in
  let mem = Machine.mem m and cpu = Machine.cpu m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 2 (Asm.imm 0);
  Asm.label a "loop";
  Asm.addi a 2 2 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Asm.label a "handler";
  Asm.movi a 9 (Asm.imm 1);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate mem ~table:0x2000 ~vector:Isa.vec_breakpoint
    ~handler:(Asm.symbol p "handler") ~ring:0 ~dpl:0;
  ignore (Machine.run_steps m 50) (* warm the cache on the loop body *);
  let site = Asm.symbol p "loop" in
  let saved = Phys_mem.read_bytes mem ~addr:site ~len:Isa.width in
  let inval0 = Cpu.icache_invalidations cpu in
  Isa.write mem site Isa.Brk;
  check bool "halted in handler" true (Machine.run_until_halted ~limit:100 m);
  check int "breakpoint handler ran" 1 (reg m 9);
  check bool "plant invalidated cached decode" true
    (Cpu.icache_invalidations cpu > inval0);
  let count_at_bp = reg m 2 in
  Phys_mem.load_bytes mem ~addr:site saved;
  Cpu.set_pc cpu site;
  Cpu.set_halted cpu false;
  ignore (Machine.run_steps m 10);
  check bool "loop resumed after removal" true (reg m 2 > count_at_bp)

let test_icache_dma_invalidation () =
  (* SCSI DMA lands byte-identical data on top of executing code: the
     generation bump must force a re-decode even though nothing changed,
     and the program must keep running unperturbed. *)
  let m = fresh_machine () in
  let cpu = Machine.cpu m and bus = Machine.bus m in
  let base = Machine.Ports.scsi in
  let a = Asm.create ~origin:0x1000 () in
  Asm.label a "loop";
  Asm.movi a 1 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  ignore (Machine.run_steps m 40) (* warm the cache *);
  let issue cmd =
    Io_bus.write bus base 0 (* target *);
    Io_bus.write bus (base + 1) 7 (* lba *);
    Io_bus.write bus (base + 2) 512 (* bytes *);
    Io_bus.write bus (base + 3) 0x1000 (* dma over the loop's text *);
    Io_bus.write bus (base + 4) cmd;
    ignore (Engine.run_until_idle (Machine.engine m));
    Io_bus.write bus (base + 6) 3 (* ack *)
  in
  issue 2 (* write: latch the code bytes onto the disk *);
  let inval0 = Cpu.icache_invalidations cpu in
  issue 1 (* read: DMA the same bytes back over the cached text *);
  ignore (Machine.run_steps m 20);
  check bool "dma invalidated cached text" true
    (Cpu.icache_invalidations cpu > inval0);
  check int "program unperturbed" 1 (reg m 1)

let test_icache_set_ptb_remap () =
  (* Same virtual pc, different physical frame after a PTB reload: the
     physically-tagged cache must miss and decode the new frame's bytes. *)
  let m = fresh_machine () in
  let mem = Machine.mem m and cpu = Machine.cpu m in
  build_identity_tables mem ~pd:0x40000 ~pt:0x41000 ~mbytes:1 ~user:false;
  let vaddr = 0x8000 in
  let pte_addr = 0x41000 + (4 * (vaddr / 4096)) in
  let place frame value =
    Phys_mem.write_u32 mem pte_addr
      (Mmu.make_pte ~frame ~writable:true ~user:false);
    Isa.write mem frame (Isa.Movi (1, value));
    Isa.write mem (frame + Isa.width) (Isa.Jmp vaddr)
  in
  place 0x10000 11;
  Cpu.set_ptb cpu 0x40000;
  Cpu.set_pc cpu vaddr;
  ignore (Machine.run_steps m 20);
  check int "old frame's code" 11 (reg m 1);
  let misses0 = Cpu.icache_misses cpu in
  place 0x11000 22;
  Cpu.set_ptb cpu 0x40000 (* the guest's lptb remap idiom *);
  ignore (Machine.run_steps m 20);
  check int "new frame's code" 22 (reg m 1);
  check bool "remap re-decoded" true (Cpu.icache_misses cpu > misses0)

let test_fetch_beyond_ram_machine_check () =
  (* A jump past the end of physical memory (identity map: paging off) must
     deliver a machine check, exactly as before the decoded-instruction
     cache — the icache generation probe must never read out-of-range
     granules. *)
  let m = fresh_machine () in
  let mem = Machine.mem m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 9 (Asm.imm 0);
  Asm.jmp a (Asm.imm 0x400000) (* 4 MiB: past the machine's 2 MiB of RAM *);
  Asm.label a "handler";
  Asm.movi a 9 (Asm.imm 1);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate mem ~table:0x2000 ~vector:Isa.vec_machine_check
    ~handler:(Asm.symbol p "handler") ~ring:0 ~dpl:0;
  check bool "halted in handler" true (Machine.run_until_halted ~limit:100 m);
  check int "machine check delivered" 1 (reg m 9)

(* -- Block translator (threaded-code JIT) -- *)

(* The translator only engages on the batched dispatch path
   ([Machine.run_until]/[run_for]/[run_seconds] -> [Cpu.run_batch]);
   [run_steps] and [run_until_halted] deliberately stay per-instruction.
   Every test here therefore drives the machine by cycle budget. *)

let run_batched ?(jit = true) ~cycles build =
  let m = fresh_machine () in
  Cpu.set_jit_enabled (Machine.cpu m) jit;
  let a = Asm.create ~origin:0x1000 () in
  build a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  Machine.run_for m ~cycles;
  (m, p)

let test_jit_compiles_and_chains () =
  let m, _ =
    run_batched ~cycles:100_000L (fun a ->
        Asm.movi a Isa.sp (Asm.imm 0x8000);
        Asm.movi a 2 (Asm.imm 0);
        Asm.label a "loop";
        Asm.call a (Asm.lbl "fn");
        Asm.addi a 2 2 (Asm.imm 1);
        Asm.jmp a (Asm.lbl "loop");
        Asm.label a "fn";
        Asm.addi a 3 3 (Asm.imm 1);
        Asm.ret a)
  in
  let cpu = Machine.cpu m in
  check bool "progress made" true (reg m 2 > 0);
  check bool "blocks compiled" true (Cpu.blocks_compiled cpu > 0);
  check bool "block cache hits" true (Cpu.block_hits cpu > 0);
  check bool "superblock chains followed" true
    (Cpu.block_chain_follows cpu > 0)

(* A workload touching every compiled op class: ALU, memory, stack,
   flags, a multiply, and a conditional back-edge. *)
let jit_workload a =
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0);
  Asm.movi a 4 (Asm.imm 0x4000);
  Asm.label a "loop";
  Asm.addi a 1 1 (Asm.imm 1);
  Asm.st a 4 0 1;
  Asm.ld a 5 4 0;
  Asm.add a 6 6 5;
  Asm.mul a 7 1 5;
  Asm.push a 6;
  Asm.pop a 8;
  Asm.cmpi a 1 (Asm.imm 10_000_000);
  Asm.jnz a (Asm.lbl "loop");
  Asm.hlt a

let test_jit_on_off_identical () =
  (* Same program, same cycle budget, translator on vs off: every
     architectural observable — clock, retirement count, busy cycles,
     registers, pc, flags — must be bit-identical. *)
  let observe jit =
    let m, _ = run_batched ~jit ~cycles:200_000L jit_workload in
    let cpu = Machine.cpu m in
    ( Machine.now m,
      Cpu.instructions_retired cpu,
      Vmm_sim.Stats.busy_cycles (Machine.load m),
      List.map (fun r -> Cpu.read_reg cpu r) [ 1; 4; 5; 6; 7; 8 ],
      Cpu.pc cpu,
      Cpu.flags_word cpu,
      Cpu.blocks_compiled cpu > 0 )
  in
  let now_on, ret_on, busy_on, regs_on, pc_on, fl_on, compiled = observe true in
  let now_off, ret_off, busy_off, regs_off, pc_off, fl_off, _ =
    observe false
  in
  check bool "translator engaged" true compiled;
  check bool "same clock" true (now_on = now_off);
  check bool "same retirement count" true (ret_on = ret_off);
  check bool "same busy cycles" true (busy_on = busy_off);
  check bool "same registers" true (regs_on = regs_off);
  check int "same pc" pc_off pc_on;
  check int "same flags" fl_off fl_on

let test_jit_self_modifying () =
  (* The guest patches an instruction inside a block it already
     executed: the store lands on compiled text, the generation check
     must invalidate the block, and the re-compiled block must execute
     the new bytes. *)
  let enc = Isa.encode (Isa.Movi (1, 99)) in
  let word off =
    Char.code (Bytes.get enc off)
    lor (Char.code (Bytes.get enc (off + 1)) lsl 8)
    lor (Char.code (Bytes.get enc (off + 2)) lsl 16)
    lor (Char.code (Bytes.get enc (off + 3)) lsl 24)
  in
  let m, _ =
    run_batched ~cycles:50_000L (fun a ->
        Asm.movi a 5 (Asm.imm 0);
        (* enter via a jump so [patchme] heads its own block — the loop
           back-edge then re-dispatches the patched block at the same
           key and must see the invalidation *)
        Asm.jmp a (Asm.lbl "patchme");
        Asm.label a "patchme";
        Asm.movi a 1 (Asm.imm 1);
        Asm.addi a 5 5 (Asm.imm 1);
        Asm.cmpi a 5 (Asm.imm 2);
        Asm.jz a (Asm.lbl "done");
        Asm.movi a 6 (Asm.imm (word 0));
        Asm.movi a 7 (Asm.imm (word 4));
        Asm.movi a 8 (Asm.lbl "patchme");
        Asm.st a 8 0 6;
        Asm.st a 8 4 7;
        Asm.jmp a (Asm.lbl "patchme");
        Asm.label a "done";
        Asm.hlt a)
  in
  let cpu = Machine.cpu m in
  check bool "halted at done" true (Cpu.halted cpu);
  check int "patched instruction executed" 99 (reg m 1);
  check bool "compiled text invalidated" true
    (Cpu.block_invalidations cpu >= 1)

let test_jit_dma_invalidation () =
  (* Device DMA over compiled text: the block must re-validate against
     the bumped write generations and recompile, even though the DMA'd
     bytes are identical. *)
  let m = fresh_machine () in
  let cpu = Machine.cpu m and bus = Machine.bus m in
  let base = Machine.Ports.scsi in
  let a = Asm.create ~origin:0x1000 () in
  Asm.label a "loop";
  Asm.movi a 1 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  Machine.run_for m ~cycles:20_000L (* compile + warm the loop block *);
  check bool "loop block compiled" true (Cpu.blocks_compiled cpu > 0);
  let issue cmd =
    Io_bus.write bus base 0 (* target *);
    Io_bus.write bus (base + 1) 7 (* lba *);
    Io_bus.write bus (base + 2) 512 (* bytes *);
    Io_bus.write bus (base + 3) 0x1000 (* dma over the loop's text *);
    Io_bus.write bus (base + 4) cmd;
    ignore (Engine.run_until_idle (Machine.engine m));
    Io_bus.write bus (base + 6) 3 (* ack *)
  in
  issue 2 (* write: latch the code bytes onto the disk *);
  let inval0 = Cpu.block_invalidations cpu in
  issue 1 (* read: DMA the same bytes back over the compiled text *);
  Machine.run_for m ~cycles:20_000L;
  check bool "dma invalidated compiled block" true
    (Cpu.block_invalidations cpu > inval0);
  check int "program unperturbed" 1 (reg m 1)

let test_jit_breakpoint_patch () =
  (* A BRK planted into an already-compiled block (the debug stub's
     plant idiom) must invalidate the block and fire on the next pass —
     never stay buried under stale threaded code. *)
  let m = fresh_machine () in
  let mem = Machine.mem m and cpu = Machine.cpu m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x2000);
  Asm.liht a 1;
  Asm.movi a 2 (Asm.imm 0);
  Asm.label a "loop";
  Asm.addi a 2 2 (Asm.imm 1);
  Asm.jmp a (Asm.lbl "loop");
  Asm.label a "handler";
  Asm.movi a 9 (Asm.imm 1);
  Asm.hlt a;
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  write_gate mem ~table:0x2000 ~vector:Isa.vec_breakpoint
    ~handler:(Asm.symbol p "handler") ~ring:0 ~dpl:0;
  Machine.run_for m ~cycles:20_000L (* compile + warm the loop block *);
  check bool "loop block compiled" true (Cpu.blocks_compiled cpu > 0);
  check bool "not yet trapped" true (reg m 9 = 0);
  let inval0 = Cpu.block_invalidations cpu in
  Isa.write mem (Asm.symbol p "loop") Isa.Brk;
  Machine.run_for m ~cycles:20_000L;
  check int "breakpoint handler ran" 1 (reg m 9);
  check bool "halted in handler" true (Cpu.halted cpu);
  check bool "plant invalidated compiled text" true
    (Cpu.block_invalidations cpu > inval0);
  check bool "trap fell back to the interpreter" true
    (Cpu.block_fallbacks cpu > 0)

let test_jit_set_ptb_remap () =
  (* Same virtual pc, different physical frame after a PTB reload: the
     physically-keyed block cache must compile and run the new frame's
     code, not replay the old frame's block. *)
  let m = fresh_machine () in
  let mem = Machine.mem m and cpu = Machine.cpu m in
  build_identity_tables mem ~pd:0x40000 ~pt:0x41000 ~mbytes:1 ~user:false;
  let vaddr = 0x8000 in
  let pte_addr = 0x41000 + (4 * (vaddr / 4096)) in
  let place frame value =
    Phys_mem.write_u32 mem pte_addr
      (Mmu.make_pte ~frame ~writable:true ~user:false);
    Isa.write mem frame (Isa.Movi (1, value));
    Isa.write mem (frame + Isa.width) (Isa.Jmp vaddr)
  in
  place 0x10000 11;
  Cpu.set_ptb cpu 0x40000;
  Cpu.set_pc cpu vaddr;
  Cpu.set_halted cpu false;
  Machine.run_for m ~cycles:20_000L;
  check int "old frame's code" 11 (reg m 1);
  check bool "blocks compiled" true (Cpu.blocks_compiled cpu > 0);
  place 0x11000 22;
  Cpu.set_ptb cpu 0x40000 (* the guest's lptb remap idiom *);
  Machine.run_for m ~cycles:20_000L;
  check int "new frame's code" 22 (reg m 1)

(* Cached ops and blocks are valid exactly when their physical tag and
   text generations match, so a TLB flush keeps them, a remap reaches a
   different frame's entries through its physical key, and one frame
   mapped twice shares one block.  Bare ring 0 over identity tables;
   [map vaddr frame] points one page elsewhere. *)
let test_cached_code_survives_flush () =
  let paged build =
    let m = fresh_machine () in
    let mem = Machine.mem m and cpu = Machine.cpu m in
    build_identity_tables mem ~pd:0x40000 ~pt:0x41000 ~mbytes:1 ~user:false;
    let a = Asm.create ~origin:0x1000 () in
    build a;
    Machine.boot m (Asm.assemble a) ~entry:0x1000;
    let map vaddr frame =
      Phys_mem.write_u32 mem
        (0x41000 + (4 * (vaddr / 4096)))
        (Mmu.make_pte ~frame ~writable:true ~user:false)
    in
    (m, mem, cpu, map)
  in
  let run m = Machine.run_for m ~cycles:20_000L in
  (* A one-instruction loop, so no budget stop leaves a mid-block pc,
     chained and then stepped: a flush costs no compile and no icache
     miss. *)
  let m, _, cpu, _ =
    paged (fun a ->
        Asm.label a "loop";
        Asm.jmp a (Asm.lbl "loop"))
  in
  Cpu.set_ptb cpu 0x40000;
  run m;
  let compiled = Cpu.blocks_compiled cpu and hits = Cpu.block_hits cpu in
  Cpu.flush_tlb cpu;
  run m;
  check int "no compile after a flush" compiled (Cpu.blocks_compiled cpu);
  check bool "block hits after a flush" true (Cpu.block_hits cpu > hits);
  Cpu.set_jit_enabled cpu false;
  run m;
  let misses = Cpu.icache_misses cpu and hits = Cpu.icache_hits cpu in
  Cpu.flush_tlb cpu;
  run m;
  check int "no icache miss after a flush" misses (Cpu.icache_misses cpu);
  check bool "icache hits after a flush" true (Cpu.icache_hits cpu > hits);
  (* One virtual page remapped between two frames holding different
     code: each runs its own frame's code, and coming back to the first
     frame finds its block still cached.  Every run starts at the page's
     first instruction. *)
  let vaddr = 0x8000 in
  let m, mem, cpu, map = paged Asm.hlt in
  List.iter
    (fun (frame, value) ->
      Isa.write mem frame (Isa.Movi (1, value));
      Isa.write mem (frame + Isa.width) (Isa.Jmp vaddr))
    [ (0x10000, 11); (0x11000, 22) ];
  let remap frame =
    map vaddr frame;
    Cpu.set_ptb cpu 0x40000;
    Cpu.set_pc cpu vaddr;
    run m
  in
  remap 0x10000;
  check int "first frame's code" 11 (reg m 1);
  remap 0x11000;
  check int "second frame's code" 22 (reg m 1);
  let compiled = Cpu.blocks_compiled cpu in
  remap 0x10000;
  check int "first frame's code again" 11 (reg m 1);
  check int "first frame's block kept" compiled (Cpu.blocks_compiled cpu);
  (* One frame at two virtual pages: [addi r1; jr r7] runs at both and
     compiles once, beside the three blocks of the calling loop. *)
  let v1 = 0x8000 and v2 = 0x9000 and frame = 0x10000 in
  let m, mem, cpu, map =
    paged (fun a ->
        Asm.label a "loop";
        Asm.movi a 7 (Asm.lbl "back1");
        Asm.jmp a (Asm.imm v1);
        Asm.label a "back1";
        Asm.movi a 7 (Asm.lbl "back2");
        Asm.jmp a (Asm.imm v2);
        Asm.label a "back2";
        Asm.jmp a (Asm.lbl "loop"))
  in
  Isa.write mem frame (Isa.Addi (1, 1, 1));
  Isa.write mem (frame + Isa.width) (Isa.Jr 7);
  map v1 frame;
  map v2 frame;
  Cpu.set_ptb cpu 0x40000;
  run m;
  check bool "ran through both pages" true (reg m 1 > 100);
  check int "one block for the shared frame" 4 (Cpu.blocks_compiled cpu)

(* -- Loop re-entry --

   A block whose chain ends at its own entry runs again without the
   dispatcher.  These loops try to make that visible: each runs as a
   ring-1 guest under the monitor (shadow paging on) with chaining on
   and off, and everything guest-visible must agree. *)

(* Boots [build]'s guest, runs [prepare] on the machine and program,
   warms the guest past its shadow-page fills, then runs a window of 200
   slices of [slice] + 7i cycles (300-1 693 by default), so that their
   ends fall at every point of a loop pass; [before_slice] runs before
   slice i.  Returns the machine, its CPU, the program, the retired count
   after each slice, the final digest and the window's (retired, block
   dispatches, TLB hits, faults). *)
let run_guest_loop ?(prepare = fun _ _ -> ()) ?(slice = 300)
    ?(before_slice = fun _ _ _ -> ()) ~jit build =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) () in
  let cpu = Machine.cpu m in
  Cpu.set_jit_enabled cpu jit;
  let mon = Core.Monitor.install m in
  let a = Asm.create ~origin:0x1000 () in
  build a;
  let p = Asm.assemble a in
  Core.Monitor.boot_guest mon p ~entry:0x1000;
  prepare m p;
  Machine.run_for m ~cycles:100_000L;
  let counts () =
    ( Int64.to_int (Cpu.instructions_retired cpu),
      Cpu.block_hits cpu + Cpu.blocks_compiled cpu,
      Mmu.tlb_hits (Cpu.mmu cpu),
      Int64.to_int (Cpu.faults_taken cpu) )
  in
  let r0, d0, h0, f0 = counts () in
  let slices =
    List.init 200 (fun i ->
        before_slice m p i;
        Machine.run_for m ~cycles:(Int64.of_int (slice + (7 * i)));
        Cpu.instructions_retired cpu)
  in
  let r1, d1, h1, f1 = counts () in
  ( m,
    cpu,
    p,
    slices,
    Core.Snapshot.Full.digest (Core.Monitor.checkpoint_now mon),
    (r1 - r0, d1 - d0, h1 - h0, f1 - f0) )

(* Runs [build]'s guest with chaining on and off and checks that
   everything guest-visible agrees; returns the chaining-on CPU, the
   program and both runs' window counts. *)
let check_on_off ?prepare ?slice ?before_slice build =
  let m_on, on, p, slices_on, digest_on, counts_on =
    run_guest_loop ?prepare ?slice ?before_slice ~jit:true build
  in
  let m_off, off, _, slices_off, digest_off, counts_off =
    run_guest_loop ?prepare ?slice ?before_slice ~jit:false build
  in
  (* A cycle charged at another instruction moves some slice's end. *)
  check (Alcotest.list Alcotest.int64) "retired at every slice end"
    slices_off slices_on;
  let regs cpu = List.init Isa.num_regs (Cpu.read_reg cpu) in
  check (Alcotest.list int) "registers" (regs off) (regs on);
  check int "pc" (Cpu.pc off) (Cpu.pc on);
  check Alcotest.int64 "retired" (Cpu.instructions_retired off)
    (Cpu.instructions_retired on);
  check Alcotest.int64 "clock" (Machine.now m_off) (Machine.now m_on);
  check Alcotest.int64 "busy cycles"
    (Vmm_sim.Stats.busy_cycles (Machine.load m_off))
    (Vmm_sim.Stats.busy_cycles (Machine.load m_on));
  check Alcotest.int64 "digest" digest_off digest_on;
  check int "tlb misses" (Mmu.tlb_misses (Cpu.mmu off))
    (Mmu.tlb_misses (Cpu.mmu on));
  (on, p, counts_on, counts_off)

let check_loop_on_off build =
  let on, p, (retired, dispatches, hits_on, faults), (_, _, hits_off, _) =
    check_on_off build
  in
  (* TLB hits differ by design: stepping fetches every instruction, a
     chain only its first.  In a window without faults (a fault refetches
     the instruction), each block dispatch, re-entries included, is one
     fetch. *)
  check int "no faults in the window" 0 faults;
  check int "no interpreter fallbacks" 0 (Cpu.block_fallbacks on);
  check int "tlb hits: one fetch per dispatch" (retired - dispatches)
    (hits_off - hits_on);
  (on, p)

let test_jit_loop_reenters () =
  (* The control: a loop whose chain always ends at its own entry, so
     almost every pass is a re-entry. *)
  let on, _ =
    check_loop_on_off (fun a ->
        Asm.movi a Isa.sp (Asm.imm 0x8000);
        Asm.movi a 4 (Asm.imm 0x4000);
        Asm.label a "loop";
        Asm.addi a 1 1 (Asm.imm 1);
        Asm.st a 4 0 1;
        Asm.ld a 5 4 0;
        Asm.push a 5;
        Asm.pop a 6;
        Asm.jmp a (Asm.lbl "loop"))
  in
  check bool "chained" true (Cpu.block_chain_follows on > 1000)

let test_jit_loop_stores_own_text () =
  (* Each pass rewrites the immediate of the loop's first instruction:
     the store ends the chain, and the next pass must run the new
     bytes. *)
  let on, _ =
    check_loop_on_off (fun a ->
        Asm.movi a 8 (Asm.lbl "loop");
        Asm.label a "loop";
        Asm.movi a 5 (Asm.imm 0);
        Asm.add a 2 2 5;
        Asm.addi a 1 1 (Asm.imm 1);
        Asm.st a 8 4 1;
        Asm.jmp a (Asm.lbl "loop"))
  in
  let r1 = Cpu.read_reg on 1 and r5 = Cpu.read_reg on 5 in
  check bool "ran the rewritten immediate" true (r5 > 0 && r1 - r5 <= 1);
  check bool "text stores invalidated the loop" true
    (Cpu.block_invalidations on > 0)

let test_jit_loop_call_pushes_into_text () =
  (* The loop ends in [call loop] with sp inside its own text: every
     push writes the return address over the immediate of [movi r5], so
     a pass that re-ran the block without revalidating would load 7.
     The jump makes the loop a block of its own, compiled before the
     first push. *)
  let on, p =
    check_loop_on_off (fun a ->
        Asm.movi a Isa.sp (Asm.lbl "loop");
        Asm.addi a Isa.sp Isa.sp (Asm.imm 4);
        Asm.jmp a (Asm.lbl "loop");
        Asm.label a "loop";
        Asm.movi a 5 (Asm.imm 7);
        Asm.add a 2 2 5;
        Asm.addi a 1 1 (Asm.imm 1);
        Asm.addi a Isa.sp Isa.sp (Asm.imm 4);
        Asm.call a (Asm.lbl "loop");
        Asm.label a "return")
  in
  check int "ran the pushed immediate" (Asm.symbol p "return")
    (Cpu.read_reg on 5);
  check bool "pushes invalidated the loop" true
    (Cpu.block_invalidations on > 0)

let test_jit_loop_load_evicts_code_page () =
  (* The data page 0x101000 shares the code page's TLB slot (vpn 0x101
     and 0x1 mod 256), so every load evicts the code page's entry and the
     next fetch walks the tables again. *)
  let on, _ =
    check_loop_on_off (fun a ->
        Asm.movi a 4 (Asm.imm 0x101000);
        Asm.label a "loop";
        Asm.addi a 1 1 (Asm.imm 1);
        Asm.ld a 5 4 0;
        Asm.add a 2 2 5;
        Asm.jmp a (Asm.lbl "loop"))
  in
  check bool "loop ran" true (Cpu.read_reg on 1 > 100)

let test_jit_loop_ret_evicts_code_page () =
  (* The loop ends in [ret] to its own head, and the return address
     lives on a stack page that shares the code page's TLB slot: the
     chain ends at its entry with the code page evicted, so re-running
     the block must wait for the fetch's walk. *)
  let on, _ =
    check_loop_on_off (fun a ->
        Asm.movi a Isa.sp (Asm.imm 0x101804);
        Asm.movi a 7 (Asm.lbl "loop");
        Asm.st a Isa.sp (-4) 7;
        Asm.label a "loop";
        Asm.addi a 1 1 (Asm.imm 1);
        Asm.addi a Isa.sp Isa.sp (Asm.imm (-4));
        Asm.ret a)
  in
  check bool "loop ran" true (Cpu.read_reg on 1 > 100)

(* -- Interp heads in the dispatch loop --

   [run_batch] knows an [Interp] head from its icache slot and steps
   it as the fallback that ends a chain; the next chain starts only
   when the exit test and the interrupt poll let the loop go on.  These
   guests make each reason to stop visible, chaining on against off.  Most are granted the real PIC and PIT ports, so their
   OUTs run in the CPU instead of trapping into the monitor. *)

let pic_mask = Machine.Ports.pic + 1
let pit_reload = Machine.Ports.pit
let pit_mode = Machine.Ports.pit + 2

let grant_pic_pit m _ =
  List.iter
    (fun base ->
      for port = base to base + 2 do
        Cpu.allow_port (Machine.cpu m) port true
      done)
    [ Machine.Ports.pic; Machine.Ports.pit ]

(* Loads the PIT's reload value with [ticks] ticks of about 1 056
   cycles, and [r11] with [mode] (1 periodic, 2 one-shot): the real PIT
   when the guest is granted its ports, else the monitor's virtual
   one. *)
let load_pit a ~ticks ~mode =
  Asm.movi a 10 (Asm.imm ticks);
  Asm.movi a 11 (Asm.imm mode);
  Asm.movi a 12 (Asm.imm 0);
  Asm.outi a (Asm.imm pit_reload) 10;
  Asm.outi a (Asm.imm (pit_reload + 1)) 12

let program_pit a ~ticks ~mode =
  load_pit a ~ticks ~mode;
  Asm.outi a (Asm.imm pit_mode) 11

let spin a label ~iterations =
  Asm.movi a 5 (Asm.imm 0);
  Asm.label a label;
  Asm.addi a 5 5 (Asm.imm 1);
  Asm.cmpi a 5 (Asm.imm iterations);
  Asm.jnz a (Asm.lbl label)

let test_jit_out_unmasks_pending_irq () =
  (* Every line stays masked through a long spin and is unmasked once a
     pass, so a timer tick that came while masked becomes deliverable
     right after the unmasking OUT (the monitor keeps IF set), where
     [run_batch] polls it. *)
  let on, _, _, _ =
    check_on_off ~prepare:grant_pic_pit ~slice:3000 (fun a ->
        program_pit a ~ticks:32 ~mode:1;
        Asm.movi a 2 (Asm.imm 0xFF);
        Asm.movi a 3 (Asm.imm 0);
        Asm.label a "loop";
        Asm.outi a (Asm.imm pic_mask) 2;
        spin a "spin" ~iterations:200;
        Asm.outi a (Asm.imm pic_mask) 3;
        Asm.addi a 1 1 (Asm.imm 1);
        Asm.jmp a (Asm.lbl "loop"))
  in
  check bool "ticks delivered" true (Cpu.interrupts_taken on > 10L);
  check bool "loop ran" true (Cpu.read_reg on 1 > 100)

let test_jit_out_arms_pit_before_horizon () =
  (* Each pass arms a one-shot tick about 1 056 cycles out and spins
     longer than that: the arming OUT schedules an event before the
     slice's end, so the batch must hand back to the engine. *)
  let on, _, _, _ =
    check_on_off ~prepare:grant_pic_pit ~slice:3000 (fun a ->
        load_pit a ~ticks:1 ~mode:2;
        Asm.label a "loop";
        Asm.outi a (Asm.imm pit_mode) 11;
        spin a "spin" ~iterations:600;
        Asm.addi a 1 1 (Asm.imm 1);
        Asm.jmp a (Asm.lbl "loop"))
  in
  check bool "ticks delivered" true (Cpu.interrupts_taken on > 10L);
  check bool "loop ran" true (Cpu.read_reg on 1 > 10)

let test_jit_hlt_after_out () =
  (* A pass-through OUT, then [hlt], which traps into the monitor and
     halts the CPU until the guest's virtual timer ticks; the slices are
     long enough that the clock is still short of them after the trap,
     so only [halted] ends the dispatch. *)
  let iht = 0x8000 in
  let timer_gate m p =
    write_gate (Machine.mem m) ~table:iht
      ~vector:(Isa.vec_irq_base_default + Machine.Irq.timer)
      ~handler:(Asm.symbol p "handler") ~ring:0 ~dpl:0
  in
  let on, _, _, _ =
    check_on_off ~prepare:timer_gate ~slice:40_000 (fun a ->
        Asm.movi a Isa.sp (Asm.imm 0x20000);
        Asm.movi a 1 (Asm.imm iht);
        Asm.liht a 1;
        program_pit a ~ticks:64 ~mode:1;
        Asm.movi a 3 (Asm.imm 0);
        Asm.sti a;
        Asm.label a "loop";
        Asm.outi a (Asm.imm Machine.Ports.scsi) 3;
        Asm.hlt a;
        Asm.addi a 2 2 (Asm.imm 1);
        Asm.jmp a (Asm.lbl "loop");
        Asm.label a "handler";
        Asm.addi a 7 7 (Asm.imm 1);
        Asm.movi a 8 (Asm.imm 0x20);
        Asm.outi a (Asm.imm Machine.Ports.pic) 8;
        Asm.iret a)
  in
  check bool "woke on ticks and halted again" true
    (Cpu.read_reg on 7 > 10 && Cpu.read_reg on 2 > 10)

let test_jit_out_head_rewritten () =
  (* The loop's head is an OUT, then an ADDI from slice 70, then the OUT
     again from slice 140.  With the OUT head every pass steps it and
     enters the loop's block afresh, never as a chain follow; with the
     ADDI head the next visit compiles the loop whole and no pass falls
     back. *)
  let head = 0x1000 + (2 * Isa.width) in
  let counters cpu =
    ( Cpu.blocks_compiled cpu,
      Cpu.block_fallbacks cpu,
      Cpu.block_chain_follows cpu )
  in
  let marks = ref [] in
  let before_slice m _ i =
    let cpu = Machine.cpu m in
    if Cpu.jit_enabled cpu && (i = 0 || i = 70 || i = 140) then
      marks := counters cpu :: !marks;
    if i = 70 then Isa.write (Machine.mem m) head (Isa.Addi (4, 4, 1))
    else if i = 140 then Isa.write (Machine.mem m) head (Isa.Outi (pic_mask, 3))
  in
  let on, p, _, _ =
    check_on_off ~prepare:grant_pic_pit ~before_slice (fun a ->
        Asm.movi a 3 (Asm.imm 0);
        Asm.jmp a (Asm.lbl "loop");
        Asm.label a "loop";
        Asm.outi a (Asm.imm pic_mask) 3;
        Asm.addi a 1 1 (Asm.imm 1);
        Asm.addi a 2 2 (Asm.imm 3);
        Asm.jmp a (Asm.lbl "loop"))
  in
  check int "head" head (Asm.symbol p "loop");
  match List.rev (counters on :: !marks) with
  | [ (_, f0, ch0); (c1, f1, ch1); (c2, f2, ch2); (_, f3, ch3) ] ->
    check bool "the OUT head falls back" true (f1 > f0 && f3 > f2);
    check int "a pass after the OUT's step is no chain follow" ch0 ch1;
    check int "nor after it comes back" ch2 ch3;
    check bool "the ADDI head compiles on its next visit" true (c2 > c1);
    check int "and never falls back" f1 f2;
    check bool "ran the ADDI" true (Cpu.read_reg on 4 > 100)
  | _ -> Alcotest.fail "three marks and the end"

let test_jit_stale_block_under_interp_verdict () =
  (* The loop's block is compiled, its head is rewritten to an OUT and
     stepped with chaining off, so the icache says OUT while the block
     cache still holds the old block.  The first chained visit must
     still find that block stale and count it, as one without the
     icache's verdict does. *)
  let m = fresh_machine () in
  let cpu = Machine.cpu m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 3 (Asm.imm 0);
  Asm.jmp a (Asm.lbl "loop");
  Asm.label a "loop";
  Asm.addi a 1 1 (Asm.imm 1);
  Asm.addi a 2 2 (Asm.imm 3);
  Asm.jmp a (Asm.lbl "loop");
  let p = Asm.assemble a in
  Machine.boot m p ~entry:0x1000;
  Machine.run_for m ~cycles:20_000L;
  check bool "loop block compiled" true (Cpu.blocks_compiled cpu > 0);
  Isa.write (Machine.mem m) (Asm.symbol p "loop") (Isa.Outi (pic_mask, 3));
  Cpu.set_jit_enabled cpu false;
  Machine.run_for m ~cycles:20_000L;
  let inval0 = Cpu.block_invalidations cpu in
  Cpu.set_jit_enabled cpu true;
  Machine.run_for m ~cycles:20_000L;
  check int "stale block counted once" (inval0 + 1)
    (Cpu.block_invalidations cpu)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vmm_hw"
    [
      ( "word",
        [
          Alcotest.test_case "wrapping" `Quick test_word_wrap;
          Alcotest.test_case "shifts" `Quick test_word_shifts;
          Alcotest.test_case "comparisons" `Quick test_word_compare;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "read/write" `Quick test_mem_rw;
          Alcotest.test_case "bounds" `Quick test_mem_bounds;
          Alcotest.test_case "empty range at the end" `Quick
            test_mem_empty_range_at_end;
          Alcotest.test_case "checksum" `Quick test_mem_checksum_matches_rfc;
          Alcotest.test_case "checksum odd" `Quick test_mem_checksum_odd_len;
          Alcotest.test_case "page generations" `Quick
            test_mem_page_generations;
          Alcotest.test_case "create footprint" `Quick
            test_mem_create_footprint;
        ]
        @ qsuite
            [ prop_checksum_add_matches_bytewise; prop_mem_matches_flat_model ]
      );
      ( "isa",
        [
          Alcotest.test_case "decode error" `Quick test_isa_decode_error;
          Alcotest.test_case "privileged set" `Quick test_isa_privileged_set;
        ]
        @ qsuite [ prop_isa_roundtrip ] );
      ( "asm",
        [
          Alcotest.test_case "labels" `Quick test_asm_labels;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "data/align" `Quick test_asm_data_and_align;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "arithmetic" `Quick test_cpu_arith;
          Alcotest.test_case "branches" `Quick test_cpu_branches;
          Alcotest.test_case "call/stack" `Quick test_cpu_call_stack;
          Alcotest.test_case "memory" `Quick test_cpu_memory;
          Alcotest.test_case "copy/csum" `Quick test_cpu_copy_csum;
          Alcotest.test_case "rdtsc" `Quick test_cpu_rdtsc_monotonic;
          Alcotest.test_case "software interrupt" `Quick
            test_cpu_software_interrupt;
          Alcotest.test_case "ring3 privilege fault" `Quick
            test_cpu_privilege_fault_ring3;
          Alcotest.test_case "stack switch" `Quick
            test_cpu_stack_switch_on_ring_change;
          Alcotest.test_case "int gate dpl" `Quick test_cpu_int_gate_dpl_enforced;
          Alcotest.test_case "hardware interrupt" `Quick
            test_cpu_hardware_interrupt;
          Alcotest.test_case "IF masks" `Quick test_cpu_if_masks_interrupts;
          Alcotest.test_case "page fault delivery" `Quick
            test_cpu_page_fault_delivery;
          Alcotest.test_case "io permission bitmap" `Quick
            test_io_permission_bitmap;
          Alcotest.test_case "fetch across pages" `Quick
            test_cpu_fetch_across_page_boundary;
          Alcotest.test_case "unaligned u32 across pages" `Quick
            test_cpu_unaligned_u32_across_pages;
          Alcotest.test_case "copy across pages" `Quick
            test_cpu_copy_across_pages;
          Alcotest.test_case "csum across pages, paged" `Quick
            test_cpu_csum_across_pages_paged;
          Alcotest.test_case "tlb write after read sets dirty" `Quick
            test_tlb_write_after_read_sets_dirty;
          Alcotest.test_case "tlb ring-3 load of supervisor page" `Quick
            test_tlb_ring3_load_of_supervisor_page;
          Alcotest.test_case "tlb fetch from NX page" `Quick
            test_tlb_fetch_from_nx_page;
          Alcotest.test_case "tlb write to read-only page" `Quick
            test_tlb_write_to_read_only_page;
          Alcotest.test_case "tlb miss charged once" `Quick
            test_cpu_tlb_miss_charged_once;
          Alcotest.test_case "iret with TF" `Quick
            test_cpu_iret_to_ring3_with_pending_step;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "translate + bits" `Quick test_mmu_translate_and_bits;
          Alcotest.test_case "faults" `Quick test_mmu_faults;
          Alcotest.test_case "probe" `Quick test_mmu_probe;
          Alcotest.test_case "write hit caches dirty" `Quick
            test_mmu_write_hit_dirty_cached;
          Alcotest.test_case "hit allocates nothing" `Quick
            test_mmu_hit_allocates_nothing;
          Alcotest.test_case "miss and flush allocate nothing" `Quick
            test_mmu_flush_allocates_nothing;
          Alcotest.test_case "ready mask is the permission rule" `Quick
            test_mmu_ready_mask_exhaustive;
        ] );
      ( "pic",
        [
          Alcotest.test_case "priority/eoi" `Quick test_pic_priority_and_eoi;
          Alcotest.test_case "preemption" `Quick
            test_pic_higher_priority_preempts_service;
          Alcotest.test_case "mask" `Quick test_pic_mask;
          Alcotest.test_case "intr line" `Quick test_pic_intr_line_callback;
          Alcotest.test_case "blocked poll allocates nothing" `Quick
            test_poll_blocked_line_allocates_nothing;
        ]
        @ qsuite [ prop_pic_level_is_deliverability ] );
      ("pit", [ Alcotest.test_case "periodic rate" `Quick test_pit_periodic ]);
      ( "uart",
        [
          Alcotest.test_case "tx wire" `Quick test_uart_wire;
          Alcotest.test_case "rx irq" `Quick test_uart_rx_irq;
        ] );
      ( "scsi",
        [
          Alcotest.test_case "read + pattern" `Quick test_scsi_read;
          Alcotest.test_case "write readback" `Quick test_scsi_write_readback;
          Alcotest.test_case "streaming rate" `Quick test_scsi_streaming_rate;
        ] );
      ( "nic",
        [
          Alcotest.test_case "tx" `Quick test_nic_tx;
          Alcotest.test_case "wire rate" `Quick test_nic_wire_rate;
          Alcotest.test_case "clear_on_frame" `Quick test_nic_clear_on_frame;
          Alcotest.test_case "rx" `Quick test_nic_rx;
        ] );
      ( "io_bus",
        [
          Alcotest.test_case "unclaimed" `Quick test_io_bus_unclaimed;
          Alcotest.test_case "conflict" `Quick test_io_bus_conflict;
        ] );
      ( "machine",
        [
          Alcotest.test_case "idle accounting" `Quick test_machine_idle_vs_busy;
          Alcotest.test_case "busy loop" `Quick test_machine_busy_loop;
          Alcotest.test_case "determinism" `Quick test_machine_determinism;
        ] );
      ( "icache",
        [
          Alcotest.test_case "self-modifying code" `Quick
            test_icache_self_modifying;
          Alcotest.test_case "breakpoint plant/remove" `Quick
            test_icache_breakpoint_patch;
          Alcotest.test_case "dma invalidation" `Quick
            test_icache_dma_invalidation;
          Alcotest.test_case "set_ptb remap" `Quick test_icache_set_ptb_remap;
          Alcotest.test_case "fetch beyond RAM" `Quick
            test_fetch_beyond_ram_machine_check;
        ] );
      ( "jit",
        [
          Alcotest.test_case "compiles, hits, chains" `Quick
            test_jit_compiles_and_chains;
          Alcotest.test_case "on/off bit-identical" `Quick
            test_jit_on_off_identical;
          Alcotest.test_case "self-modifying code" `Quick
            test_jit_self_modifying;
          Alcotest.test_case "dma invalidation" `Quick
            test_jit_dma_invalidation;
          Alcotest.test_case "breakpoint plant" `Quick
            test_jit_breakpoint_patch;
          Alcotest.test_case "set_ptb remap" `Quick test_jit_set_ptb_remap;
          Alcotest.test_case "cached code survives a flush" `Quick
            test_cached_code_survives_flush;
          Alcotest.test_case "loop re-enters" `Quick test_jit_loop_reenters;
          Alcotest.test_case "loop stores into its own text" `Quick
            test_jit_loop_stores_own_text;
          Alcotest.test_case "loop call pushes into its own text" `Quick
            test_jit_loop_call_pushes_into_text;
          Alcotest.test_case "loop load evicts the code page" `Quick
            test_jit_loop_load_evicts_code_page;
          Alcotest.test_case "loop ret evicts the code page" `Quick
            test_jit_loop_ret_evicts_code_page;
          Alcotest.test_case "OUT unmasks a pending IRQ" `Quick
            test_jit_out_unmasks_pending_irq;
          Alcotest.test_case "OUT arms the PIT before the horizon" `Quick
            test_jit_out_arms_pit_before_horizon;
          Alcotest.test_case "HLT right after an OUT" `Quick
            test_jit_hlt_after_out;
          Alcotest.test_case "OUT head rewritten to ADDI and back" `Quick
            test_jit_out_head_rewritten;
          Alcotest.test_case "stale block under an Interp verdict" `Quick
            test_jit_stale_block_under_interp_verdict;
        ] );
      ( "properties",
        qsuite
          [
            prop_mmu_probe_agrees_with_translate;
            prop_tlb_flush_matches_whole_flush;
            prop_disassembly_roundtrip;
          ] );
    ]
