module Phys_mem = Vmm_hw.Phys_mem

(* Page-sharing copies of guest memory.  [chunks.(p)] is the newest copy
   of page [p] and is never mutated once made, so every checkpoint can
   hold it by reference; [gens.(p)] is the page generation at which
   memory last equalled it (-1: unknown).  Generation 0 means a page was
   never written, so at creation such a page already equals [zero_page],
   one page shared by every monitor and by [Full.digest]. *)
module Pages = struct
  let page_size = 1 lsl Phys_mem.page_bits
  let zero_page = Bytes.make page_size '\000'

  type t = {
    mem : Phys_mem.t;
    chunks : Bytes.t array;
    gens : int array;
    mutable copied : int;
    mutable written : int;
  }

  let create mem ~len =
    if len < 0 || len mod page_size <> 0 || len > Phys_mem.size mem then
      invalid_arg "Snapshot.Pages.create: len is not a page multiple in memory";
    let n = len / page_size in
    {
      mem;
      chunks = Array.make n zero_page;
      gens =
        Array.init n (fun p ->
            if Phys_mem.page_generation mem (p * page_size) = 0 then 0 else -1);
      copied = 0;
      written = 0;
    }

  let copied t = t.copied
  let written t = t.written

  let capture t =
    for p = 0 to Array.length t.chunks - 1 do
      let addr = p * page_size in
      let gen = Phys_mem.page_generation t.mem addr in
      if gen <> t.gens.(p) then begin
        t.chunks.(p) <- Phys_mem.read_bytes t.mem ~addr ~len:page_size;
        t.gens.(p) <- gen;
        t.copied <- t.copied + 1
      end
    done;
    Array.copy t.chunks

  let restore t image =
    if
      Array.length image <> Array.length t.chunks
      || Array.exists (fun c -> Bytes.length c <> page_size) image
    then invalid_arg "Snapshot.Pages.restore: image does not match the layout";
    for p = 0 to Array.length image - 1 do
      let addr = p * page_size in
      let chunk = image.(p) in
      if
        chunk != t.chunks.(p)
        || Phys_mem.page_generation t.mem addr <> t.gens.(p)
      then begin
        Phys_mem.write_bytes t.mem ~addr chunk ~off:0 ~len:page_size;
        t.chunks.(p) <- chunk;
        t.gens.(p) <- Phys_mem.page_generation t.mem addr;
        t.written <- t.written + 1
      end
    done
end

(* Full checkpoints: everything a warm restart or a reverse-debug restore
   needs to put the guest back on an instruction boundary — memory image, CPU
   architectural state, the monitor's virtualized privileged state, and
   device state including in-flight DMA (captured with {e relative}
   completion offsets, so a restore at any later absolute time re-arms
   the same schedule without rewinding the engine clock). *)
module Full = struct
  module Cpu = Vmm_hw.Cpu
  module Machine = Vmm_hw.Machine
  module Pic = Vmm_hw.Pic
  module Pit = Vmm_hw.Pit
  module Scsi = Vmm_hw.Scsi
  module Nic = Vmm_hw.Nic
  module Isa = Vmm_hw.Isa
  module Reliable = Vmm_proto.Reliable

  type monitor_state = {
    v_if : bool;
    v_iht : int;
    v_ptb : int;
    v_cpl : int;
    v_stacks : int array;
    v_halted : bool;
    console : string;
  }

  type t = {
    cycle : int64;
    retired : int64;
    image : Bytes.t array;
    regs : int array;  (* r0..r15 *)
    pc : int;
    flags : int;  (* real flags word (TF/IF/CPL bits included) *)
    cpl : int;
    halted : bool;
    mon : monitor_state;
    vpic : Pic.state;
    vpit : Pit.phase;
    pic : Pic.state;
    pit : Pit.phase;
    scsi : Scsi.state;
    nic : Nic.state;
    link : Reliable.seq_state;
  }

  let capture ~machine ~pages ~vpic ~vpit ~link ~mon =
    let cpu = Machine.cpu machine in
    {
      cycle = Machine.now machine;
      retired = Cpu.instructions_retired cpu;
      image = Pages.capture pages;
      regs = Array.init Isa.num_regs (fun i -> Cpu.read_reg cpu i);
      pc = Cpu.pc cpu;
      flags = Cpu.flags_word cpu;
      cpl = Cpu.cpl cpu;
      halted = Cpu.halted cpu;
      mon;
      vpic = Pic.capture vpic;
      vpit = Pit.capture_phase vpit;
      pic = Pic.capture (Machine.pic machine);
      pit = Pit.capture_phase (Machine.pit machine);
      scsi = Scsi.capture (Machine.scsi machine);
      nic = Nic.capture (Machine.nic machine);
      link = Reliable.seq_state link;
    }

  let cycle t = t.cycle
  let retired t = t.retired

  (* FNV-1a 64 over a canonical serialization of the guest-visible state.
     The engine cycle is deliberately excluded: restores never rewind the
     clock, so two captures of identical guest state at different
     absolute times must digest equally (all time-like fields inside are
     already relative). *)
  let fnv_prime = 0x100000001b3L
  let fnv_offset = 0xcbf29ce484222325L

  let mix h byte =
    Int64.mul (Int64.logxor h (Int64.of_int (byte land 0xFF))) fnv_prime

  let mix_int h v =
    let h = ref h in
    for i = 0 to 7 do
      h := mix !h ((v lsr (8 * i)) land 0xFF)
    done;
    !h

  let mix_int64 h v =
    let h = ref h in
    for i = 0 to 7 do
      h := mix !h (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF)
    done;
    !h

  let mix_bool h b = mix h (if b then 1 else 0)

  let mix_raw h b =
    let h = ref h in
    for i = 0 to Bytes.length b - 1 do
      h := mix !h (Char.code (Bytes.unsafe_get b i))
    done;
    !h

  let mix_bytes h b = mix_raw (mix_int h (Bytes.length b)) b

  (* Mixing a zero byte is [h * p], so mixing a whole zero page is one
     multiply by [p^page_size mod 2^64]. *)
  let zero_page_factor =
    let f = ref 1L in
    for _ = 1 to Pages.page_size do
      f := Int64.mul !f fnv_prime
    done;
    !f

  (* A never-written page is the shared [Pages.zero_page] itself: one
     pointer test.  A page written and then zeroed is a copy of zeros,
     which [Bytes.equal] (one memcmp) still catches; a chunk of another
     length fails it and takes the byte loop. *)
  let mix_page h chunk =
    if chunk == Pages.zero_page || Bytes.equal chunk Pages.zero_page then
      Int64.mul h zero_page_factor
    else mix_raw h chunk

  (* The same byte sequence as mixing the contiguous image. *)
  let mix_image h image =
    Array.fold_left mix_page (mix_int h (Array.length image * Pages.page_size))
      image

  let mix_string h s = mix_bytes h (Bytes.unsafe_of_string s)

  let mix_pic h (p : Pic.state) =
    let h = mix_int h p.Pic.st_vector_base in
    let h = mix_int h p.Pic.st_request in
    let h = mix_int h p.Pic.st_service in
    mix_int h p.Pic.st_mask

  let mix_pit h (p : Pit.phase) =
    let h = mix_int h p.Pit.ph_reload in
    let h = mix_int h p.Pit.ph_mode in
    mix_int64 h p.Pit.ph_remaining

  let digest t =
    let h = fnv_offset in
    let h = mix_int64 h t.retired in
    let h = mix_image h t.image in
    let h = Array.fold_left mix_int h t.regs in
    let h = mix_int h t.pc in
    let h = mix_int h t.flags in
    let h = mix_int h t.cpl in
    let h = mix_bool h t.halted in
    let h = mix_bool h t.mon.v_if in
    let h = mix_int h t.mon.v_iht in
    let h = mix_int h t.mon.v_ptb in
    let h = mix_int h t.mon.v_cpl in
    let h = Array.fold_left mix_int h t.mon.v_stacks in
    let h = mix_bool h t.mon.v_halted in
    let h = mix_string h t.mon.console in
    let h = mix_pic h t.vpic in
    let h = mix_pit h t.vpit in
    let h = mix_pic h t.pic in
    let h = mix_pit h t.pit in
    let s = t.scsi in
    let h = mix_int h s.Scsi.s_sel_target in
    let h = mix_int h s.Scsi.s_sel_lba in
    let h = mix_int h s.Scsi.s_sel_count in
    let h = mix_int h s.Scsi.s_sel_dma in
    let h = mix_bool h s.Scsi.s_error in
    let h =
      Array.fold_left
        (fun h (ts : Scsi.tgt_state) ->
          let h = mix_bool h ts.Scsi.ts_busy in
          let h = mix_bool h ts.Scsi.ts_done in
          let h =
            List.fold_left
              (fun h (sector, block) -> mix_bytes (mix_int h sector) block)
              h ts.Scsi.ts_sectors
          in
          mix_bytes h ts.Scsi.ts_staging)
        h s.Scsi.s_targets
    in
    let h =
      List.fold_left
        (fun h (os : Scsi.op_state) ->
          let h = mix_int h os.Scsi.os_target in
          let h = mix_int h os.Scsi.os_cmd in
          let h = mix_int h os.Scsi.os_lba in
          let h = mix_int h os.Scsi.os_count in
          let h = mix_int h os.Scsi.os_dma in
          mix_int64 h os.Scsi.os_remaining)
        h s.Scsi.s_inflight
    in
    let n = t.nic in
    let h = mix_int h n.Nic.n_tx_addr in
    let h = mix_int h n.Nic.n_tx_len in
    let h = mix_int h n.Nic.n_completions in
    let h = mix_bool h n.Nic.n_overflow in
    let h = mix_int64 h n.Nic.n_wire_remaining in
    let h = List.fold_left mix_bytes h n.Nic.n_rx in
    let h = mix_int h n.Nic.n_rx_addr in
    let h =
      List.fold_left
        (fun h (xs : Nic.tx_op_state) ->
          mix_int64 (mix_bytes h xs.Nic.xs_data) xs.Nic.xs_remaining)
        h n.Nic.n_inflight
    in
    let h = mix_int h t.link.Reliable.sq_next_seq in
    let h = mix_int h t.link.Reliable.sq_last_rx_seq in
    let h = mix_bool h t.link.Reliable.sq_sequenced in
    mix_bool h t.link.Reliable.sq_up
end
