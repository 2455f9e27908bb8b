module Asm = Vmm_hw.Asm
module Isa = Vmm_hw.Isa
module Machine = Vmm_hw.Machine
module Phys_mem = Vmm_hw.Phys_mem

type config = {
  rate_mbps : float;
  segment_bytes : int;
  payload_bytes : int;
  disks : int;
  user_mode : bool;
}

let default_config ~rate_mbps =
  {
    rate_mbps;
    segment_bytes = 64 * 1024;
    payload_bytes = 1458;
    disks = 3;
    user_mode = false;
  }

let entry = 0x1000
let stack_top = 0x100000
let user_stack_base = 0x180000
let user_stack_top = 0x188000
let disk_buffer_base = 0x200000
let disk_buffer_stride = 0x80000
let packet_buffer = 0x400000
let page_dir = 0x600000
let page_table0 = 0x601000
let page_table1 = 0x602000

(* Counter block offsets (32-bit words). *)
let off_ticks = 0
let off_segs_issued = 4
let off_segs_done = 8
let off_frames = 12
let off_bytes = 16
let off_skipped = 20
let off_nic_spins = 24
let off_tx_acked = 28
let off_next_disk = 32
let off_lba0 = 36
let off_pending = 48
let off_retry0 = 64  (* per-disk retries of the in-flight segment, 3 words *)
let off_backoff0 = 76  (* per-disk cumulative backoff iterations, 3 words *)
let off_scsi_retries = 88
let off_scsi_drops = 92
let off_nic_resets = 96

(* Driver recovery tuning.  The retry budget is per segment (the pacing
   tick resets it when it issues a fresh read).  The NIC spin budget must
   sit far above the healthy worst case — one full serialization wait for
   a ring slot is ~1.6k iterations at gigabit — and far below the
   multi-millisecond stalls the fault plan arms. *)
let scsi_max_retries = 3
let scsi_backoff_unit = 64
let nic_spin_limit = 20_000

(* Ports. *)
let pit = Machine.Ports.pit
let pic = Machine.Ports.pic
let scsi = Machine.Ports.scsi
let nic = Machine.Ports.nic
let scsi_target = scsi
let scsi_lba = scsi + 1
let scsi_count = scsi + 2
let scsi_dma = scsi + 3
let scsi_cmd = scsi + 4
let scsi_status = scsi + 5
let scsi_ack = scsi + 6
let nic_tx_addr = nic
let nic_tx_len = nic + 1
let nic_cmd = nic + 2
let nic_status = nic + 3
let nic_ack = nic + 4

(* Syscall vectors. *)
let sys_send = 48
let sys_wait_segment = 49

let pit_input_hz = 1193182.0

(* One tick issues one segment read on one disk, so the aggregate rate is
   segment_bytes * 8 * ticks_per_sec bits per second. *)
let pit_reload config =
  let ticks_per_sec =
    config.rate_mbps *. 1e6 /. (8.0 *. float_of_int config.segment_bytes)
  in
  let reload = int_of_float (pit_input_hz /. ticks_per_sec +. 0.5) in
  max 2 (min reload 0xFFFFFFF)

let validate config =
  if config.rate_mbps < 0.0 then invalid_arg "Kernel.build: negative rate";
  if config.segment_bytes <= 0 || config.segment_bytes > disk_buffer_stride
  then invalid_arg "Kernel.build: segment_bytes out of range";
  if config.payload_bytes <= 0 || config.payload_bytes > 1458 then
    invalid_arg "Kernel.build: payload_bytes out of range";
  if config.disks < 1 || config.disks > 3 then
    invalid_arg "Kernel.build: disks out of range"

(* Counter update helper using two scratch registers. *)
let bump a ~scratch1 ~scratch2 off =
  Asm.movi a scratch1 (Asm.lbl "counters");
  Asm.ld a scratch2 scratch1 off;
  Asm.addi a scratch2 scratch2 (Asm.imm 1);
  Asm.st a scratch1 off scratch2

(* The completion handlers' error path: disk r2 was just acked with the
   medium-error flag up.  Retry the read up to [scsi_max_retries] times,
   spinning a linear backoff first; past the budget the segment is
   dropped and the pacing moves on.  The lba rewind undoes the advance
   the pacing tick did at issue time, so a retry re-reads the same
   segment.  Clobbers r5-r9 and r11; jumps to [next] when done. *)
let emit_scsi_error_path a config ~next =
  Asm.label a "scsi_error";
  Asm.movi a 11 (Asm.lbl "counters");
  Asm.movi a 5 (Asm.imm 4);
  Asm.mul a 5 2 5;
  Asm.add a 5 5 11 (* r5 = &counters + 4*disk *);
  Asm.ld a 6 5 off_retry0;
  Asm.addi a 6 6 (Asm.imm 1);
  Asm.cmpi a 6 (Asm.imm (scsi_max_retries + 1));
  Asm.jae a (Asm.lbl "scsi_drop");
  Asm.st a 5 off_retry0 6;
  Asm.ld a 7 11 off_scsi_retries;
  Asm.addi a 7 7 (Asm.imm 1);
  Asm.st a 11 off_scsi_retries 7;
  (* linear backoff: retry * unit iterations, accounted per disk *)
  Asm.movi a 7 (Asm.imm scsi_backoff_unit);
  Asm.mul a 7 6 7;
  Asm.ld a 8 5 off_backoff0;
  Asm.add a 8 8 7;
  Asm.st a 5 off_backoff0 8;
  Asm.movi a 8 (Asm.imm 1);
  Asm.label a "scsi_backoff";
  Asm.cmpi a 7 (Asm.imm 0);
  Asm.jz a (Asm.lbl "scsi_reissue");
  Asm.sub a 7 7 8;
  Asm.jmp a (Asm.lbl "scsi_backoff");
  Asm.label a "scsi_reissue";
  Asm.ld a 7 5 off_lba0;
  Asm.movi a 8 (Asm.imm (config.segment_bytes / 512));
  Asm.sub a 7 7 8;
  Asm.st a 5 off_lba0 7;
  Asm.outi a (Asm.imm scsi_target) 2;
  Asm.outi a (Asm.imm scsi_lba) 7;
  Asm.movi a 8 (Asm.imm config.segment_bytes);
  Asm.outi a (Asm.imm scsi_count) 8;
  Asm.movi a 8 (Asm.imm disk_buffer_stride);
  Asm.mul a 8 2 8;
  Asm.addi a 8 8 (Asm.imm disk_buffer_base);
  Asm.outi a (Asm.imm scsi_dma) 8;
  Asm.movi a 8 (Asm.imm 1);
  Asm.outi a (Asm.imm scsi_cmd) 8;
  Asm.jmp a (Asm.lbl next);
  Asm.label a "scsi_drop";
  Asm.movi a 6 (Asm.imm 0);
  Asm.st a 5 off_retry0 6;
  Asm.ld a 7 11 off_scsi_drops;
  Asm.addi a 7 7 (Asm.imm 1);
  Asm.st a 11 off_scsi_drops 7;
  Asm.jmp a (Asm.lbl next)

let emit_iht a ~gates =
  Asm.align a 8;
  Asm.label a "iht";
  for v = 0 to 63 do
    match List.assoc_opt v gates with
    | Some (target, dpl) ->
      Asm.word a (Asm.lbl target);
      Asm.word a (Asm.imm (Isa.gate_info ~ring:0 ~dpl))
    | None ->
      Asm.word a (Asm.imm 0);
      Asm.word a (Asm.imm 0)
  done

(* Build one UDP frame in the packet buffer.  Register contract (both the
   kernel path and the user application use it): r5 = payload source,
   r6 = bytes remaining, r10 = packet buffer; r7 becomes the payload
   length, r8/r9 are scratch.  [ip_id] says where the sequence number
   comes from: the kernel's frame counter or the app's local register. *)
let emit_frame_build a config ~prefix ~ip_id =
  Asm.movi a 7 (Asm.imm config.payload_bytes);
  Asm.cmp a 6 7;
  Asm.jae a (Asm.lbl (prefix ^ "_len_ok"));
  Asm.mov a 7 6;
  Asm.label a (prefix ^ "_len_ok");
  (* header template *)
  Asm.movi a 8
    (Asm.lbl (if ip_id = `From_counter then "header_template" else "app_header_template"));
  Asm.movi a 9 (Asm.imm Netfmt.header_bytes);
  Asm.copy a 10 8 9;
  (* ip total length = payload + 28 *)
  Asm.addi a 8 7 (Asm.imm 28);
  Asm.movi a 9 (Asm.imm 8);
  Asm.shr a 9 8 9;
  Asm.stb a 10 Netfmt.off_ip_total_len 9;
  Asm.stb a 10 (Netfmt.off_ip_total_len + 1) 8;
  (* ip id = frame sequence number *)
  (match ip_id with
   | `From_counter ->
     Asm.movi a 8 (Asm.lbl "counters");
     Asm.ld a 8 8 off_frames
   | `From_r11 -> Asm.mov a 8 11);
  Asm.movi a 9 (Asm.imm 8);
  Asm.shr a 9 8 9;
  Asm.stb a 10 Netfmt.off_ip_id 9;
  Asm.stb a 10 (Netfmt.off_ip_id + 1) 8;
  (* udp length = payload + 8 *)
  Asm.addi a 8 7 (Asm.imm 8);
  Asm.movi a 9 (Asm.imm 8);
  Asm.shr a 9 8 9;
  Asm.stb a 10 Netfmt.off_udp_len 9;
  Asm.stb a 10 (Netfmt.off_udp_len + 1) 8;
  (* payload copy and checksum *)
  Asm.addi a 8 10 (Asm.imm Netfmt.off_payload);
  Asm.copy a 8 5 7;
  Asm.csum a 9 8 7;
  Asm.movi a 8 (Asm.imm 8);
  Asm.shr a 8 9 8;
  Asm.stb a 10 Netfmt.off_udp_checksum 8;
  Asm.stb a 10 (Netfmt.off_udp_checksum + 1) 9

(* Identity page tables for the low 8 MiB, built by the kernel itself.
   Leaf entries default to supervisor; the regions the application needs
   are re-marked user afterwards. *)
let emit_page_table_setup a =
  (* PDEs: maximally permissive at the directory level *)
  Asm.movi a 1 (Asm.imm page_dir);
  Asm.movi a 2 (Asm.imm (page_table0 lor 0x7));
  Asm.st a 1 0 2;
  Asm.movi a 2 (Asm.imm (page_table1 lor 0x7));
  Asm.st a 1 4 2;
  (* identity leaves: 2048 pages, present|writable *)
  Asm.movi a 1 (Asm.imm 0) (* page index *);
  Asm.movi a 2 (Asm.imm page_table0) (* entry cursor *);
  Asm.label a "pt_fill";
  Asm.movi a 4 (Asm.imm 12);
  Asm.shl a 3 1 4;
  Asm.addi a 3 3 (Asm.imm 0x3);
  Asm.st a 2 0 3;
  Asm.addi a 2 2 (Asm.imm 4);
  Asm.addi a 1 1 (Asm.imm 1);
  Asm.cmpi a 1 (Asm.imm 2048);
  Asm.jb a (Asm.lbl "pt_fill")

let mark_counter = ref 0

(* Set the user bit on the leaf entries covering [start_addr, end_addr). *)
let emit_mark_user a ~start_addr ~end_addr =
  incr mark_counter;
  let loop = Printf.sprintf "mark_user_%d" !mark_counter in
  Asm.movi a 1 (Asm.imm start_addr);
  Asm.label a loop;
  Asm.movi a 4 (Asm.imm 12);
  Asm.shr a 2 1 4;
  Asm.movi a 4 (Asm.imm 4);
  Asm.mul a 2 2 4;
  Asm.addi a 2 2 (Asm.imm page_table0);
  Asm.ld a 3 2 0;
  Asm.movi a 4 (Asm.imm 0x4);
  Asm.or_ a 3 3 4;
  Asm.st a 2 0 3;
  Asm.addi a 1 1 (Asm.imm 0x1000);
  Asm.cmpi a 1 (Asm.imm end_addr);
  Asm.jb a (Asm.lbl loop)

let emit_marked_operand_regions a =
  emit_mark_user a ~start_addr:user_stack_base ~end_addr:user_stack_top;
  emit_mark_user a ~start_addr:disk_buffer_base
    ~end_addr:(disk_buffer_base + (3 * disk_buffer_stride));
  emit_mark_user a ~start_addr:packet_buffer ~end_addr:(packet_buffer + 0x1000)

let build config =
  validate config;
  mark_counter := 0;
  let a = Asm.create ~origin:entry () in
  let segment = config.segment_bytes in

  (* ---- boot ---- *)
  Asm.label a "boot";
  Asm.movi a Isa.sp (Asm.imm stack_top);
  Asm.movi a 1 (Asm.lbl "iht");
  Asm.liht a 1;
  if config.rate_mbps > 0.0 then begin
    let reload = pit_reload config in
    Asm.movi a 2 (Asm.imm (reload land 0xFFFF));
    Asm.outi a (Asm.imm pit) 2;
    Asm.movi a 2 (Asm.imm ((reload lsr 16) land 0xFFFF));
    Asm.outi a (Asm.imm (pit + 1)) 2;
    Asm.movi a 2 (Asm.imm 1) (* periodic *);
    Asm.outi a (Asm.imm (pit + 2)) 2
  end;
  if config.user_mode then begin
    (* three-level protection: kernel builds page tables, enables paging,
       and drops the streaming application to ring 3 *)
    Asm.movi a 1 (Asm.imm stack_top);
    Asm.lstk a 0 1;
    emit_page_table_setup a;
    emit_marked_operand_regions a;
    (* app code pages: resolved from labels at assembly time via a small
       run-time loop whose bounds are label-valued immediates *)
    (let loop = "mark_user_app" in
     Asm.movi a 1 (Asm.lbl "app_base");
     Asm.label a loop;
     Asm.movi a 4 (Asm.imm 12);
     Asm.shr a 2 1 4;
     Asm.movi a 4 (Asm.imm 4);
     Asm.mul a 2 2 4;
     Asm.addi a 2 2 (Asm.imm page_table0);
     Asm.ld a 3 2 0;
     Asm.movi a 4 (Asm.imm 0x4);
     Asm.or_ a 3 3 4;
     Asm.st a 2 0 3;
     Asm.addi a 1 1 (Asm.imm 0x1000);
     Asm.cmpi a 1 (Asm.lbl "app_end");
     Asm.jb a (Asm.lbl loop));
    Asm.movi a 1 (Asm.imm page_dir);
    Asm.lptb a 1;
    (* enter the application: iret to ring 3 with interrupts on *)
    Asm.movi a 3 (Asm.imm user_stack_top);
    Asm.push a 3;
    Asm.movi a 3 (Asm.imm 0x3200) (* cpl 3, IF set *);
    Asm.push a 3;
    Asm.movi a 3 (Asm.lbl "app_entry");
    Asm.push a 3;
    Asm.movi a 3 (Asm.imm 0);
    Asm.push a 3;
    Asm.iret a
  end
  else begin
    Asm.sti a;
    Asm.label a "idle_loop";
    Asm.hlt a;
    Asm.jmp a (Asm.lbl "idle_loop")
  end;

  (* ---- timer interrupt: pace one segment read, round-robin ---- *)
  Asm.label a "timer_handler";
  List.iter (Asm.push a) [ 1; 2; 3; 4; 5; 6; 7 ];
  Asm.movi a 7 (Asm.lbl "counters");
  Asm.ld a 1 7 off_ticks;
  Asm.addi a 1 1 (Asm.imm 1);
  Asm.st a 7 off_ticks 1;
  Asm.ld a 2 7 off_next_disk;
  (* busy check: status bit (16 + disk) *)
  Asm.movi a 4 (Asm.imm 16);
  Asm.add a 4 4 2;
  Asm.movi a 5 (Asm.imm 1);
  Asm.shl a 5 5 4;
  Asm.ini a 3 (Asm.imm scsi_status);
  Asm.and_ a 3 3 5;
  Asm.jnz a (Asm.lbl "timer_skip");
  (* issue the read *)
  Asm.outi a (Asm.imm scsi_target) 2;
  Asm.movi a 6 (Asm.imm 4);
  Asm.mul a 6 2 6;
  Asm.add a 6 6 7 (* &lba[disk] - off_lba0 *);
  Asm.ld a 4 6 off_lba0;
  Asm.outi a (Asm.imm scsi_lba) 4;
  Asm.addi a 4 4 (Asm.imm (segment / 512));
  Asm.st a 6 off_lba0 4;
  Asm.movi a 5 (Asm.imm segment);
  Asm.outi a (Asm.imm scsi_count) 5;
  Asm.movi a 5 (Asm.imm disk_buffer_stride);
  Asm.mul a 5 2 5;
  Asm.addi a 5 5 (Asm.imm disk_buffer_base);
  Asm.outi a (Asm.imm scsi_dma) 5;
  Asm.movi a 5 (Asm.imm 1);
  Asm.outi a (Asm.imm scsi_cmd) 5;
  (* a fresh segment gets a fresh retry budget *)
  Asm.movi a 5 (Asm.imm 0);
  Asm.st a 6 off_retry0 5;
  Asm.ld a 1 7 off_segs_issued;
  Asm.addi a 1 1 (Asm.imm 1);
  Asm.st a 7 off_segs_issued 1;
  Asm.jmp a (Asm.lbl "timer_advance");
  Asm.label a "timer_skip";
  Asm.ld a 1 7 off_skipped;
  Asm.addi a 1 1 (Asm.imm 1);
  Asm.st a 7 off_skipped 1;
  Asm.label a "timer_advance";
  Asm.ld a 2 7 off_next_disk;
  Asm.addi a 2 2 (Asm.imm 1);
  Asm.cmpi a 2 (Asm.imm config.disks);
  Asm.jnz a (Asm.lbl "timer_nowrap");
  Asm.movi a 2 (Asm.imm 0);
  Asm.label a "timer_nowrap";
  Asm.st a 7 off_next_disk 2;
  Asm.movi a 1 (Asm.imm 0x20);
  Asm.outi a (Asm.imm pic) 1;
  List.iter (Asm.pop a) [ 7; 6; 5; 4; 3; 2; 1 ];
  Asm.iret a;

  (* ---- SCSI completion ---- *)
  Asm.label a "scsi_handler";
  if config.user_mode then begin
    (* hand finished segments to the application: mark them pending and
       let the blocked wait-segment syscall pick them up.  A medium
       error never reaches the app: it is retried (bounded, with
       backoff) and past the budget the segment is dropped. *)
    List.iter (Asm.push a) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 11 ];
    Asm.ini a 1 (Asm.imm scsi_status);
    Asm.movi a 2 (Asm.imm 0);
    Asm.label a "scsi_loop";
    Asm.movi a 3 (Asm.imm 1);
    Asm.shl a 3 3 2;
    Asm.and_ a 4 1 3;
    Asm.jz a (Asm.lbl "scsi_next");
    (* fresh status for the error flag — the ack below clears it *)
    Asm.ini a 4 (Asm.imm scsi_status);
    Asm.movi a 5 (Asm.imm 31);
    Asm.shr a 4 4 5;
    Asm.outi a (Asm.imm scsi_ack) 2;
    Asm.cmpi a 4 (Asm.imm 0);
    Asm.jnz a (Asm.lbl "scsi_error");
    Asm.movi a 4 (Asm.lbl "counters");
    Asm.ld a 5 4 off_pending;
    Asm.or_ a 5 5 3;
    Asm.st a 4 off_pending 5;
    Asm.ld a 5 4 off_segs_done;
    Asm.addi a 5 5 (Asm.imm 1);
    Asm.st a 4 off_segs_done 5;
    Asm.jmp a (Asm.lbl "scsi_next");
    emit_scsi_error_path a config ~next:"scsi_next";
    Asm.label a "scsi_next";
    Asm.addi a 2 2 (Asm.imm 1);
    Asm.cmpi a 2 (Asm.imm config.disks);
    Asm.jb a (Asm.lbl "scsi_loop");
    Asm.movi a 1 (Asm.imm 0x20);
    Asm.outi a (Asm.imm pic) 1;
    List.iter (Asm.pop a) [ 11; 9; 8; 7; 6; 5; 4; 3; 2; 1 ];
    Asm.iret a
  end
  else begin
    (* kernel-mode: transmit each done segment right here; a medium
       error is retried (bounded, with backoff) before the segment is
       given up *)
    List.iter (Asm.push a) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ];
    Asm.ini a 1 (Asm.imm scsi_status);
    Asm.movi a 2 (Asm.imm 0);
    Asm.label a "scsi_loop";
    Asm.movi a 3 (Asm.imm 1);
    Asm.shl a 3 3 2;
    Asm.and_ a 4 1 3;
    Asm.jz a (Asm.lbl "scsi_next");
    (* fresh status for the error flag — the ack below clears it *)
    Asm.ini a 4 (Asm.imm scsi_status);
    Asm.movi a 5 (Asm.imm 31);
    Asm.shr a 4 4 5;
    Asm.outi a (Asm.imm scsi_ack) 2;
    Asm.cmpi a 4 (Asm.imm 0);
    Asm.jnz a (Asm.lbl "scsi_error");
    Asm.movi a 5 (Asm.imm disk_buffer_stride);
    Asm.mul a 5 2 5;
    Asm.addi a 5 5 (Asm.imm disk_buffer_base);
    Asm.call a (Asm.lbl "send_segment");
    Asm.movi a 11 (Asm.lbl "counters");
    Asm.ld a 6 11 off_segs_done;
    Asm.addi a 6 6 (Asm.imm 1);
    Asm.st a 11 off_segs_done 6;
    Asm.jmp a (Asm.lbl "scsi_next");
    emit_scsi_error_path a config ~next:"scsi_next";
    Asm.label a "scsi_next";
    Asm.addi a 2 2 (Asm.imm 1);
    Asm.cmpi a 2 (Asm.imm config.disks);
    Asm.jb a (Asm.lbl "scsi_loop");
    Asm.movi a 1 (Asm.imm 0x20);
    Asm.outi a (Asm.imm pic) 1;
    List.iter (Asm.pop a) [ 11; 10; 9; 8; 7; 6; 5; 4; 3; 2; 1 ];
    Asm.iret a;

    (* ---- send_segment: r5 = source buffer; clobbers r5-r10 ---- *)
    Asm.label a "send_segment";
    Asm.movi a 6 (Asm.imm segment);
    Asm.movi a 10 (Asm.imm packet_buffer);
    Asm.label a "seg_loop";
    Asm.cmpi a 6 (Asm.imm 0);
    Asm.jz a (Asm.lbl "seg_done");
    emit_frame_build a config ~prefix:"seg" ~ip_id:`From_counter;
    (* one send system call per packet, as the streaming application
       does on HiTactix *)
    Asm.int_ a sys_send;
    Asm.add a 5 5 7;
    Asm.sub a 6 6 7;
    Asm.jmp a (Asm.lbl "seg_loop");
    Asm.label a "seg_done";
    Asm.ret a
  end;

  (* ---- send syscall (vector 48): r7 = payload length, r10 = packet
     buffer.  Waits for a transmit-ring slot, rings the doorbell and
     accounts the frame. *)
  Asm.label a "syscall_send";
  Asm.push a 8;
  Asm.push a 9;
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm nic_spin_limit);
  Asm.label a "nic_spin";
  Asm.ini a 8 (Asm.imm nic_status);
  Asm.movi a 9 (Asm.imm 1);
  Asm.and_ a 8 8 9;
  Asm.jz a (Asm.lbl "nic_ready");
  bump a ~scratch1:8 ~scratch2:9 off_nic_spins;
  Asm.movi a 9 (Asm.imm 1);
  Asm.sub a 3 3 9;
  Asm.cmpi a 3 (Asm.imm 0);
  Asm.jnz a (Asm.lbl "nic_spin");
  (* spin budget exhausted: the wire is wedged.  Reset the transmit
     ring, drop this frame and return — the stream degrades instead of
     hanging the kernel inside a syscall forever. *)
  Asm.movi a 8 (Asm.imm 3);
  Asm.outi a (Asm.imm nic_cmd) 8;
  bump a ~scratch1:8 ~scratch2:9 off_nic_resets;
  Asm.jmp a (Asm.lbl "nic_out");
  Asm.label a "nic_ready";
  Asm.outi a (Asm.imm nic_tx_addr) 10;
  Asm.addi a 8 7 (Asm.imm Netfmt.header_bytes);
  Asm.outi a (Asm.imm nic_tx_len) 8;
  Asm.movi a 8 (Asm.imm 1);
  Asm.outi a (Asm.imm nic_cmd) 8;
  (* frames++ and bytes += payload *)
  Asm.movi a 8 (Asm.lbl "counters");
  Asm.ld a 9 8 off_frames;
  Asm.addi a 9 9 (Asm.imm 1);
  Asm.st a 8 off_frames 9;
  Asm.ld a 9 8 off_bytes;
  Asm.add a 9 9 7;
  Asm.st a 8 off_bytes 9;
  Asm.label a "nic_out";
  Asm.pop a 3;
  Asm.pop a 9;
  Asm.pop a 8;
  Asm.iret a;

  (* ---- wait-segment syscall (vector 49, user mode): blocks until a
     segment is pending, returns its buffer address in r5 ---- *)
  if config.user_mode then begin
    Asm.label a "syscall_wait";
    List.iter (Asm.push a) [ 1; 2; 3; 4 ];
    Asm.label a "wait_loop";
    Asm.movi a 1 (Asm.lbl "counters");
    Asm.ld a 2 1 off_pending;
    Asm.cmpi a 2 (Asm.imm 0);
    Asm.jnz a (Asm.lbl "wait_got");
    (* idle inside the kernel until an interrupt changes the state *)
    Asm.sti a;
    Asm.hlt a;
    Asm.cli a;
    Asm.jmp a (Asm.lbl "wait_loop");
    Asm.label a "wait_got";
    (* lowest pending disk *)
    Asm.movi a 3 (Asm.imm 0);
    Asm.label a "wait_find";
    Asm.movi a 4 (Asm.imm 1);
    Asm.shl a 4 4 3;
    Asm.and_ a 5 2 4;
    Asm.jnz a (Asm.lbl "wait_found");
    Asm.addi a 3 3 (Asm.imm 1);
    Asm.jmp a (Asm.lbl "wait_find");
    Asm.label a "wait_found";
    Asm.xor_ a 2 2 4;
    Asm.st a 1 off_pending 2;
    Asm.movi a 5 (Asm.imm disk_buffer_stride);
    Asm.mul a 5 3 5;
    Asm.addi a 5 5 (Asm.imm disk_buffer_base);
    List.iter (Asm.pop a) [ 4; 3; 2; 1 ];
    Asm.iret a
  end;

  (* ---- NIC completion: acknowledge one frame per interrupt (2002-era
     driver, no interrupt coalescing) ---- *)
  Asm.label a "nic_handler";
  List.iter (Asm.push a) [ 1; 2; 3 ];
  Asm.ini a 1 (Asm.imm nic_status);
  Asm.movi a 2 (Asm.imm 2);
  Asm.and_ a 1 1 2;
  Asm.jz a (Asm.lbl "nic_drained");
  Asm.movi a 1 (Asm.imm 1);
  Asm.outi a (Asm.imm nic_ack) 1;
  bump a ~scratch1:1 ~scratch2:3 off_tx_acked;
  Asm.label a "nic_drained";
  Asm.movi a 1 (Asm.imm 0x20);
  Asm.outi a (Asm.imm pic) 1;
  List.iter (Asm.pop a) [ 3; 2; 1 ];
  Asm.iret a;

  (* ---- kernel data ---- *)
  Asm.align a 8;
  Asm.label a "counters";
  Asm.space a 128;
  Asm.label a "header_template";
  Asm.bytes a
    (Bytes.of_string
       (Netfmt.header_template ~src:Netfmt.default_source
          ~dst:Netfmt.default_destination));
  emit_iht a
    ~gates:
      ([
         (Isa.vec_irq_base_default + Machine.Irq.timer, ("timer_handler", 0));
         (Isa.vec_irq_base_default + Machine.Irq.scsi, ("scsi_handler", 0));
         (Isa.vec_irq_base_default + Machine.Irq.nic, ("nic_handler", 0));
         (sys_send, ("syscall_send", 3));
       ]
      @
      if config.user_mode then [ (sys_wait_segment, ("syscall_wait", 3)) ]
      else []);

  (* ---- the streaming application (ring 3, own pages) ---- *)
  if config.user_mode then begin
    Asm.align a 4096;
    Asm.label a "app_base";
    Asm.label a "app_entry";
    Asm.movi a 10 (Asm.imm packet_buffer);
    Asm.movi a 11 (Asm.imm 0) (* frame sequence *);
    Asm.label a "app_loop";
    Asm.int_ a sys_wait_segment (* r5 = segment buffer *);
    Asm.movi a 6 (Asm.imm segment);
    Asm.label a "app_seg_loop";
    Asm.cmpi a 6 (Asm.imm 0);
    Asm.jz a (Asm.lbl "app_seg_done");
    emit_frame_build a config ~prefix:"app" ~ip_id:`From_r11;
    Asm.int_ a sys_send;
    Asm.addi a 11 11 (Asm.imm 1);
    Asm.add a 5 5 7;
    Asm.sub a 6 6 7;
    Asm.jmp a (Asm.lbl "app_seg_loop");
    Asm.label a "app_seg_done";
    Asm.jmp a (Asm.lbl "app_loop");
    Asm.label a "app_header_template";
    Asm.bytes a
      (Bytes.of_string
         (Netfmt.header_template ~src:Netfmt.default_source
            ~dst:Netfmt.default_destination));
    Asm.align a 4096;
    Asm.label a "app_end"
  end;
  Asm.assemble a

type counters = {
  ticks : int;
  segments_issued : int;
  segments_done : int;
  frames_sent : int;
  bytes_sent : int;
  reads_skipped : int;
  nic_full_spins : int;
  tx_acked : int;
  scsi_retries : int;
  scsi_drops : int;
  nic_tx_resets : int;
}

let read_counters mem program =
  let base = Asm.symbol program "counters" in
  let word off = Phys_mem.read_u32 mem (base + off) in
  {
    ticks = word off_ticks;
    segments_issued = word off_segs_issued;
    segments_done = word off_segs_done;
    frames_sent = word off_frames;
    bytes_sent = word off_bytes;
    reads_skipped = word off_skipped;
    nic_full_spins = word off_nic_spins;
    tx_acked = word off_tx_acked;
    scsi_retries = word off_scsi_retries;
    scsi_drops = word off_scsi_drops;
    nic_tx_resets = word off_nic_resets;
  }

let interesting_symbols =
  [
    ("boot", "kernel entry point");
    ("timer_handler", "pacing interrupt: issues one disk read");
    ("scsi_handler", "segment completion handler");
    ("syscall_send", "per-packet send system call");
    ("nic_handler", "transmit-completion drain");
  ]
