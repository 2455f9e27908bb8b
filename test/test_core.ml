(* Tests for the lightweight VMM: deprivileged guest execution over shadow
   paging, privileged-instruction and device emulation, virtual interrupt
   reflection, the three-level protection property and the remote debug
   stub driven over the simulated serial wire. *)

module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Isa = Vmm_hw.Isa
module Asm = Vmm_hw.Asm
module Uart = Vmm_hw.Uart
module Nic = Vmm_hw.Nic
module Phys_mem = Vmm_hw.Phys_mem
module Costs = Vmm_hw.Costs
module Mmu = Vmm_hw.Mmu
module Packet = Vmm_proto.Packet
module Command = Vmm_proto.Command
module Monitor = Core.Monitor
module Stub = Core.Stub
module Shadow = Core.Shadow
module Vm_layout = Core.Vm_layout
module Breakpoints = Core.Breakpoints
module Flight = Vmm_profile.Flight
module Kernel = Vmm_guest.Kernel

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Fast serial line so debug round-trips stay cheap in simulated time. *)
let test_costs = { Costs.default with Costs.uart_cycles_per_byte = 2000 }

let fresh () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  (m, mon)

let reg m r = Cpu.read_reg (Machine.cpu m) r

(* Emit a 64-entry interrupt table; [gates] maps vector -> (label, ring, dpl). *)
let emit_iht a ~label ~gates =
  Asm.align a 8;
  Asm.label a label;
  for v = 0 to 63 do
    match List.assoc_opt v gates with
    | Some (target, ring, dpl) ->
      Asm.word a (Asm.lbl target);
      Asm.word a (Asm.imm (Isa.gate_info ~ring ~dpl))
    | None ->
      Asm.word a (Asm.imm 0);
      Asm.word a (Asm.imm 0)
  done

let run_seconds m s = Machine.run_seconds m s

(* -- Basic deprivileged execution -- *)

let test_guest_runs_deprivileged () =
  let m, mon = fresh () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 21);
  Asm.add a 2 1 1;
  Asm.vmcall a (Asm.imm 2) (* shutdown *);
  let p = Asm.assemble a in
  Monitor.boot_guest mon p ~entry:0x1000;
  check int "real ring 1" 1 (Cpu.cpl (Machine.cpu m));
  run_seconds m 0.001;
  check int "computed" 42 (reg m 2);
  check bool "shutdown" true (Monitor.shutdown_requested mon);
  let stats = Monitor.stats mon in
  check bool "shadow fills happened" true (stats.Monitor.shadow_fills > 0);
  check bool "world switches happened" true (stats.Monitor.world_switches > 0)

let test_sti_cli_emulated () =
  let m, mon = fresh () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.sti a;
  Asm.cli a;
  Asm.sti a;
  Asm.vmcall a (Asm.imm 2);
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  run_seconds m 0.001;
  check bool "virtual IF set" true (Monitor.guest_interrupts_enabled mon);
  check bool "real IF stayed with monitor" true
    (Cpu.interrupts_enabled (Machine.cpu m));
  let stats = Monitor.stats mon in
  check bool "three cpu emulations" true (stats.Monitor.cpu_emulations >= 3)

let test_hypercall_console () =
  let m, mon = fresh () in
  let a = Asm.create ~origin:0x1000 () in
  String.iter
    (fun c ->
      Asm.movi a 1 (Asm.imm (Char.code c));
      Asm.vmcall a (Asm.imm 0))
    "hi!";
  Asm.vmcall a (Asm.imm 2);
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  run_seconds m 0.001;
  check Alcotest.string "console" "hi!" (Monitor.console mon)

(* -- Virtual timer + interrupt reflection -- *)

let timer_guest () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x20000);
  Asm.movi a 1 (Asm.lbl "iht");
  Asm.liht a 1;
  (* program the *virtual* PIT: periodic, 2000 input ticks *)
  Asm.movi a 2 (Asm.imm 2000);
  Asm.outi a (Asm.imm Machine.Ports.pit) 2;
  Asm.movi a 2 (Asm.imm 0);
  Asm.outi a (Asm.imm (Machine.Ports.pit + 1)) 2;
  Asm.movi a 2 (Asm.imm 1);
  Asm.outi a (Asm.imm (Machine.Ports.pit + 2)) 2;
  Asm.movi a 7 (Asm.imm 0) (* tick counter *);
  Asm.sti a;
  Asm.label a "idle";
  Asm.hlt a;
  Asm.cmpi a 7 (Asm.imm 5);
  Asm.jlt a (Asm.lbl "idle");
  Asm.vmcall a (Asm.imm 2);
  Asm.label a "timer_handler";
  Asm.addi a 7 7 (Asm.imm 1);
  Asm.movi a 2 (Asm.imm 0x20);
  Asm.outi a (Asm.imm Machine.Ports.pic) 2 (* EOI to virtual PIC *);
  Asm.iret a;
  emit_iht a ~label:"iht"
    ~gates:[ (Isa.vec_irq_base_default + Machine.Irq.timer, ("timer_handler", 0, 0)) ];
  Asm.assemble a

let test_virtual_timer_reflection () =
  let m, mon = fresh () in
  Monitor.boot_guest mon (timer_guest ()) ~entry:0x1000;
  run_seconds m 0.05;
  check bool "five ticks delivered" true (Monitor.shutdown_requested mon);
  check int "handler count" 5 (reg m 7);
  let stats = Monitor.stats mon in
  check bool "irqs reflected" true (stats.Monitor.reflected_irqs >= 5);
  check bool "pit emulated" true (stats.Monitor.pit_emulations >= 3);
  check bool "pic emulated (EOIs)" true (stats.Monitor.pic_emulations >= 5)

(* -- Pass-through device access -- *)

let test_nic_passthrough_direct () =
  let m, mon = fresh () in
  let frames = ref 0 in
  Nic.set_on_frame (Machine.nic m) (fun _ -> incr frames);
  let a = Asm.create ~origin:0x1000 () in
  (* guest touches NIC ports directly; no monitor trap expected *)
  Asm.movi a 1 (Asm.imm 0x30000);
  Asm.outi a (Asm.imm Machine.Ports.nic) 1;
  Asm.movi a 1 (Asm.imm 256);
  Asm.outi a (Asm.imm (Machine.Ports.nic + 1)) 1;
  Asm.movi a 1 (Asm.imm 1);
  Asm.outi a (Asm.imm (Machine.Ports.nic + 2)) 1;
  Asm.vmcall a (Asm.imm 2);
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  let io_before = (Monitor.stats mon).Monitor.io_emulations in
  run_seconds m 0.001;
  check int "frame hit the wire" 1 !frames;
  check int "no emulated i/o" io_before (Monitor.stats mon).Monitor.io_emulations

let test_non_passthrough_port_traps () =
  let m, mon = fresh () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.ini a 3 (Asm.imm Machine.Ports.pit) (* PIT read: must trap+emulate *);
  Asm.vmcall a (Asm.imm 2);
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  run_seconds m 0.001;
  check bool "io emulation counted" true
    ((Monitor.stats mon).Monitor.io_emulations >= 1);
  check bool "virtual pit consulted" true
    ((Monitor.stats mon).Monitor.pit_emulations >= 1)

(* -- Protection: the paper's stability property -- *)

let test_monitor_memory_unreachable () =
  let m, mon = fresh () in
  let layout = Monitor.layout mon in
  let victim = layout.Vm_layout.monitor_base + 0x100 in
  Phys_mem.write_u32 (Machine.mem m) victim 0x5AFE5AFE;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm victim);
  Asm.movi a 2 (Asm.imm 0xDEAD);
  Asm.st a 1 0 2 (* wild store into monitor memory *);
  Asm.vmcall a (Asm.imm 2);
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  run_seconds m 0.01;
  (* The store must not land; with no guest fault handler installed the
     guest is stopped and the debugger notified -- the monitor survives. *)
  check int "monitor memory intact" 0x5AFE5AFE
    (Phys_mem.read_u32 (Machine.mem m) victim);
  check bool "guest stopped" true (Cpu.stopped (Machine.cpu m));
  check bool "debugger notified" true
    (Stub.notifications_sent (Monitor.stub mon) >= 1);
  check bool "escalation recorded" true
    ((Monitor.stats mon).Monitor.escalations >= 1)

let test_guest_page_fault_reflected () =
  (* With a guest #PF handler installed, a wild access reflects into the
     guest instead of stopping it. *)
  let m, mon = fresh () in
  let layout = Monitor.layout mon in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x20000);
  Asm.movi a 1 (Asm.lbl "iht");
  Asm.liht a 1;
  Asm.movi a 2 (Asm.imm layout.Vm_layout.monitor_base);
  Asm.ld a 3 2 0 (* wild read *);
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "pf_handler";
  Asm.ld a 5 Isa.sp 0 (* error slot = faulting address *);
  Asm.vmcall a (Asm.imm 2);
  emit_iht a ~label:"iht" ~gates:[ (Isa.vec_page_fault, ("pf_handler", 0, 0)) ];
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  run_seconds m 0.001;
  check bool "guest handled its own fault" true (Monitor.shutdown_requested mon);
  check int "fault address delivered" layout.Vm_layout.monitor_base (reg m 5);
  check bool "not escalated" true ((Monitor.stats mon).Monitor.escalations = 0)

(* -- Guest paging on shadow tables -- *)

let test_guest_paging_via_shadow () =
  let m, mon = fresh () in
  let mem = Machine.mem m in
  (* Guest builds identity tables for its first 2 MiB at 0x100000. *)
  let pd = 0x100000 and pt = 0x101000 in
  Phys_mem.write_u32 mem pd (Mmu.make_pte ~frame:pt ~writable:true ~user:false);
  for i = 0 to 511 do
    Phys_mem.write_u32 mem
      (pt + (4 * i))
      (Mmu.make_pte ~frame:(i * 4096) ~writable:true ~user:false)
  done;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm pd);
  Asm.lptb a 1 (* trapped: shadow rebuilt, v_ptb recorded *);
  Asm.movi a 2 (Asm.imm 0x9000);
  Asm.movi a 3 (Asm.imm 0xFEED);
  Asm.st a 2 0 3;
  Asm.ld a 4 2 0;
  Asm.vmcall a (Asm.imm 2);
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  run_seconds m 0.005;
  check bool "completed" true (Monitor.shutdown_requested mon);
  check int "memory through guest mapping" 0xFEED (reg m 4);
  check int "guest ptb tracked" pd (Monitor.guest_ptb mon);
  check bool "shadow populated" true (Shadow.mappings (Monitor.shadow mon) > 0)

(* -- Guest-word access: the monitor's frame pushes and pops --

   The guest pages its first 2 MiB identity at [guest_pd] with the given
   overrides; [None] leaves a page unmapped. *)
let guest_pd = 0x100000

let guest_tables mem ~overrides =
  let pt = guest_pd + 0x1000 in
  Phys_mem.write_u32 mem guest_pd
    (Mmu.make_pte ~frame:pt ~writable:true ~user:false);
  for i = 0 to 511 do
    let pte =
      match List.assoc_opt i overrides with
      | Some None -> 0
      | Some (Some frame) -> Mmu.make_pte ~frame ~writable:true ~user:false
      | None -> Mmu.make_pte ~frame:(i * 4096) ~writable:true ~user:false
    in
    Phys_mem.write_u32 mem (pt + (4 * i)) pte
  done

(* A guest that pages itself, sets [sp], then reads [fault_addr]: with
   the page unmapped that is a #PF the monitor reflects onto [sp]. *)
let faulting_guest a ~sp ~fault_addr =
  Asm.movi a 1 (Asm.imm guest_pd);
  Asm.lptb a 1;
  Asm.movi a 1 (Asm.lbl "iht");
  Asm.liht a 1;
  Asm.movi a Isa.sp (Asm.imm sp);
  Asm.movi a 2 (Asm.imm fault_addr);
  Asm.label a "fault";
  Asm.ld a 3 2 0

let test_reflect_frame_straddles_page () =
  (* The stack sits 2 bytes above a page boundary, and the two pages map
     to unrelated frames: the pushed old-sp word straddles them. *)
  let m, mon = fresh () in
  let mem = Machine.mem m in
  let low = 0x150000 and high = 0x170000 in
  guest_tables mem ~overrides:[ (0x1F, Some low); (0x20, Some high) ];
  let a = Asm.create ~origin:0x1000 () in
  faulting_guest a ~sp:0x20002 ~fault_addr:0x300000;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "pf_handler";
  Asm.ld a 5 Isa.sp 0;
  Asm.ld a 7 Isa.sp 4;
  Asm.ld a 6 Isa.sp 12;
  Asm.vmcall a (Asm.imm 2);
  emit_iht a ~label:"iht" ~gates:[ (Isa.vec_page_fault, ("pf_handler", 0, 0)) ];
  let p = Asm.assemble a in
  Monitor.boot_guest mon p ~entry:0x1000;
  run_seconds m 0.005;
  check bool "handler ran" true (Monitor.shutdown_requested mon);
  check int "error word" 0x300000 (reg m 5);
  check int "return pc" (Asm.symbol p "fault") (reg m 7);
  check int "straddling old-sp word" 0x20002 (reg m 6);
  check int "sp after four pushes" (0x20002 - 16) (reg m Isa.sp);
  check (Alcotest.list int) "old sp split across the two frames"
    [ 0x02; 0x00; 0x02; 0x00 ]
    (List.map (Phys_mem.read_u8 mem) [ low + 0xFFE; low + 0xFFF; high; high + 1 ]);
  check bool "not escalated" true ((Monitor.stats mon).Monitor.escalations = 0)

let test_reflect_onto_unmapped_stack () =
  let m, mon = fresh () in
  let a = Asm.create ~origin:0x1000 () in
  guest_tables (Machine.mem m) ~overrides:[];
  faulting_guest a ~sp:0x300100 ~fault_addr:0x300000;
  Asm.label a "pf_handler";
  Asm.vmcall a (Asm.imm 2);
  emit_iht a ~label:"iht" ~gates:[ (Isa.vec_page_fault, ("pf_handler", 0, 0)) ];
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  run_seconds m 0.005;
  check bool "handler never ran" false (Monitor.shutdown_requested mon);
  match Monitor.lifecycle mon with
  | Monitor.Crashed r ->
    check Alcotest.string "cause" "stack_unmapped" r.Monitor.cause;
    check int "vector" Isa.vec_page_fault r.Monitor.vector
  | Monitor.Healthy -> Alcotest.fail "expected an escalation"

let test_reflect_frame_over_text_refetched () =
  (* The guest runs the code at [x] once, so it is cached, then faults
     with its stack just above [x]: the reflected frame overwrites that
     code, and the next fetch must see the frame's bytes.  The error
     word is the faulting address, chosen to encode [movi r9, imm]
     whose immediate is the next frame word (the return pc); the flags
     word above it decodes as [nop]. *)
  let m, mon = fresh () in
  let movi_r9 = Bytes.get_int32_le (Isa.encode (Isa.Movi (9, 0))) 0 |> Int32.to_int in
  guest_tables (Machine.mem m) ~overrides:[ (movi_r9 lsr 12, None) ];
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm guest_pd);
  Asm.lptb a 1;
  Asm.movi a 1 (Asm.lbl "iht");
  Asm.liht a 1;
  Asm.jmp a (Asm.lbl "x");
  Asm.label a "back";
  Asm.movi a Isa.sp (Asm.lbl "x");
  Asm.addi a Isa.sp Isa.sp (Asm.imm 16);
  Asm.movi a 2 (Asm.imm movi_r9);
  Asm.label a "fault";
  Asm.ld a 3 2 0;
  Asm.label a "pf_handler";
  Asm.jmp a (Asm.lbl "x");
  Asm.label a "x";
  Asm.movi a 9 (Asm.imm 0x55);
  Asm.jmp a (Asm.lbl "back");
  Asm.vmcall a (Asm.imm 2);
  emit_iht a ~label:"iht" ~gates:[ (Isa.vec_page_fault, ("pf_handler", 0, 0)) ];
  let p = Asm.assemble a in
  Monitor.boot_guest mon p ~entry:0x1000;
  run_seconds m 0.005;
  check bool "ran off the rewritten text" true (Monitor.shutdown_requested mon);
  check int "fetched the frame's bytes" (Asm.symbol p "fault") (reg m 9)

(* Minor words per retired instruction of a warm ring-1 guest under the
   monitor: the compute loop, or with [split] the same loop cut in two
   blocks by a jump, so that every pass goes through the dispatcher
   twice instead of re-entering its one block. *)
let guest_words_per_instruction ~split =
  let m, mon = fresh () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0);
  Asm.movi a 4 (Asm.imm 0x4000);
  Asm.label a "loop";
  Asm.addi a 1 1 (Asm.imm 1);
  Asm.st a 4 0 1;
  Asm.ld a 5 4 0;
  Asm.add a 6 6 5;
  if split then begin
    Asm.jmp a (Asm.lbl "tail");
    Asm.label a "tail"
  end;
  Asm.mul a 7 1 5;
  Asm.push a 6;
  Asm.pop a 8;
  Asm.cmpi a 1 (Asm.imm 0);
  Asm.jnz a (Asm.lbl "loop");
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  let cpu = Machine.cpu m in
  run_seconds m 0.001;
  let retired = Cpu.instructions_retired cpu in
  let before = Gc.minor_words () in
  run_seconds m 0.002;
  let words = Gc.minor_words () -. before in
  let instrs = Int64.to_float (Int64.sub (Cpu.instructions_retired cpu) retired) in
  check bool "guest ran" true (instrs > 100_000.);
  words /. instrs

let test_compute_guest_allocation () =
  (* A warm CPU-bound guest runs in translated chains: every load, store,
     cycle charge and block dispatch on that path is allocation-free, so
     what remains is per chain (the boxed [int64] clock reads that set
     its budget and test [run_batch]'s exit), far under a word per
     instruction.  An option built per dispatch (two words) would read
     about 0.4 on the split loop. *)
  List.iter
    (fun split ->
      let per_instr = guest_words_per_instruction ~split in
      check bool
        (Printf.sprintf "%s: at most 0.01 minor words per instruction (%.6f)"
           (if split then "two blocks" else "one block")
           per_instr)
        true (per_instr <= 0.01))
    [ false; true ]

(* The paper's streaming arm: the kernel guest at 150 Mbps under the
   monitor, on default costs, warmed past boot; with [profile], the
   continuous profiler samples it at that period from the start. *)
let streaming_guest ?profile () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) () in
  let mon = Monitor.install m in
  Option.iter (fun period -> Machine.set_profiling m ~period) profile;
  let program = Kernel.build (Kernel.default_config ~rate_mbps:150.0) in
  Monitor.boot_guest mon program ~entry:Kernel.entry;
  run_seconds m 0.02;
  (m, mon)

let test_stream_guest_allocation () =
  (* Every world switch of the streaming guest notes typed details in the
     flight ring; formatting them per trap would cost hundreds of words
     per switch.  An [Interp] instruction decoded and compiled again on
     every visit would add about 80, and a PIC that builds options to
     answer each interrupt poll about 35. *)
  let m, mon = streaming_guest () in
  let switches0 = (Monitor.stats mon).Monitor.world_switches in
  let before = Gc.minor_words () in
  run_seconds m 0.05;
  let words = Gc.minor_words () -. before in
  let switches = (Monitor.stats mon).Monitor.world_switches - switches0 in
  check bool "guest trapped" true (switches > 1000);
  let per_switch = words /. float_of_int switches in
  check bool
    (Printf.sprintf "at most 160 minor words per world switch (%.0f)"
       per_switch)
    true (per_switch <= 160.)

(* 0.3 simulated s of the streaming guest reproduce the retirement
   count, clock, translator, icache and TLB counters, world switches and
   checkpoint digest recorded before [Interp] instructions ran inside
   the translator's dispatch loop, and again before that loop became
   [run_batch]'s own: neither change moved a simulated or translator
   counter.  Since a TLB flush stopped dropping cached ops and blocks,
   only the block and icache counters moved (596 fewer compiles and
   block invalidations, 471 fewer icache misses); nothing simulated did.
   Profiled, a sample boundary ends a chain, so the same guest compiles
   and hits more blocks but runs identically. *)
let stream_guest_counters ?profile ~blocks ~tlb_hits () =
  let m, mon = streaming_guest ?profile () in
  run_seconds m 0.28;
  let cpu = Machine.cpu m in
  let mmu = Cpu.mmu cpu in
  check Alcotest.int64 "retired" 230_243L (Cpu.instructions_retired cpu);
  check Alcotest.int64 "clock" 378_017_140L (Machine.now m);
  check (Alcotest.list int) "blocks compiled/hits/invalidations/chains/fallbacks"
    blocks
    [
      Cpu.blocks_compiled cpu;
      Cpu.block_hits cpu;
      Cpu.block_invalidations cpu;
      Cpu.block_chain_follows cpu;
      Cpu.block_fallbacks cpu;
    ];
  check (Alcotest.list int) "icache hits/misses/invalidations"
    [ 35_265; 196; 164 ]
    [ Cpu.icache_hits cpu; Cpu.icache_misses cpu; Cpu.icache_invalidations cpu ];
  check (Alcotest.list int) "tlb hits/misses/flushes" [ tlb_hits; 1_839; 53 ]
    [ Mmu.tlb_hits mmu; Mmu.tlb_misses mmu; Mmu.tlb_flushes mmu ];
  check int "world switches" 12_011 (Monitor.stats mon).Monitor.world_switches;
  check Alcotest.int64 "digest" 0xd295042b9bb0958dL
    (Core.Snapshot.Full.digest (Monitor.checkpoint_now mon))

let test_stream_guest_counters () =
  stream_guest_counters ~blocks:[ 128; 43_934; 82; 12_392; 35_461 ]
    ~tlb_hits:211_359 ()

let test_stream_guest_counters_profiled () =
  stream_guest_counters ~profile:7919L
    ~blocks:[ 132; 47_778; 82; 12_392; 35_461 ]
    ~tlb_hits:215_207 ()

let test_flight_report_monitor_activity () =
  let _, mon = streaming_guest () in
  let report = Monitor.flight_report mon in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length report
      && (String.sub report i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun line -> check bool line true (has line))
    [ "monitor.virq: irq line="; "monitor.reflect: vector="; "monitor.io: port=0x" ]

let test_guest_mapping_monitor_frame_denied () =
  (* Guest page tables that point a virtual page at a monitor frame must
     not take effect. *)
  let m, mon = fresh () in
  let mem = Machine.mem m in
  let layout = Monitor.layout mon in
  let pd = 0x100000 and pt = 0x101000 in
  Phys_mem.write_u32 mem pd (Mmu.make_pte ~frame:pt ~writable:true ~user:false);
  for i = 0 to 511 do
    Phys_mem.write_u32 mem
      (pt + (4 * i))
      (Mmu.make_pte ~frame:(i * 4096) ~writable:true ~user:false)
  done;
  (* evil: map virtual 0x00200000 at the monitor base *)
  Phys_mem.write_u32 mem (pd + 4)
    (Mmu.make_pte ~frame:pt ~writable:true ~user:false);
  Phys_mem.write_u32 mem pt
    (Mmu.make_pte ~frame:0 ~writable:true ~user:false);
  let pt2_index = Mmu.table_index 0x00200000 in
  Phys_mem.write_u32 mem
    (pt + (4 * pt2_index))
    (Mmu.make_pte ~frame:layout.Vm_layout.monitor_base ~writable:true ~user:false);
  Phys_mem.write_u32 mem
    (layout.Vm_layout.monitor_base + 0x40)
    0x0C0FFEE0;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm pd);
  Asm.lptb a 1;
  Asm.movi a 2 (Asm.imm 0x00200000);
  Asm.movi a 3 (Asm.imm 0xBADBAD);
  Asm.st a 2 0x40 3;
  Asm.vmcall a (Asm.imm 2);
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  run_seconds m 0.01;
  check int "monitor frame untouched" 0x0C0FFEE0
    (Phys_mem.read_u32 mem (layout.Vm_layout.monitor_base + 0x40));
  check bool "guest stopped (no handler)" true (Cpu.stopped (Machine.cpu m))

let test_user_app_cannot_touch_kernel_memory () =
  (* Full three-level stack: the monitor protects itself from the guest
     kernel, and the guest kernel protects itself from its application.
     An app-level wild store must arrive at the guest kernel's #PF
     handler, not corrupt kernel data and not involve an escalation. *)
  let m, mon = fresh () in
  let mem = Machine.mem m in
  (* guest page tables: 2 MiB identity; page 0x9000 is user (app code +
     stack), everything else supervisor *)
  let pd = 0x100000 and pt = 0x101000 in
  Phys_mem.write_u32 mem pd (Mmu.make_pte ~frame:pt ~writable:true ~user:true);
  for i = 0 to 511 do
    Phys_mem.write_u32 mem
      (pt + (4 * i))
      (Mmu.make_pte ~frame:(i * 4096) ~writable:true ~user:(i = 9))
  done;
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.lbl "iht");
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0x8000);
  Asm.lstk a 0 1;
  Asm.movi a 1 (Asm.imm pd);
  Asm.lptb a 1;
  (* drop to ring 3 at the app page *)
  Asm.movi a 3 (Asm.imm 0x9800);
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0x3000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0x9000);
  Asm.push a 3;
  Asm.movi a 3 (Asm.imm 0);
  Asm.push a 3;
  Asm.iret a;
  Asm.label a "pf_handler";
  Asm.ld a 5 Isa.sp 0 (* faulting address from the error slot *);
  Asm.vmcall a (Asm.imm 2);
  emit_iht a ~label:"iht" ~gates:[ (Isa.vec_page_fault, ("pf_handler", 0, 0)) ];
  let p = Asm.assemble a in
  Monitor.boot_guest mon p ~entry:0x1000;
  (* the application: store into kernel data at 0x2000, then spin *)
  let app = Asm.create ~origin:0x9000 () in
  Asm.movi app 1 (Asm.imm 0x2000);
  Asm.movi app 2 (Asm.imm 0xEF11);
  Asm.st app 1 0 2;
  Asm.label app "app_spin";
  Asm.jmp app (Asm.lbl "app_spin");
  Asm.load (Asm.assemble app) mem;
  Phys_mem.write_u32 mem 0x2000 0x0C0DE;
  run_seconds m 0.01;
  check bool "guest kernel caught the app" true (Monitor.shutdown_requested mon);
  check int "fault address delivered" 0x2000 (reg m 5);
  check int "kernel data intact" 0x0C0DE (Phys_mem.read_u32 mem 0x2000);
  check int "no monitor escalation" 0 (Monitor.stats mon).Monitor.escalations

(* -- Remote debugging over the wire -- *)

type host = {
  send : string -> unit;
  decoder : Packet.decoder;
  inbox : Packet.event Queue.t;
}

let attach_host m =
  let uart = Machine.uart m in
  let decoder = Packet.decoder () in
  let inbox = Queue.create () in
  Uart.set_on_tx uart (fun b ->
      match Packet.feed decoder b with
      | Some e -> Queue.add e inbox
      | None -> ());
  let send s = String.iter (fun c -> Uart.inject_rx uart (Char.code c)) s in
  { send; decoder; inbox }

let send_command host cmd =
  host.send (Packet.frame (Command.command_to_wire cmd))

let rec next_reply ?(tries = 200) m host =
  match Queue.take_opt host.inbox with
  | Some (Packet.Packet p) -> Command.reply_of_wire p
  | Some (Packet.Ack | Packet.Nak | Packet.Bad_checksum) ->
    next_reply ~tries m host
  | None ->
    if tries = 0 then None
    else begin
      Machine.run_seconds m 0.002;
      next_reply ~tries:(tries - 1) m host
    end

(* A guest that idles on the virtual timer and counts ticks in r7;
   "work_marker" labels the instruction the tests breakpoint. *)
let idle_guest () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x20000);
  Asm.movi a 1 (Asm.lbl "iht");
  Asm.liht a 1;
  Asm.movi a 2 (Asm.imm 20000);
  Asm.outi a (Asm.imm Machine.Ports.pit) 2;
  Asm.movi a 2 (Asm.imm 0);
  Asm.outi a (Asm.imm (Machine.Ports.pit + 1)) 2;
  Asm.movi a 2 (Asm.imm 1);
  Asm.outi a (Asm.imm (Machine.Ports.pit + 2)) 2;
  Asm.movi a 7 (Asm.imm 0);
  Asm.sti a;
  Asm.label a "idle";
  Asm.hlt a;
  Asm.jmp a (Asm.lbl "idle");
  Asm.label a "timer_handler";
  Asm.label a "work_marker";
  Asm.addi a 7 7 (Asm.imm 1);
  Asm.movi a 2 (Asm.imm 0x20);
  Asm.outi a (Asm.imm Machine.Ports.pic) 2;
  Asm.iret a;
  emit_iht a ~label:"iht"
    ~gates:[ (Isa.vec_irq_base_default + Machine.Irq.timer, ("timer_handler", 0, 0)) ];
  Asm.assemble a

(* -- Device DMA stays inside guest memory -- *)

(* A ring-0 guest that spins until the host sets the word at [dma_go],
   then issues each 512-byte SCSI command [(cmd, lba, dma)] on target 0
   in turn, polls until it completes or errors, leaves the status in
   r5, r6, ... and acknowledges it; then it spins. *)
let dma_go = 0x8000

let scsi_dma_guest cmds =
  let scsi = Machine.Ports.scsi in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm dma_go);
  Asm.label a "wait";
  Asm.ld a 2 1 0;
  Asm.cmpi a 2 (Asm.imm 0);
  Asm.jz a (Asm.lbl "wait");
  List.iteri
    (fun i (cmd, lba, dma) ->
      let port k v =
        Asm.movi a 2 (Asm.imm v);
        Asm.outi a (Asm.imm (scsi + k)) 2
      in
      port 0 0;
      port 1 lba;
      port 2 512;
      port 3 dma;
      port 4 cmd;
      let poll = Printf.sprintf "poll%d" i in
      Asm.label a poll;
      Asm.ini a (5 + i) (Asm.imm (scsi + 5));
      Asm.movi a 3 (Asm.imm 0x80000001);
      Asm.and_ a 3 (5 + i) 3;
      Asm.cmpi a 3 (Asm.imm 0);
      Asm.jz a (Asm.lbl poll);
      port 6 0)
    cmds;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.assemble a

(* Run [scsi_dma_guest cmds] under the monitor with monitor-private
   memory marked 0xA5, and check that nothing from [monitor_base] up —
   private memory and the shadow arena — changes once the guest's
   commands go out, and that the stub still answers [g]. *)
let run_scsi_dma_guest cmds =
  let m, mon = fresh () in
  let mem = Machine.mem m in
  let base = (Monitor.layout mon).Vm_layout.monitor_base in
  Phys_mem.fill mem ~addr:base ~len:512 0xA5;
  let monitor_mem () =
    Phys_mem.read_bytes mem ~addr:base ~len:(Phys_mem.size mem - base)
  in
  let host = attach_host m in
  Monitor.boot_guest mon (scsi_dma_guest cmds) ~entry:0x1000;
  run_seconds m 0.002;
  let before = monitor_mem () in
  Phys_mem.write_u32 mem dma_go 1;
  run_seconds m 0.02;
  check bool "monitor memory and shadow arena unchanged" true
    (Bytes.equal before (monitor_mem ()));
  send_command host Command.Read_registers;
  (match next_reply m host with
   | Some (Command.Registers _) -> ()
   | _ -> Alcotest.fail "stub did not answer g");
  m

let refused = 1 lsl 31

let test_scsi_dma_past_ram_refused () =
  List.iter
    (fun dma ->
      let m = run_scsi_dma_guest [ (1, 0, dma) ] in
      check int (Printf.sprintf "read to 0x%x refused" dma) refused
        (reg m 5 land refused))
    [ 0x1000000; 0xFFFF0000 ]

let test_scsi_dma_into_monitor_refused () =
  let layout = Vm_layout.default ~mem_size:(16 * 1024 * 1024) in
  List.iter
    (fun dma ->
      let m = run_scsi_dma_guest [ (1, 0, dma) ] in
      check int (Printf.sprintf "read to 0x%x refused" dma) refused
        (reg m 5 land refused))
    [ layout.Vm_layout.monitor_base; layout.Vm_layout.shadow_base ]

(* A write from monitor memory would put monitor bytes on the disk,
   where the guest could read them back. *)
let test_scsi_write_from_monitor_refused () =
  let layout = Vm_layout.default ~mem_size:(16 * 1024 * 1024) in
  let m =
    run_scsi_dma_guest
      [ (2, 10, layout.Vm_layout.monitor_base); (1, 10, 0x30000) ]
  in
  check int "write refused" refused (reg m 5 land refused);
  check int "read-back completed" 1 (reg m 6 land (refused lor 1));
  let mem = Machine.mem m in
  for i = 0 to 511 do
    if
      Phys_mem.read_u8 mem (0x30000 + i)
      <> Vmm_hw.Scsi.pattern_byte ~target:0 ~offset:((10 * 512) + i)
    then Alcotest.failf "read-back byte %d is not the disk's own" i
  done

let test_stub_read_registers_while_running () =
  let m, mon = fresh () in
  let host = attach_host m in
  Monitor.boot_guest mon (idle_guest ()) ~entry:0x1000;
  Machine.run_seconds m 0.01 (* guest settles into its tick loop *);
  send_command host Command.Read_registers;
  (match next_reply m host with
   | Some (Command.Registers regs) ->
     check int "18 registers" 18 (Array.length regs);
     check int "r7 mirrors guest state" (reg m 7) regs.(7)
   | _ -> Alcotest.fail "expected register dump");
  (* the guest kept running while being inspected *)
  let ticks_before = reg m 7 in
  Machine.run_seconds m 0.05;
  check bool "guest still live" true (reg m 7 > ticks_before)

let test_stub_memory_round_trip () =
  let m, mon = fresh () in
  let host = attach_host m in
  Monitor.boot_guest mon (idle_guest ()) ~entry:0x1000;
  Machine.run_seconds m 0.005;
  send_command host (Command.Write_memory { addr = 0x18000; data = "\x01\x02\x03\x04" });
  (match next_reply m host with
   | Some Command.Ok_reply -> ()
   | _ -> Alcotest.fail "expected OK");
  send_command host (Command.Read_memory { addr = 0x18000; len = 4 });
  match next_reply m host with
  | Some (Command.Memory data) -> check Alcotest.string "data" "\x01\x02\x03\x04" data
  | _ -> Alcotest.fail "expected memory"

let test_stub_breakpoint_cycle () =
  let m, mon = fresh () in
  let host = attach_host m in
  let p = idle_guest () in
  Monitor.boot_guest mon p ~entry:0x1000;
  Machine.run_seconds m 0.005;
  let marker = Asm.symbol p "work_marker" in
  send_command host (Command.Insert_breakpoint marker);
  (match next_reply m host with
   | Some Command.Ok_reply -> ()
   | _ -> Alcotest.fail "expected OK for Z0");
  (* next timer tick runs into the breakpoint *)
  (match next_reply m host with
   | Some (Command.Stopped (Command.Break addr)) ->
     check int "stopped at marker" marker addr;
     check int "pc at marker" marker (Cpu.pc (Machine.cpu m))
   | _ -> Alcotest.fail "expected break notification");
  let ticks = reg m 7 in
  (* memory read at the breakpoint must show the guest's own bytes *)
  send_command host (Command.Read_memory { addr = marker; len = Isa.width });
  (match next_reply m host with
   | Some (Command.Memory data) ->
     let original = Isa.decode ~addr:marker (Bytes.of_string data) ~off:0 in
     check bool "text untouched" true (original = Isa.Addi (7, 7, 1))
   | _ -> Alcotest.fail "expected memory");
  (* single step: executes the addi *)
  send_command host Command.Step;
  (match next_reply m host with
   | Some Command.Ok_reply -> ()
   | _ -> Alcotest.fail "expected step ack");
  (match next_reply m host with
   | Some (Command.Stopped (Command.Step_done addr)) ->
     check int "stepped past" (marker + Isa.width) addr;
     check int "tick counted by step" (ticks + 1) (reg m 7)
   | _ -> Alcotest.fail "expected step notification");
  (* continue: must hit the breakpoint again on the next tick *)
  send_command host Command.Continue;
  (match next_reply m host with
   | Some Command.Ok_reply -> ()
   | _ -> Alcotest.fail "expected continue ack");
  (match next_reply m host with
   | Some (Command.Stopped (Command.Break addr)) ->
     check int "hit again" marker addr
   | _ -> Alcotest.fail "expected second break");
  (* remove and continue: guest ticks freely again *)
  send_command host (Command.Remove_breakpoint marker);
  (match next_reply m host with
   | Some Command.Ok_reply -> ()
   | _ -> Alcotest.fail "expected OK for z0");
  send_command host Command.Continue;
  Machine.run_seconds m 0.1;
  check bool "guest running freely" true (reg m 7 > ticks + 3)

let test_stub_halt_and_query () =
  let m, mon = fresh () in
  let host = attach_host m in
  Monitor.boot_guest mon (idle_guest ()) ~entry:0x1000;
  Machine.run_seconds m 0.005;
  send_command host Command.Query_stop;
  (match next_reply m host with
   | Some Command.Running -> ()
   | _ -> Alcotest.fail "expected running");
  send_command host Command.Halt;
  (match next_reply m host with
   | Some (Command.Stopped (Command.Halt_requested _)) -> ()
   | _ -> Alcotest.fail "expected halt notification");
  check bool "guest frozen" true (Cpu.stopped (Machine.cpu m));
  let ticks = reg m 7 in
  Machine.run_seconds m 0.1;
  check int "no progress while stopped" ticks (reg m 7);
  send_command host Command.Continue;
  Machine.run_seconds m 0.1;
  check bool "resumed" true (reg m 7 > ticks)

let test_stub_survives_guest_crash () =
  (* The key claim: after the guest destroys itself, the debugger still
     reads memory and registers. *)
  let m, mon = fresh () in
  let host = attach_host m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 0xFFFFF000) (* unmapped, beyond guest memory *);
  Asm.jr a 1 (* jump into the void: fetch fault, no handler *);
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  Machine.run_seconds m 0.01;
  (match next_reply m host with
   | Some (Command.Stopped (Command.Faulted _)) -> ()
   | _ -> Alcotest.fail "expected crash notification");
  send_command host (Command.Read_memory { addr = 0x1000; len = 8 });
  match next_reply m host with
  | Some (Command.Memory data) -> check int "still serving" Isa.width (String.length data)
  | _ -> Alcotest.fail "debugger died with the guest"

let test_stub_nak_and_retransmission () =
  (* Direction 1: a corrupted command makes the stub NAK.  Direction 2: a
     host NAK makes the stub retransmit its last reply verbatim. *)
  let m, mon = fresh () in
  Monitor.boot_guest mon (idle_guest ()) ~entry:0x1000;
  Machine.run_seconds m 0.005;
  let host = attach_host m in
  (* corrupt the checksum of a well-formed command *)
  let good = Packet.frame (Command.command_to_wire Command.Read_registers) in
  let bad = Bytes.of_string good in
  Bytes.set bad (Bytes.length bad - 1) '0';
  Bytes.set bad (Bytes.length bad - 2) '0';
  host.send (Bytes.to_string bad);
  Machine.run_seconds m 0.05;
  (match Queue.take_opt host.inbox with
   | Some Packet.Nak -> ()
   | _ -> Alcotest.fail "expected NAK for corrupted command");
  (* now a good exchange *)
  send_command host Command.Read_registers;
  let first =
    match next_reply m host with
    | Some (Command.Registers regs) -> regs
    | _ -> Alcotest.fail "expected registers"
  in
  (* pretend the reply was corrupted: NAK it; the stub must resend *)
  host.send "-";
  Machine.run_seconds m 0.05;
  let second =
    match next_reply m host with
    | Some (Command.Registers regs) -> regs
    | _ -> Alcotest.fail "expected retransmitted registers"
  in
  check bool "identical retransmission" true (first = second);
  check bool "stub counted it" true
    (Core.Stub.retransmissions (Monitor.stub mon) >= 1)

let test_monitor_trace_records_events () =
  let m, mon = fresh () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 0xFFFFF000);
  Asm.jr a 1;
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  run_seconds m 0.01;
  let records = Flight.find (Machine.trace m) ~kind:"monitor" in
  check bool "boot recorded" true
    (List.exists (fun r -> r.Flight.severity = Flight.Info) records);
  check bool "escalation recorded" true
    (List.exists (fun r -> r.Flight.severity = Flight.Error) records)

(* Random guest code: raw bytes, or a soup from the 48-constructor
   instruction generator.  It runs at [code_base], on a page of its own. *)
type guest_code = Raw of string | Soup of Isa.instr list

let code_base = 0x1000

let guest_code_arbitrary =
  let open QCheck in
  let raw =
    Gen.(map (fun s -> Raw s) (string_size ~gen:(map Char.chr (0 -- 255)) (512 -- 2048)))
  in
  (* Jump targets, and most other immediates, are instruction boundaries
     near the start of the code page, so soups branch, loop and store
     over their own text; some immediates alias that page at 1 MiB
     strides, so data accesses evict its direct-mapped TLB entry.
     Straight-line instructions are weighted up so blocks run long
     enough to chain. *)
  let near_text = Gen.map (fun k -> code_base + (Isa.width * k)) (Gen.int_bound 127) in
  let alias = Gen.map2 (fun j a -> (j lsl 20) + a) (Gen.int_range 1 4) near_text in
  let imm = Gen.frequency [ (6, near_text); (1, alias); (1, Isa_gen.imm_gen) ] in
  (* A guest BRK hands the machine to the debugger for good, which would
     end the run; raw bytes still plant it. *)
  let no_brk = List.map (function Isa.Brk -> Isa.Nop | i -> i) in
  let soup =
    Gen.map
      (fun l -> Soup (no_brk l))
      (Isa_gen.soup_gen ~target:near_text ~straight:6 ~imm ~lo:16 ~hi:128 ())
  in
  let print (code, ring, seed) =
    Printf.sprintf "ring %d, seed %d: %s" ring seed
      (match code with
       | Raw s -> "raw " ^ String.escaped s
       | Soup l -> Isa_gen.print_soup l)
  in
  make ~print
    Gen.(triple (oneof [ raw; soup ]) (frequency [ (3, return 3); (1, return 0) ])
           (int_bound 1_000_000))

(* Boot [code] as a guest behind a harness that survives its faults: an
   interrupt table whose every gate enters ring 0 on a fixed stack, a
   periodic virtual timer, then an IRET into the code at virtual [ring]
   with IF on.  Exception gates resume one instruction past the trapping
   pc (at the code's start if that leaves the code page); IRQ gates
   acknowledge the PIC, clobbering r13, and resume where they hit.  At
   ring 3 the harness survives any stack pointer the code makes up and
   privileged instructions are skipped; at ring 0 the monitor emulates
   them.  The rest of the code page jumps back to its start, so the code
   loops.  Arm a seeded fault-plan schedule (IRQ storm, SCSI read errors,
   NIC stall, wild store) plus a DMA-style write of the code's second
   half over its first, and run 2 ms in four slices.  Returns the
   retirement count, clock and busy cycles after each slice, the final
   [Snapshot.Full] digest and the pc samples, whether monitor-private
   memory came through untouched, and whether the stub still answers. *)
let run_random_guest ~jit ~ring ~seed code =
  (* Cheap world switches: random code faults every few instructions, and
     at the default cost faults would leave little time for the code. *)
  let costs = { test_costs with Costs.world_switch = 500 } in
  let m = Machine.create ~mem_size:(8 * 1024 * 1024) ~costs () in
  let cpu = Machine.cpu m in
  Cpu.set_jit_enabled cpu jit;
  let mon = Monitor.install m in
  let image =
    match code with Raw s -> Bytes.of_string s | Soup l -> Isa_gen.encode_soup l
  in
  let a = Asm.create ~origin:0 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.lbl "iht");
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0x8000);
  Asm.lstk a 0 1;
  (* virtual PIT: periodic, 200 input ticks *)
  List.iter
    (fun (port, v) ->
      Asm.movi a 1 (Asm.imm v);
      Asm.outi a (Asm.imm port) 1)
    Machine.Ports.[ (pit, 200); (pit + 1, 0); (pit + 2, 1) ];
  List.iter
    (fun v ->
      Asm.movi a 1 (Asm.imm v);
      Asm.push a 1)
    [ 0x7000; 0x200 lor (ring lsl 12); code_base; 0 ];
  Asm.iret a;
  Asm.label a "resume";
  Asm.ld a 13 Isa.sp 4;
  Asm.addi a 13 13 (Asm.imm (Isa.width - code_base));
  Asm.cmpi a 13 (Asm.imm Mmu.page_size);
  Asm.jb a (Asm.lbl "on_page");
  Asm.movi a 13 (Asm.imm 0);
  Asm.label a "on_page";
  Asm.addi a 13 13 (Asm.imm code_base);
  Asm.st a Isa.sp 4 13;
  Asm.iret a;
  Asm.label a "irq";
  Asm.movi a 13 (Asm.imm 0x20);
  Asm.outi a (Asm.imm Machine.Ports.pic) 13 (* EOI to virtual PIC *);
  Asm.iret a;
  emit_iht a ~label:"iht"
    ~gates:
      (List.init 64 (fun v ->
           (v, ((if v < Isa.vec_irq_base_default then "resume" else "irq"), 0, 3))));
  Asm.space a (code_base - Asm.here a);
  Asm.bytes a image;
  Asm.align a Isa.width;
  while Asm.here a < code_base + Mmu.page_size do
    Asm.jmp a (Asm.imm code_base)
  done;
  let p = Asm.assemble a in
  Monitor.boot_guest mon p ~entry:0;
  (* Chains must stop on the same instruction boundaries as stepping, so
     a pc sampler every 997 cycles sees the same samples in both runs. *)
  let samples = ref [] in
  Cpu.set_sampling cpu ~period:997L ~hook:(fun ~pc ~cpl ->
      samples := (pc, cpl) :: !samples);
  let layout = Monitor.layout mon in
  let private_mem () =
    Phys_mem.read_bytes (Machine.mem m) ~addr:layout.Vm_layout.monitor_base
      ~len:(layout.Vm_layout.shadow_base - layout.Vm_layout.monitor_base)
  in
  let before = private_mem () in
  let engine = Machine.engine m in
  let at k = Int64.add (Machine.now m) (Int64.of_int (k * 150_000)) in
  let plan = Vmm_fault.Plan.create ~seed:(Int64.of_int seed) ~engine in
  List.iteri
    (fun k cls ->
      Vmm_fault.Plan.arm plan ~monitor:mon cls ~at:(at (k + 1)) ~until:(at (k + 2)))
    Vmm_fault.Plan.[ Guest_irq_storm; Scsi_error; Nic_stall; Guest_wild_store ];
  let half = Bytes.length image / 2 in
  ignore
    (Vmm_sim.Engine.at engine ~time:(at 2) (fun () ->
         Phys_mem.load_bytes (Machine.mem m) ~addr:code_base
           (Bytes.sub image half (Bytes.length image - half))));
  let slice () =
    (try Machine.run_seconds m 0.0005
     with exn ->
       QCheck.Test.fail_reportf "monitor raised %s" (Printexc.to_string exn));
    ( Cpu.instructions_retired cpu,
      Machine.now m,
      Vmm_sim.Stats.busy_cycles (Machine.load m) )
  in
  let slices = List.init 4 (fun _ -> slice ()) in
  let digest = Core.Snapshot.Full.digest (Monitor.checkpoint_now mon) in
  let untouched = Bytes.equal before (private_mem ()) in
  let host = attach_host m in
  send_command host Command.Read_registers;
  let answers =
    match next_reply ~tries:100 m host with
    | Some (Command.Registers _) -> true
    | _ -> false
  in
  ((slices, digest, !samples), untouched, answers)

let test_monitor_survives_random_guest_code =
  (* The paper's stability claim and the single instruction semantics:
     random guest code never takes the monitor down, never touches
     monitor-private memory and leaves the stub answering — and block
     chaining on or off gives the same retirement counts, clock and busy
     cycles at every slice, the same pc samples and the same final
     digest. *)
  QCheck.Test.make ~name:"monitor survives random guest code" ~count:40
    guest_code_arbitrary (fun (code, ring, seed) ->
      let run jit = run_random_guest ~jit ~ring ~seed code in
      let on, untouched_on, answers_on = run true in
      let off, untouched_off, answers_off = run false in
      if not (untouched_on && untouched_off) then
        QCheck.Test.fail_report "monitor-private memory changed"
      else if not (answers_on && answers_off) then
        QCheck.Test.fail_report "stub unresponsive after fuzzed guest"
      else if on <> off then
        QCheck.Test.fail_report "block chaining changed the machine state"
      else true)

(* -- Breakpoints table unit tests -- *)

let test_breakpoints_table () =
  let b = Breakpoints.create () in
  check bool "add" true (Breakpoints.add b ~addr:0x100);
  check bool "no dup" false (Breakpoints.add b ~addr:0x100);
  check bool "mem" true (Breakpoints.mem b ~addr:0x100);
  ignore (Breakpoints.add b ~addr:0x50);
  check (Alcotest.list int) "sorted" [ 0x50; 0x100 ] (Breakpoints.addresses b);
  check bool "remove" true (Breakpoints.remove b ~addr:0x100);
  check bool "remove absent" false (Breakpoints.remove b ~addr:0x100);
  check int "count" 1 (Breakpoints.count b);
  check (Alcotest.list int) "clear returns armed" [ 0x50 ] (Breakpoints.clear b);
  check int "empty" 0 (Breakpoints.count b)

let test_watchpoints_table () =
  let w = Core.Watchpoints.create () in
  check bool "add" true (Core.Watchpoints.add w ~addr:0x1000 ~len:8);
  check bool "dup" false (Core.Watchpoints.add w ~addr:0x1000 ~len:8);
  check bool "hit inside" true (Core.Watchpoints.hit w 0x1004 <> None);
  check bool "miss outside" true (Core.Watchpoints.hit w 0x1008 = None);
  check bool "page watched" true (Core.Watchpoints.page_watched w 0x1000);
  check bool "other page" false (Core.Watchpoints.page_watched w 0x2000);
  check (Alcotest.list int) "pages spanning" [ 0x1000; 0x2000 ]
    (Core.Watchpoints.pages_of ~addr:0x1FFE ~len:4);
  check bool "remove" true (Core.Watchpoints.remove w ~addr:0x1000 ~len:8);
  check bool "remove twice" false (Core.Watchpoints.remove w ~addr:0x1000 ~len:8);
  check int "count" 0 (Core.Watchpoints.count w);
  Alcotest.check_raises "bad len" (Invalid_argument "Watchpoints.add: len <= 0")
    (fun () -> ignore (Core.Watchpoints.add w ~addr:0 ~len:0))

let test_vm_layout () =
  let l = Vm_layout.default ~mem_size:(16 * 1024 * 1024) in
  check bool "guest owns low" true (Vm_layout.guest_owns l 0);
  check bool "monitor owns top" false (Vm_layout.guest_owns l (16 * 1024 * 1024 - 1));
  check bool "range check straddling" false
    (Vm_layout.guest_range_ok l ~addr:(l.Vm_layout.monitor_base - 8) ~len:16);
  Alcotest.check_raises "too small" (Invalid_argument "Vm_layout.default: memory < 8 MiB")
    (fun () -> ignore (Vm_layout.default ~mem_size:(4 * 1024 * 1024)))

let test_shadow_unit () =
  let mem = Phys_mem.create ~size:(16 * 1024 * 1024) in
  let layout = Vm_layout.default ~mem_size:(16 * 1024 * 1024) in
  let s = Shadow.create ~mem ~layout () in
  Shadow.map s ~vaddr:0x5000 ~frame:0x9000 ~writable:true ~user:false;
  check int "one mapping" 1 (Shadow.mappings s);
  (match Mmu.probe mem ~ptb:(Shadow.root s) 0x5000 with
   | Some pte -> check int "frame" 0x9000 (Mmu.frame_of pte)
   | None -> Alcotest.fail "expected shadow mapping");
  Shadow.unmap s ~vaddr:0x5000;
  check int "unmapped" 0 (Shadow.mappings s);
  Shadow.map s ~vaddr:0x5000 ~frame:0x9000 ~writable:true ~user:false;
  Shadow.clear s;
  check int "cleared" 0 (Shadow.mappings s);
  check bool "probe empty after clear" true
    (Mmu.probe mem ~ptb:(Shadow.root s) 0x5000 = None)

let () =
  Alcotest.run "core (lightweight VMM)"
    [
      ( "execution",
        [
          Alcotest.test_case "deprivileged guest" `Quick test_guest_runs_deprivileged;
          Alcotest.test_case "sti/cli emulation" `Quick test_sti_cli_emulated;
          Alcotest.test_case "hypercall console" `Quick test_hypercall_console;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "virtual timer reflection" `Quick
            test_virtual_timer_reflection;
        ] );
      ( "devices",
        [
          Alcotest.test_case "nic pass-through" `Quick test_nic_passthrough_direct;
          Alcotest.test_case "pit traps" `Quick test_non_passthrough_port_traps;
        ] );
      ( "protection",
        [
          Alcotest.test_case "monitor memory unreachable" `Quick
            test_monitor_memory_unreachable;
          Alcotest.test_case "guest #PF reflected" `Quick
            test_guest_page_fault_reflected;
          Alcotest.test_case "guest paging via shadow" `Quick
            test_guest_paging_via_shadow;
          Alcotest.test_case "evil mapping denied" `Quick
            test_guest_mapping_monitor_frame_denied;
          Alcotest.test_case "three-level protection" `Quick
            test_user_app_cannot_touch_kernel_memory;
          Alcotest.test_case "reflected frame straddles a page" `Quick
            test_reflect_frame_straddles_page;
          Alcotest.test_case "reflect onto unmapped stack" `Quick
            test_reflect_onto_unmapped_stack;
          Alcotest.test_case "reflected frame over text refetched" `Quick
            test_reflect_frame_over_text_refetched;
          Alcotest.test_case "scsi dma past RAM refused" `Quick
            test_scsi_dma_past_ram_refused;
          Alcotest.test_case "scsi dma into monitor memory refused" `Quick
            test_scsi_dma_into_monitor_refused;
          Alcotest.test_case "scsi write from monitor memory refused" `Quick
            test_scsi_write_from_monitor_refused;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "compute guest allocation" `Quick
            test_compute_guest_allocation;
          Alcotest.test_case "stream guest allocation" `Quick
            test_stream_guest_allocation;
          Alcotest.test_case "stream guest counters" `Quick
            test_stream_guest_counters;
          Alcotest.test_case "stream guest counters, profiled" `Quick
            test_stream_guest_counters_profiled;
        ] );
      ( "stub",
        [
          Alcotest.test_case "read regs while running" `Quick
            test_stub_read_registers_while_running;
          Alcotest.test_case "memory round trip" `Quick test_stub_memory_round_trip;
          Alcotest.test_case "breakpoint cycle" `Quick test_stub_breakpoint_cycle;
          Alcotest.test_case "halt/query/resume" `Quick test_stub_halt_and_query;
          Alcotest.test_case "survives guest crash" `Quick
            test_stub_survives_guest_crash;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "monitor trace" `Quick
            test_monitor_trace_records_events;
          Alcotest.test_case "flight shows monitor activity" `Quick
            test_flight_report_monitor_activity;
          Alcotest.test_case "nak + retransmission" `Quick
            test_stub_nak_and_retransmission;
          QCheck_alcotest.to_alcotest test_monitor_survives_random_guest_code;
        ] );
      ( "units",
        [
          Alcotest.test_case "breakpoints table" `Quick test_breakpoints_table;
          Alcotest.test_case "watchpoints table" `Quick test_watchpoints_table;
          Alcotest.test_case "vm layout" `Quick test_vm_layout;
          Alcotest.test_case "shadow tables" `Quick test_shadow_unit;
        ] );
    ]
