(* Tests for the comparison environments: the hosted full VMM, the
   embedded in-OS debugger (fate-sharing) and the hardware-simulator
   model. *)

module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Asm = Vmm_hw.Asm
module Nic = Vmm_hw.Nic
module Uart = Vmm_hw.Uart
module Phys_mem = Vmm_hw.Phys_mem
module Packet = Vmm_proto.Packet
module Command = Vmm_proto.Command
module Full_vmm = Vmm_baseline.Full_vmm
module Embedded_debugger = Vmm_baseline.Embedded_debugger
module Hw_simulator = Vmm_baseline.Hw_simulator
module Kernel = Vmm_guest.Kernel

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let fresh () = Machine.create ~mem_size:(16 * 1024 * 1024) ()

(* -- Full VMM -- *)

let test_full_vmm_runs_guest () =
  let m = fresh () in
  let vmm = Full_vmm.install m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 20);
  Asm.addi a 2 1 (Asm.imm 22);
  Asm.vmcall a (Asm.imm 2);
  Full_vmm.boot_guest vmm (Asm.assemble a) ~entry:0x1000;
  Machine.run_seconds m 0.001;
  check int "computed" 42 (Cpu.read_reg (Machine.cpu m) 2);
  check bool "shutdown seen" true (Full_vmm.shutdown_requested vmm)

let test_full_vmm_no_passthrough () =
  (* A NIC doorbell under the full VMM must go through the host: device
     forwards and host switches both climb, and the frame still lands. *)
  let m = fresh () in
  let vmm = Full_vmm.install m in
  let frames = ref 0 in
  Nic.set_on_frame (Machine.nic m) (fun _ -> incr frames);
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 0x30000);
  Asm.outi a (Asm.imm Machine.Ports.nic) 1;
  Asm.movi a 1 (Asm.imm 128);
  Asm.outi a (Asm.imm (Machine.Ports.nic + 1)) 1;
  Asm.movi a 1 (Asm.imm 1);
  Asm.outi a (Asm.imm (Machine.Ports.nic + 2)) 1;
  Asm.vmcall a (Asm.imm 2);
  Full_vmm.boot_guest vmm (Asm.assemble a) ~entry:0x1000;
  Machine.run_seconds m 0.002;
  check int "frame delivered" 1 !frames;
  let stats = Full_vmm.stats vmm in
  check bool "forwards counted" true (stats.Full_vmm.device_forwards >= 3);
  check bool "host switches counted" true (stats.Full_vmm.host_switches >= 3);
  check int "one packet forwarded" 1 stats.Full_vmm.packets_forwarded;
  check int "bounce bytes" 128 stats.Full_vmm.bytes_copied

let test_full_vmm_workload () =
  (* The full guest kernel must run unmodified under the full VMM, just
     slower. *)
  let m = fresh () in
  let vmm = Full_vmm.install m in
  let config = Kernel.default_config ~rate_mbps:20.0 in
  let program = Kernel.build config in
  Full_vmm.boot_guest vmm program ~entry:Kernel.entry;
  Machine.run_seconds m 0.1;
  let counters = Kernel.read_counters (Machine.mem m) program in
  check bool "frames flowed" true (counters.Kernel.frames_sent > 50);
  let stats = Full_vmm.stats vmm in
  check bool "irqs reflected" true (stats.Full_vmm.reflected_irqs > 0);
  check bool "disk transfers through host" true
    (stats.Full_vmm.disk_transfers_forwarded > 0)

let test_full_vmm_user_mode_guest () =
  (* The ring-3 variant of the workload also runs under the hosted VMM
     (albeit expensively): frames flow at a gentle rate. *)
  let m = fresh () in
  let vmm = Full_vmm.install m in
  let config =
    { (Kernel.default_config ~rate_mbps:10.0) with Kernel.user_mode = true }
  in
  let program = Kernel.build config in
  Full_vmm.boot_guest vmm program ~entry:Kernel.entry;
  Machine.run_seconds m 0.15;
  let counters = Kernel.read_counters (Machine.mem m) program in
  check bool "frames flowed at ring 3" true (counters.Kernel.frames_sent > 40)

let test_full_vmm_parks_crashed_guest () =
  let m = fresh () in
  let vmm = Full_vmm.install m in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 0xFFFFF000);
  Asm.jr a 1 (* jump into unmapped space, no handler *);
  Full_vmm.boot_guest vmm (Asm.assemble a) ~entry:0x1000;
  Machine.run_seconds m 0.01;
  check bool "guest parked" true (Cpu.stopped (Machine.cpu m))

(* -- Transparency: bare hardware vs lightweight VMM vs hosted VMM --

   One program, three systems: run on the bare machine, under the
   lightweight monitor and under the hosted VMM, a guest must end with
   the same general registers and the same halt state.  The interrupt
   table lives in the image so every system sees the same gates. *)

module Monitor = Core.Monitor
module Isa = Vmm_hw.Isa

(* 64 gates at label [iht]; [gates] maps vector -> (label, ring, dpl). *)
let emit_iht a ~gates =
  Asm.align a 8;
  Asm.label a "iht";
  for v = 0 to 63 do
    match List.assoc_opt v gates with
    | Some (target, ring, dpl) ->
      Asm.word a (Asm.lbl target);
      Asm.word a (Asm.imm (Isa.gate_info ~ring ~dpl))
    | None ->
      Asm.word a (Asm.imm 0);
      Asm.word a (Asm.imm 0)
  done

(* Ring-0 preamble: stack at [sp], table loaded, ring-0 entry stack. *)
let setup a ~sp =
  Asm.movi a Isa.sp (Asm.imm sp);
  Asm.movi a 1 (Asm.lbl "iht");
  Asm.liht a 1;
  Asm.movi a 1 (Asm.imm 0x9000);
  Asm.lstk a 0 1

(* Drop to ring 3 at [user] on stack 0x7000 with an IRET frame. *)
let enter_ring3 a =
  List.iter
    (fun v ->
      Asm.movi a 3 v;
      Asm.push a 3)
    [ Asm.imm 0x7000; Asm.imm 0x3000; Asm.lbl "user"; Asm.imm 0 ];
  Asm.iret a

let final_state m ~halted =
  let cpu = Machine.cpu m in
  (List.init 16 (Cpu.read_reg cpu), halted)

let run_three program =
  let bare =
    let m = fresh () in
    Machine.boot m program ~entry:0x1000;
    ignore (Machine.run_until_halted m);
    final_state m ~halted:(Cpu.halted (Machine.cpu m))
  in
  let lightweight =
    let m = fresh () in
    let mon = Monitor.install m in
    Monitor.boot_guest mon program ~entry:0x1000;
    Machine.run_seconds m 0.001;
    ( final_state m ~halted:(Monitor.guest_halted mon),
      (Monitor.stats mon).Monitor.cpu_emulations )
  in
  let hosted =
    let m = fresh () in
    let vmm = Full_vmm.install m in
    Full_vmm.boot_guest vmm program ~entry:0x1000;
    Machine.run_seconds m 0.001;
    ( final_state m ~halted:(Full_vmm.guest_halted vmm),
      (Full_vmm.stats vmm).Full_vmm.cpu_emulations )
  in
  (bare, lightweight, hosted)

let machine_state = Alcotest.(pair (list int) bool)

(* Both monitors also count each software INT, like each privileged
   instruction they emulate, as a CPU emulation. *)
let check_transparent name program ~expect =
  let bare, (lightweight, mon_emulations), (hosted, vmm_emulations) =
    run_three program
  in
  expect bare;
  check machine_state (name ^ ": lightweight = bare") bare lightweight;
  check machine_state (name ^ ": hosted = bare") bare hosted;
  check int (name ^ ": equal cpu_emulations") mon_emulations vmm_emulations

let test_transparent_int_gate_dpl () =
  (* A ring-3 INT through a DPL-0 gate takes #GP, not the gate. *)
  let a = Asm.create ~origin:0x1000 () in
  setup a ~sp:0x8000;
  enter_ring3 a;
  Asm.label a "user";
  Asm.int_ a 48;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "gate";
  Asm.movi a 5 (Asm.imm 1);
  Asm.hlt a;
  Asm.label a "gp";
  Asm.movi a 5 (Asm.imm 2);
  Asm.hlt a;
  emit_iht a ~gates:[ (48, ("gate", 0, 0)); (Isa.vec_protection, ("gp", 0, 0)) ];
  check_transparent "dpl" (Asm.assemble a) ~expect:(fun (regs, halted) ->
      check int "#GP handler ran" 2 (List.nth regs 5);
      check bool "halted" true halted)

let test_transparent_straddling_frame () =
  (* The four-word frame of an INT at sp=0x70006 straddles a page. *)
  let a = Asm.create ~origin:0x1000 () in
  setup a ~sp:0x70006;
  Asm.int_ a 48;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "handler";
  Asm.mov a 6 Isa.sp;
  Asm.hlt a;
  emit_iht a ~gates:[ (48, ("handler", 0, 0)) ];
  check_transparent "straddle" (Asm.assemble a) ~expect:(fun (regs, halted) ->
      check int "frame delivered" 0x6FFF6 (List.nth regs 6);
      check bool "halted" true halted)

let test_transparent_iret_ring_switch () =
  (* Ring 3 traps to a ring-0 handler on the LSTK stack, IRETs back, then
     traps again to halt. *)
  let a = Asm.create ~origin:0x1000 () in
  setup a ~sp:0x8000;
  enter_ring3 a;
  Asm.label a "user";
  Asm.int_ a 48;
  Asm.addi a 2 2 (Asm.imm 100);
  Asm.mov a 7 Isa.sp;
  Asm.int_ a 49;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "bump";
  Asm.addi a 2 2 (Asm.imm 1);
  Asm.mov a 8 Isa.sp;
  Asm.iret a;
  Asm.label a "stop";
  Asm.mov a 6 Isa.sp;
  Asm.hlt a;
  emit_iht a ~gates:[ (48, ("bump", 0, 3)); (49, ("stop", 0, 3)) ];
  check_transparent "iret" (Asm.assemble a) ~expect:(fun (regs, halted) ->
      check int "handler then continuation" 101 (List.nth regs 2);
      check int "handler on the ring-0 stack" (0x9000 - 16) (List.nth regs 8);
      check int "user stack restored" 0x7000 (List.nth regs 7);
      check bool "halted" true halted)

(* -- Embedded debugger -- *)

let host_wire m =
  let received = Buffer.create 64 in
  Uart.set_on_tx (Machine.uart m) (fun b -> Buffer.add_char received (Char.chr b));
  let send s =
    String.iter (fun c -> Uart.inject_rx (Machine.uart m) (Char.code c)) s
  in
  (send, received)

let test_embedded_answers_when_healthy () =
  let m = fresh () in
  let dbg = Embedded_debugger.attach m ~region:0x80000 in
  let send, received = host_wire m in
  send (Packet.frame (Command.command_to_wire Command.Read_registers));
  let answered = Embedded_debugger.service dbg in
  ignore (Vmm_sim.Engine.run_until_idle (Machine.engine m));
  check int "one command answered" 1 answered;
  check bool "reply on wire" true (Buffer.length received > 0);
  check bool "alive" true (Embedded_debugger.alive dbg)

let test_embedded_dies_with_guest () =
  (* The definitive contrast with the monitor's stub: a wild store over
     the agent's region silences it permanently. *)
  let m = fresh () in
  let dbg = Embedded_debugger.attach m ~region:0x80000 in
  let send, received = host_wire m in
  (* the "OS bug": overwrite part of the embedded debugger *)
  Phys_mem.fill (Machine.mem m) ~addr:0x80100 ~len:64 0;
  check bool "dead after corruption" false (Embedded_debugger.alive dbg);
  send (Packet.frame (Command.command_to_wire Command.Read_registers));
  let answered = Embedded_debugger.service dbg in
  ignore (Vmm_sim.Engine.run_until_idle (Machine.engine m));
  check int "no commands answered" 0 answered;
  check int "silence on the wire" 0 (Buffer.length received)

let test_embedded_dies_with_machine () =
  let m = fresh () in
  let dbg = Embedded_debugger.attach m ~region:0x80000 in
  let send, _ = host_wire m in
  Embedded_debugger.mark_machine_dead dbg;
  send (Packet.frame (Command.command_to_wire Command.Read_registers));
  check int "dead machine, no answers" 0 (Embedded_debugger.service dbg)

(* -- Hardware simulator model -- *)

let test_hw_simulator_model () =
  let sim = Hw_simulator.default in
  check (Alcotest.float 1e-6) "wall clock" 50.0
    (Hw_simulator.wall_clock_seconds sim ~simulated_seconds:0.1);
  check (Alcotest.float 1e-6) "effective rate" 1.4
    (Hw_simulator.effective_rate_mbps sim ~native_rate_mbps:700.0);
  let props = Hw_simulator.properties sim in
  check bool "stable" true props.Hw_simulator.stable_under_os_crash;
  check bool "needs device models" true
    props.Hw_simulator.needs_device_model_per_device;
  let rows =
    Hw_simulator.comparison_rows ~lwvmm_io_efficiency:0.26
      ~fullvmm_io_efficiency:0.05
  in
  check int "three comparison rows" 3 (List.length rows)

let () =
  Alcotest.run "vmm_baseline"
    [
      ( "full_vmm",
        [
          Alcotest.test_case "runs guest" `Quick test_full_vmm_runs_guest;
          Alcotest.test_case "no pass-through" `Quick test_full_vmm_no_passthrough;
          Alcotest.test_case "runs workload" `Quick test_full_vmm_workload;
          Alcotest.test_case "parks crashed guest" `Quick
            test_full_vmm_parks_crashed_guest;
          Alcotest.test_case "ring-3 guest" `Quick test_full_vmm_user_mode_guest;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "ring-3 INT through a DPL-0 gate" `Quick
            test_transparent_int_gate_dpl;
          Alcotest.test_case "frame straddling a page" `Quick
            test_transparent_straddling_frame;
          Alcotest.test_case "IRET round trip with LSTK ring switch" `Quick
            test_transparent_iret_ring_switch;
        ] );
      ( "embedded_debugger",
        [
          Alcotest.test_case "answers when healthy" `Quick
            test_embedded_answers_when_healthy;
          Alcotest.test_case "dies with guest" `Quick test_embedded_dies_with_guest;
          Alcotest.test_case "dies with machine" `Quick
            test_embedded_dies_with_machine;
        ] );
      ( "hw_simulator",
        [ Alcotest.test_case "cost model" `Quick test_hw_simulator_model ] );
    ]
