module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Uart = Vmm_hw.Uart
module Phys_mem = Vmm_hw.Phys_mem
module Packet = Vmm_proto.Packet
module Command = Vmm_proto.Command

let footprint = 1024

type t = {
  machine : Machine.t;
  region : int;
  checksum : int;
  decoder : Packet.decoder;
  mutable machine_dead : bool;
  mutable answered : int;
}

(* A recognizable pattern standing in for the agent's code and data. *)
let plant_image mem ~region =
  for i = 0 to footprint - 1 do
    Phys_mem.write_u8 mem (region + i) ((i * 37) lxor 0xA5 land 0xFF)
  done

let attach machine ~region =
  let mem = Machine.mem machine in
  plant_image mem ~region;
  (* The in-OS agent initializes like any kernel service: interrupts on,
     its UART line unmasked.  Both remain at the mercy of the OS. *)
  Cpu.set_interrupts_enabled (Machine.cpu machine) true;
  {
    machine;
    region;
    checksum = Phys_mem.checksum mem ~addr:region ~len:footprint;
    decoder = Packet.decoder ();
    machine_dead = false;
    answered = 0;
  }

(* Alive only while everything the agent depends on is intact: its own
   image, the machine itself, and the interrupt path that invokes it. *)
let alive t =
  let cpu = Machine.cpu t.machine in
  let uart_masked =
    Vmm_hw.Pic.mask (Machine.pic t.machine) land (1 lsl Machine.Irq.uart) <> 0
  in
  (not t.machine_dead)
  && Cpu.interrupts_enabled cpu
  && (not uart_masked)
  && Phys_mem.checksum (Machine.mem t.machine) ~addr:t.region ~len:footprint
     = t.checksum

let mark_machine_dead t = t.machine_dead <- true

let send t s =
  String.iter
    (fun c -> Uart.io_write (Machine.uart t.machine) 0 (Char.code c))
    s

let reply t r = send t (Packet.frame (Command.reply_to_wire r))

let handle t command =
  let cpu = Machine.cpu t.machine in
  match command with
  | Command.Read_registers ->
    reply t
      (Command.Registers
         (Array.init 18 (fun i ->
              if i < 16 then Cpu.read_reg cpu i
              else if i = 16 then Cpu.pc cpu
              else Cpu.flags_word cpu)))
  | Command.Read_memory { addr; len } ->
    let mem = Machine.mem t.machine in
    if addr >= 0 && len >= 0 && addr + len <= Phys_mem.size mem then
      reply t
        (Command.Memory (Bytes.to_string (Phys_mem.read_bytes mem ~addr ~len)))
    else reply t (Command.Error 0x0E)
  | Command.Query_stop -> reply t Command.Running
  | Command.Write_register _ | Command.Write_memory _
  | Command.Insert_breakpoint _ | Command.Remove_breakpoint _
  | Command.Insert_watchpoint _ | Command.Remove_watchpoint _
  | Command.Read_console | Command.Read_profile
  | Command.Query_watchdog | Command.Query_verify | Command.Query_flight
  | Command.Restart
  | Command.Continue | Command.Step | Command.Halt | Command.Detach
  | Command.Reverse_step | Command.Reverse_continue | Command.Resync ->
    reply t Command.Unsupported

let service t =
  let uart = Machine.uart t.machine in
  let before = t.answered in
  let rec drain () =
    if Uart.io_read uart 1 land 1 <> 0 then begin
      let byte = Uart.io_read uart 0 in
      (* A dead agent consumes bytes (the hardware FIFO still drains) but
         can no longer respond. *)
      (if alive t then
         match Packet.feed t.decoder byte with
         | Some (Packet.Packet payload) ->
           send t (String.make 1 Packet.ack);
           (match Command.command_of_wire payload with
            | Some command ->
              t.answered <- t.answered + 1;
              handle t command
            | None -> reply t Command.Unsupported)
         | Some (Packet.Ack | Packet.Nak | Packet.Bad_checksum) | None -> ());
      drain ()
    end
  in
  drain ();
  t.answered - before
