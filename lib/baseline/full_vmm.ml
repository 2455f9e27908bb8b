module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Isa = Vmm_hw.Isa
module Pic = Vmm_hw.Pic
module Pit = Vmm_hw.Pit
module Io_bus = Vmm_hw.Io_bus
module Costs = Vmm_hw.Costs
module Shadow = Core.Shadow
module Vcpu = Core.Vcpu

type stats = {
  host_switches : int;
  host_syscalls : int;
  device_forwards : int;
  packets_forwarded : int;
  disk_transfers_forwarded : int;
  bytes_copied : int;
  reflected_irqs : int;
  cpu_emulations : int;
  shadow_fills : int;
}

type t = {
  vcpu : Vcpu.t;
  cpu : Cpu.t;
  costs : Costs.t;
  mutable shutdown : bool;
  (* device shadow registers, observed as the guest programs them *)
  mutable nic_tx_len : int;
  mutable scsi_count : int;
  (* counters *)
  mutable c_host : int;
  mutable c_syscall : int;
  mutable c_forward : int;
  mutable c_packets : int;
  mutable c_disk : int;
  mutable c_copied : int;
  mutable c_irq : int;
  mutable c_cpu : int;
}

let charge t cycles = Cpu.charge t.cpu cycles
let bus t = Machine.bus t.vcpu.Vcpu.machine

(* Every guest exit goes through the host OS scheduler and back. *)
let host_round_trip t =
  t.c_host <- t.c_host + 1;
  charge t t.costs.Costs.host_switch

let host_syscall t =
  t.c_syscall <- t.c_syscall + 1;
  charge t t.costs.Costs.host_syscall

(* A hosted VMM has no independent debug channel: a crashed guest is
   simply parked (the user restarts the VM). *)
let park t = Cpu.set_stopped t.cpu true

let rec reflect ?(check_dpl = false) t ~vector ~error ~return_pc ~depth =
  match Vcpu.deliver t.vcpu ~check_dpl ~vector ~error ~return_pc with
  | Vcpu.Delivered -> ()
  | Vcpu.No_gate when depth > 0 || vector = Isa.vec_protection -> park t
  | Vcpu.No_gate | Vcpu.Gate_dpl ->
    reflect t ~vector:Isa.vec_protection ~error:vector ~return_pc
      ~depth:(depth + 1)
  | Vcpu.Stack_unmapped -> park t

let kick t =
  match Vcpu.take_irq t.vcpu with
  | Some vector ->
    t.c_irq <- t.c_irq + 1;
    reflect t ~vector ~error:0 ~return_pc:(Cpu.pc t.cpu) ~depth:0
  | None -> ()

let virtual_irq t line =
  Vcpu.raise_irq t.vcpu line;
  kick t

(* -- Privileged CPU emulation (host application doing the work) -- *)

let emulate_privileged t instr pc =
  t.c_cpu <- t.c_cpu + 1;
  host_round_trip t;
  charge t t.costs.Costs.emulate_cpu;
  match Vcpu.emulate t.vcpu instr ~pc with
  | Vcpu.Emulated -> ()
  | Vcpu.Irq_window -> kick t
  | Vcpu.Bad_iret_frame | Vcpu.Not_privileged -> park t

(* -- Device forwarding through the host OS -- *)

let nic_base = Machine.Ports.nic
let scsi_base = Machine.Ports.scsi
let pic_base = Machine.Ports.pic
let pit_base = Machine.Ports.pit

(* Extra host-side work for data-carrying operations: the hosted VMM
   copies the payload between guest memory and host buffers and runs the
   host network/disk stack. *)
let charge_host_data t bytes =
  t.c_copied <- t.c_copied + bytes;
  charge t (Costs.cycles_for_bytes ~per_byte:t.costs.Costs.host_io_per_byte bytes)

let forward_out t port value =
  t.c_forward <- t.c_forward + 1;
  host_syscall t;
  if port = nic_base + 1 then t.nic_tx_len <- value
  else if port = scsi_base + 2 then t.scsi_count <- value;
  if port = nic_base + 2 && value land 3 = 1 then begin
    (* packet send: host network-stack path plus a bounce copy *)
    t.c_packets <- t.c_packets + 1;
    charge t t.costs.Costs.host_packet_overhead;
    charge_host_data t t.nic_tx_len
  end
  else if port = scsi_base + 4 && value land 3 <> 0 then begin
    (* disk transfer: host file-system path plus a bounce copy *)
    t.c_disk <- t.c_disk + 1;
    charge t t.costs.Costs.host_packet_overhead;
    charge_host_data t t.scsi_count
  end;
  Io_bus.write (bus t) port value

let forward_in t port =
  t.c_forward <- t.c_forward + 1;
  host_syscall t;
  Io_bus.read (bus t) port

let emulated_in t port =
  if port >= pic_base && port < pic_base + 3 then
    Pic.io_read t.vcpu.Vcpu.vpic (port - pic_base)
  else if port >= pit_base && port < pit_base + 3 then
    Pit.io_read t.vcpu.Vcpu.vpit (port - pit_base)
  else forward_in t port

let emulated_out t port value =
  if port >= pic_base && port < pic_base + 3 then begin
    Pic.io_write t.vcpu.Vcpu.vpic (port - pic_base) value;
    kick t
  end
  else if port >= pit_base && port < pit_base + 3 then
    Pit.io_write t.vcpu.Vcpu.vpit (port - pit_base) value
  else forward_out t port value

let emulate_io t port pc =
  host_round_trip t;
  let next = (pc + Isa.width) land 0xFFFFFFFF in
  match Cpu.read_instr t.cpu pc with
  | Isa.In_ (rd, _) | Isa.Ini (rd, _) ->
    Cpu.write_reg t.cpu rd (emulated_in t port);
    Cpu.set_pc t.cpu next
  | Isa.Out (_, rs) | Isa.Outi (_, rs) ->
    emulated_out t port (Cpu.read_reg t.cpu rs);
    Cpu.set_pc t.cpu next
  | _ -> park t

(* -- Page faults (the same shadow mechanism, hosted costs) -- *)

let handle_page_fault t (f : Vmm_hw.Mmu.fault) pc =
  host_round_trip t;
  let vaddr = f.Vmm_hw.Mmu.vaddr in
  match Vcpu.permitted t.vcpu f with
  | Some (frame, writable, user) ->
    Vcpu.fill_shadow t.vcpu ~vaddr ~frame ~writable ~user
  | None -> reflect t ~vector:Isa.vec_page_fault ~error:vaddr ~return_pc:pc ~depth:0

(* -- Interrupts arrive at the host first -- *)

let handle_real_irq t vector =
  (* host IRQ handler -> VMM application wakeup -> virtual delivery *)
  host_round_trip t;
  host_syscall t;
  let pic = Machine.pic t.vcpu.Vcpu.machine in
  let line = vector - Pic.vector_base pic in
  Pic.io_write pic 0 0x20;
  virtual_irq t line

let handle_fault t kind pc =
  let guest_kernel = t.vcpu.Vcpu.v_cpl = 0 in
  let guest_fault vector error =
    host_round_trip t;
    reflect t ~vector ~error ~return_pc:pc ~depth:0
  in
  match kind with
  | Cpu.Gp (Cpu.Privileged_instruction instr) when guest_kernel ->
    emulate_privileged t instr pc
  | Cpu.Gp (Cpu.Io_denied port) when guest_kernel -> emulate_io t port pc
  | Cpu.Gp (Cpu.Io_denied port) -> guest_fault Isa.vec_protection port
  | Cpu.Gp _ -> guest_fault Isa.vec_protection 0
  | Cpu.Page f -> handle_page_fault t f pc
  | Cpu.Breakpoint_trap | Cpu.Step_trap ->
    (* no debugging facility: treat like a guest fault *)
    guest_fault Isa.vec_breakpoint 0
  | Cpu.Undefined opcode -> guest_fault Isa.vec_undefined opcode
  | Cpu.Machine_check _ ->
    host_round_trip t;
    park t

let hook t _cpu event =
  (match event with
   | Cpu.Irq vector -> handle_real_irq t vector
   | Cpu.Fault (kind, pc) -> handle_fault t kind pc
   | Cpu.Soft_int (vector, next_pc) ->
     host_round_trip t;
     t.c_cpu <- t.c_cpu + 1;
     reflect ~check_dpl:true t ~vector ~error:0 ~return_pc:next_pc ~depth:0
   | Cpu.Hypercall (2, _) ->
     host_round_trip t;
     t.shutdown <- true;
     t.vcpu.Vcpu.v_halted <- true;
     Cpu.set_halted t.cpu true
   | Cpu.Hypercall _ -> host_round_trip t);
  Cpu.Handled

let install machine =
  (* The virtual PIT's expiry is a virtual IRQ, which needs [t]. *)
  let on_timer = ref ignore in
  let vcpu = Vcpu.create machine ~timer_irq:(fun () -> !on_timer ()) in
  let t =
    {
      vcpu;
      cpu = vcpu.Vcpu.cpu;
      costs = vcpu.Vcpu.costs;
      shutdown = false;
      nic_tx_len = 0;
      scsi_count = 0;
      c_host = 0;
      c_syscall = 0;
      c_forward = 0;
      c_packets = 0;
      c_disk = 0;
      c_copied = 0;
      c_irq = 0;
      c_cpu = 0;
    }
  in
  on_timer := (fun () -> virtual_irq t Machine.Irq.timer);
  (* No pass-through at all: the I/O bitmap stays empty. *)
  Cpu.set_hypervisor t.cpu (Some (hook t));
  t

let boot_guest t program ~entry =
  Vcpu.boot t.vcpu program ~entry;
  t.shutdown <- false

let stats t =
  {
    host_switches = t.c_host;
    host_syscalls = t.c_syscall;
    device_forwards = t.c_forward;
    packets_forwarded = t.c_packets;
    disk_transfers_forwarded = t.c_disk;
    bytes_copied = t.c_copied;
    reflected_irqs = t.c_irq;
    cpu_emulations = t.c_cpu;
    shadow_fills = Shadow.fills t.vcpu.Vcpu.shadow;
  }

let guest_halted t = t.vcpu.Vcpu.v_halted
let machine t = t.vcpu.Vcpu.machine
let shutdown_requested t = t.shutdown
