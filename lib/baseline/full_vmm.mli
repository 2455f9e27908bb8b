(** A conventional {e hosted} full virtual machine monitor — the VMware
    Workstation 4 stand-in the paper compares against (architecture per
    Sugerman et al., USENIX ATC'01, which the paper cites).

    It runs the guest on {!Core.Vcpu}, the same virtual CPU as the
    lightweight monitor: trap reflection, privileged-instruction
    emulation, guest page walks and shadow filling are one shared copy,
    so a guest behaves identically under both.  It differs only in cost
    model and failure policy:

    - {b every exit goes through the host}: each trap is a modeled host
      context switch, and every device access a host system call;
    - {b no pass-through}: every device port access traps and is routed
      through the host operating system before reaching the device;
    - {b per-packet host processing}: network sends pay the host's network
      stack and an extra buffer copy on top of the guest's own work;
    - {b per-transfer host processing}: disk reads pay the host file
      system path and a bounce-buffer copy;
    - {b interrupt delivery through the host}: a device interrupt is
      fielded by the host OS, handed to the VMM application, and only then
      reflected into the guest;
    - {b no debug plane}: a guest the virtual CPU cannot deliver a fault
      into is parked (stopped), where the lightweight monitor escalates
      to its debug stub.

    The guest binary and the devices are identical to the other two
    systems; only the access-cost structure differs — which is exactly
    what Fig 3.1 measures. *)

type t

type stats = {
  host_switches : int;  (** guest <-> host-OS round trips *)
  host_syscalls : int;
  device_forwards : int;  (** emulated device register accesses *)
  packets_forwarded : int;
  disk_transfers_forwarded : int;
  bytes_copied : int;  (** bounce-buffer bytes through the host *)
  reflected_irqs : int;
  cpu_emulations : int;
      (** privileged instructions emulated plus software [INT]s
          reflected, counted as [Core.Monitor.stats] counts them *)
  shadow_fills : int;
}

(** [install machine] takes ownership like a hosted VMM would. *)
val install : Vmm_hw.Machine.t -> t

(** [boot_guest t program ~entry] — as [Core.Monitor.boot_guest]. *)
val boot_guest : t -> Vmm_hw.Asm.program -> entry:int -> unit

val stats : t -> stats
val guest_halted : t -> bool
val machine : t -> Vmm_hw.Machine.t
val shutdown_requested : t -> bool
