(** The virtual CPU both monitors build on: the guest's virtualized
    privileged state and the one copy of what a monitor does with it.

    A monitor runs the guest deprivileged — guest ring 0 in real ring 1,
    guest ring 3 in real ring 3 — behind lazily filled shadow page tables,
    and keeps here the privileged state the guest believes it owns: the
    interrupt flag, the interrupt-handling table, the page-table base, the
    current ring, the per-ring entry stacks, the halt flag and a virtual
    PIC/PIT.  On that state this module implements guest-virtual memory
    access through the guest's own tables, the guest-visible flags word,
    one level of exception-frame delivery, the privileged-instruction
    semantics, virtual IRQ raise and acknowledge, and shadow filling.

    It carries no policy and never learns which monitor calls it: every
    outcome a monitor must act on comes back as a constant constructor,
    and the only cycles charged here are the two every monitor pays at
    the same point, [interrupt_delivery] and [shadow_pt_sync].  Exit
    costs, device access, failure handling and counters stay with the
    caller. *)

type t = {
  machine : Vmm_hw.Machine.t;
  cpu : Vmm_hw.Cpu.t;
  costs : Vmm_hw.Costs.t;
  layout : Vm_layout.t;
  shadow : Shadow.t;
  vpic : Vmm_hw.Pic.t;
  vpit : Vmm_hw.Pit.t;
  mutable v_if : bool;
  mutable v_iht : int;
  mutable v_ptb : int;
  mutable v_cpl : int;  (** the guest's ring, 0..3 *)
  v_stacks : int array;  (** entry stack per guest ring ([LSTK]) *)
  mutable v_halted : bool;
}

(** [create machine ~timer_irq] virtualizes [machine]'s CPU: empty shadow
    tables under the real page-table base, the real PIC unmasked and real
    IF on (the monitor owns the real interrupt path), and a virtual PIT
    that calls [timer_irq] on every expiry.  The hypervisor hook is the
    caller's to install. *)
val create : Vmm_hw.Machine.t -> timer_irq:(unit -> unit) -> t

(** [boot t program ~entry] loads [program] into guest memory and resets
    to power-on: registers zero, guest ring 0, interrupts off, paging off
    (behind a flushed identity shadow), entry stacks zero, running at
    [entry] in real ring 1.
    @raise Invalid_argument if the image overlaps monitor memory. *)
val boot : t -> Vmm_hw.Asm.program -> entry:int -> unit

(** {2 Guest-virtual memory}

    Through the guest's own page tables ([v_ptb]; identity when paging is
    off), refusing any frame the guest does not own. *)

(** [read t ~addr ~len] — [None] when any byte is unmapped. *)
val read : t -> addr:int -> len:int -> string option

(** [write t ~addr ~data] ignores guest write protection; false when any
    byte is unmapped (earlier pages may already be written). *)
val write : t -> addr:int -> data:string -> bool

(** [guest_mapping t vaddr] — the guest's translation of [vaddr]'s page
    as (frame, writable, user), or [None] when the guest maps nothing
    there.  With paging off the guest sees its physical memory
    identity-mapped and unrestricted. *)
val guest_mapping : t -> int -> (int * bool * bool) option

(** [permitted t fault] — the guest's mapping for [fault]'s address when
    the guest's own tables allow the access at its current ring and the
    frame is the guest's: a shadow fill then retries the access.  [None]
    when the fault is the guest's own to take. *)
val permitted : t -> Vmm_hw.Mmu.fault -> (int * bool * bool) option

(** {2 Guest-visible flags} *)

(** [flags_word t] — the real condition codes with the virtual IF and
    ring. *)
val flags_word : t -> int

(** [set_flags_word t w] restores condition codes, the virtual IF and the
    virtual ring from [w]; the real IF stays on and the trap flag is left
    alone. *)
val set_flags_word : t -> int -> unit

(** {2 Exceptions and interrupts} *)

type delivery =
  | Delivered  (** frame pushed, guest at the handler *)
  | No_gate  (** vector out of range, gate not present or unreadable *)
  | Gate_dpl  (** [check_dpl] and the gate's DPL is below the guest ring *)
  | Stack_unmapped  (** the frame could not be written *)

(** [deliver t ~check_dpl ~vector ~error ~return_pc] — one level of
    delivery through the guest's interrupt table: push old sp, flags,
    [return_pc] and [error] on the handler ring's stack, enter the
    handler's ring with the virtual IF off, and charge
    [interrupt_delivery].  Registers and virtual state change only on
    [Delivered] ([Stack_unmapped] may leave the words it did push).
    Nested delivery (the #GP a missing gate becomes) is the caller's.
    [check_dpl] is set for software interrupts. *)
val deliver :
  t -> check_dpl:bool -> vector:int -> error:int -> return_pc:int -> delivery

(** [raise_irq t line] raises [line] on the virtual PIC and wakes a halted
    guest that can take it.  Delivery is the caller's, via {!take_irq}. *)
val raise_irq : t -> int -> unit

(** [take_irq t] acknowledges the highest pending virtual interrupt when
    the guest can take it now — virtual IF on, CPU neither stopped nor
    single-stepping — wakes a halted guest and returns the vector to
    deliver. *)
val take_irq : t -> int option

(** {2 Privileged instructions} *)

type emulation =
  | Emulated  (** done, pc past the instruction *)
  | Irq_window
      (** done, and a pending interrupt may now be deliverable
          ([STI], [IRET], [HLT] with one pending): call {!take_irq} *)
  | Bad_iret_frame  (** [IRET] with an unmapped frame; nothing changed *)
  | Not_privileged  (** not a privileged instruction; nothing changed *)

(** [emulate t instr ~pc] runs the guest-ring-0 privileged instruction
    [instr] at [pc] against the virtual state: STI, CLI, HLT, IRET,
    LIHT, LPTB, LSTK, TLBFLUSH. *)
val emulate : t -> Vmm_hw.Isa.instr -> pc:int -> emulation

(** [load_ptb t root] — the guest's page-table base becomes [root]: the
    shadow is flushed and [shadow_pt_sync] charged. *)
val load_ptb : t -> int -> unit

(** {2 Shadow page tables} *)

(** [flush_shadow t] drops every shadow mapping and reloads the real
    page-table base (flushing the TLB). *)
val flush_shadow : t -> unit

(** [shadow_map ?nx t ~vaddr ~frame ~writable ~user] installs one shadow
    entry (a full shadow pool is dropped and the entry installed in the
    fresh one) and flushes the TLB.  No cycles charged. *)
val shadow_map :
  ?nx:bool -> t -> vaddr:int -> frame:int -> writable:bool -> user:bool -> unit

(** [shadow_unmap t pages] drops the shadow entries of [pages], so the
    next access to each faults into the monitor, then flushes the TLB
    once.  No cycles charged. *)
val shadow_unmap : t -> int list -> unit

(** [fill_shadow] — {!shadow_map} for a guest page fault: charges
    [shadow_pt_sync]. *)
val fill_shadow :
  ?nx:bool -> t -> vaddr:int -> frame:int -> writable:bool -> user:bool -> unit
