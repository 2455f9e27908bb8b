module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Isa = Vmm_hw.Isa
module Mmu = Vmm_hw.Mmu
module Pic = Vmm_hw.Pic
module Pit = Vmm_hw.Pit
module Uart = Vmm_hw.Uart
module Io_bus = Vmm_hw.Io_bus
module Costs = Vmm_hw.Costs
module Asm = Vmm_hw.Asm
module Scsi = Vmm_hw.Scsi
module Nic = Vmm_hw.Nic
module Verifier = Vmm_analysis.Verifier
module Races = Vmm_analysis.Races
module Recorder = Vmm_replay.Recorder
module Event = Vmm_replay.Event
module Profiler = Vmm_profile.Profiler
module Flight = Vmm_profile.Flight
module Bundle = Vmm_profile.Bundle

type passthrough = { base : int; count : int }

let default_passthrough =
  [
    { base = Machine.Ports.scsi; count = 7 };
    { base = Machine.Ports.nic; count = 8 };
  ]

type stats = {
  world_switches : int;
  pic_emulations : int;
  pit_emulations : int;
  cpu_emulations : int;
  io_emulations : int;
  shadow_fills : int;
  reflected_irqs : int;
  reflected_faults : int;
  hypercalls : int;
  escalations : int;
  (* stability observability: the debug link and injected-fault story *)
  link_retransmits : int;
  link_bad_checksums : int;
  link_resets : int;
  link_downs : int;
  injected_faults : int;
  (* lifecycle & recovery *)
  wedge_breakins : int;
  crashes : int;
  restarts : int;
}

(* Crash containment: when reflection cannot hand a fault to the guest
   (double fault, unmapped stack, machine check, ...) the guest moves to
   [Crashed] — frozen, quarantined, but fully inspectable.  The report
   keeps the faulting context; [chain] lists the nested delivery
   attempts (vector, pc) that led here, innermost last. *)
type crash_report = {
  cause : string;
  vector : int;
  pc : int;
  chain : (int * int) list;
}

type lifecycle = Healthy | Crashed of crash_report

(* One statically-reported race site under dynamic observation: an
   observe-only virtual breakpoint on the load opens the window, and a
   virtual-interrupt delivery landing inside [(load_pc, store_pc]] with
   the site's vector is a witnessed interleaving. *)
type race_watch = {
  rsite : Races.site;
  mutable rw_windows : int;  (* executions of the load observed *)
  mutable rw_witnessed : int;  (* handler deliveries inside the window *)
}

type t = {
  machine : Machine.t;
  cpu : Cpu.t;
  costs : Costs.t;
  vcpu : Vcpu.t;
  mutable stub : Stub.t option;
  watchpoints : Watchpoints.t;
  mutable reprotect_pages : int list;
      (* pages to re-protect after a monitor-internal single step.  A
         list, not a slot: one stepped instruction can need several
         pages opened at once (e.g. a fetch from a breakpoint-armed page
         storing to a watched page), and losing one would leave it
         permanently unprotected *)
  mutable mon_step_only : bool;
      (* the trap flag was set by the monitor, not the stub *)
  mutable watch_resume : int option;
      (* page to step across when the stub resumes after a watch hit *)
  mutable vbp_pass : int option;
      (* one-shot pass for virtual breakpoints: the next exec fault
         landing exactly on this pc is stepped through, not reported —
         how resuming off a hit makes progress while the site stays
         armed *)
  console_buf : Buffer.t;
  mutable shutdown : bool;
  (* load-time static verification *)
  passthrough : passthrough list;
  mutable boot_image : (Asm.program * int) option;
  mutable last_verify : Verifier.report option;
  mutable c_verifies : int;
  (* dynamic cross-validation of statically-reported races *)
  mutable race_witness : bool;
  mutable race_sites : race_watch array;
  mutable c_race_windows : int;
  mutable c_race_witnessed : int;
  (* lifecycle & recovery *)
  mutable lifecycle : lifecycle;
  mutable boot_state : Snapshot.Full.t option;
      (* captured by [boot_guest]; a warm restart loads it *)
  mutable power_on : unit -> unit;
      (* late bound in [install]: puts the virtual PIC/PIT, SCSI and NIC
         back to their state at install, before every boot *)
  (* reverse debugging: ring of periodic mid-run checkpoints, newest
     first *)
  mutable checkpoints : Snapshot.Full.t list;
  pages : Snapshot.Pages.t;
      (* the page copies every capture and restore of this guest goes
         through *)
  mutable checkpoint_keep : int;
  mutable checkpoint_gen : int;
      (* bumping it orphans any armed periodic capture event *)
  mutable c_checkpoints : int;
  mutable watchdog : Watchdog.t option;
  mutable last_wedge : (int * int) option;
      (* (pc, stalled periods) of the most recent watchdog break-in *)
  (* counters *)
  mutable c_world : int;
  mutable c_pic : int;
  mutable c_pit : int;
  mutable c_cpu : int;
  mutable c_io : int;
  mutable c_irq : int;
  mutable c_fault : int;
  mutable c_hyper : int;
  mutable c_escal : int;
  mutable c_vbp_faults : int;
  mutable c_vbp_hits : int;
  mutable c_vbp_steps : int;
  mutable c_inject : int;
  mutable c_crashes : int;
  mutable c_restarts : int;
  (* crash bundles *)
  mutable c_bundles : int;
  mutable last_bundle : string option;
      (* most recent crash/wedge bundle; sticky across warm restarts so
         the post-mortem stays retrievable over [qR], cleared on a fresh
         boot *)
  mutable capture_bundle : cause:string -> unit;
      (* late bound in [install]: the fault path that triggers a capture
         is defined long before the snapshot/report helpers the bundle
         composer needs *)
}

let get_stub t =
  match t.stub with Some s -> s | None -> assert false

let charge t cycles = Cpu.charge t.cpu cycles

let trace t severity message =
  Flight.note (Machine.trace t.machine)
    ~cycle:(Vmm_sim.Engine.now (Machine.engine t.machine))
    ~kind:"monitor" ~severity (Flight.Text message)

(* Record/replay tap: the monitor reports its own nondeterminism sources
   (virtual-IRQ injections, crashes, wedge break-ins, checkpoints) into
   the machine-wide recorder alongside the device taps — and into the
   always-on flight ring, so a crash bundle shows them even when nothing
   was recording. *)
let emit_event t source payload =
  let cycle = Vmm_sim.Engine.now (Machine.engine t.machine) in
  Recorder.emit (Machine.recorder t.machine) ~cycle ~source payload;
  Flight.note (Machine.flight t.machine) ~cycle ~kind:source
    (Flight.Event payload)

(* Deterministic monitor activity (trap reflection, emulated port I/O,
   decoded protocol frames) is not record/replay material but belongs in
   the flight ring's last-moments view. *)
let flight_note t kind detail =
  Flight.note (Machine.flight t.machine)
    ~cycle:(Vmm_sim.Engine.now (Machine.engine t.machine))
    ~kind detail

let world_switch t =
  t.c_world <- t.c_world + 1;
  charge t t.costs.Costs.world_switch

(* Cycle attribution: every [charge] books to the load's current
   category, so pinning a category for the duration of a handler is all
   the bookkeeping attribution needs — nesting restores the outer
   category, and per-category totals keep summing to the busy total by
   construction.  When the machine tracer is enabled the same scope also
   appears as a Perfetto span. *)
let span t (cat : Vmm_sim.Stats.category) name f =
  let load = Machine.load t.machine in
  let tracer = Machine.tracer t.machine in
  if Vmm_obs.Tracer.enabled tracer then
    Vmm_obs.Tracer.with_span tracer ~cat:(Vmm_sim.Stats.category_name cat)
      name (fun () -> Vmm_sim.Stats.with_category load cat f)
  else Vmm_sim.Stats.with_category load cat f

(* Category only, no span: for closures fired on every stub byte, where
   a trace event apiece would drown the timeline. *)
let with_cat t (cat : Vmm_sim.Stats.category) f =
  Vmm_sim.Stats.with_category (Machine.load t.machine) cat f

let guest_read t ~addr ~len = Vcpu.read t.vcpu ~addr ~len
let guest_write t ~addr ~data = Vcpu.write t.vcpu ~addr ~data
let guest_flags_word t = Vcpu.flags_word t.vcpu

(* -- Escalation: the guest is beyond saving; keep the debugger alive --

   Classify the failure, quarantine the guest in [Crashed] (first report
   wins — later faults of an already-dead guest add no information) and
   hand control to the stub.  The stub stays fully responsive: registers,
   memory and the [qW] report remain readable; only resume is refused
   until a warm restart. *)

let escalate ?(cause = "unrecoverable_fault") ?(chain = []) t ~vector ~pc =
  t.c_escal <- t.c_escal + 1;
  (match t.lifecycle with
   | Crashed _ -> ()
   | Healthy ->
     t.c_crashes <- t.c_crashes + 1;
     t.lifecycle <- Crashed { cause; vector; pc; chain };
     emit_event t "monitor" (Event.Crash { vector; pc });
     (* Capture the post-mortem now, while the flight ring still ends on
        the fatal event: later host-side debug traffic must not dilute
        the last moments. *)
     t.capture_bundle ~cause);
  trace t Flight.Error
    (Printf.sprintf
       "guest unrecoverable (%s): vector %d at 0x%x; stopped for debug" cause
       vector pc);
  Stub.on_guest_fault (get_stub t) ~vector ~pc

(* -- Reflection into the guest's virtual interrupt table -- *)

let rec reflect ?(check_dpl = false) ?(chain = []) t ~vector ~error ~return_pc
    ~depth =
  span t Irq "reflect" @@ fun () ->
  t.c_fault <- t.c_fault + 1;
  flight_note t "monitor.reflect"
    (Flight.Reflect { vector; pc = return_pc; depth });
  (* [chain] records each delivery attempt (vector, pc), innermost last,
     so a crash report shows the whole nested-exception cascade. *)
  let chain = chain @ [ (vector, return_pc) ] in
  match Vcpu.deliver t.vcpu ~check_dpl ~vector ~error ~return_pc with
  | Vcpu.Delivered -> ()
  | Vcpu.No_gate when depth > 0 || vector = Isa.vec_protection ->
    (* Guest double/triple fault: stop it, tell the debugger. *)
    escalate t
      ~cause:(if depth > 0 then "double_fault" else "no_fault_gate")
      ~chain ~vector ~pc:return_pc
  | Vcpu.No_gate | Vcpu.Gate_dpl ->
    (* A missing gate, or a software interrupt through a gate the caller
       may not use: #GP, like the hardware path. *)
    reflect ~chain t ~vector:Isa.vec_protection ~error:vector ~return_pc
      ~depth:(depth + 1)
  | Vcpu.Stack_unmapped ->
    (* The guest's stack is unmapped: unrecoverable from its side. *)
    escalate t ~cause:"stack_unmapped" ~chain ~vector ~pc:return_pc

(* -- Virtual interrupt delivery -- *)

(* Deliver a pending virtual interrupt when the guest can take it. *)
let kick t =
  match Vcpu.take_irq t.vcpu with
  | Some vvector ->
    t.c_irq <- t.c_irq + 1;
    (* Race-witness cross-validation: this delivery preempts the
       mainline at [pc].  If that pc lies strictly inside a sampled
       RMW window and the vector matches the static report, the
       handler really is interleaving the read-modify-write — upgrade
       the diagnostic from "static" to "witnessed".  Flight-ring only:
       the replay stream must not change with witnessing on. *)
    if Array.length t.race_sites > 0 then begin
      let pc = Cpu.pc t.cpu in
      Array.iter
        (fun w ->
          let s = w.rsite in
          if
            s.Races.vector = vvector
            && s.Races.load_pc < pc
            && pc <= s.Races.store_pc
          then begin
            w.rw_witnessed <- w.rw_witnessed + 1;
            t.c_race_witnessed <- t.c_race_witnessed + 1;
            flight_note t "race.witness"
              (Flight.Text
                 (Printf.sprintf
                    "vector %d interleaved rmw 0x%x..0x%x at pc 0x%x" vvector
                    s.Races.load_pc s.Races.store_pc pc))
          end)
        t.race_sites
    end;
    reflect t ~vector:vvector ~error:0 ~return_pc:(Cpu.pc t.cpu) ~depth:0
  | None -> ()

let virtual_irq t line =
  emit_event t "monitor.virq" (Event.Irq_inject { line });
  Vcpu.raise_irq t.vcpu line;
  kick t

(* -- Privileged-instruction emulation (guest kernel only) -- *)

let emulate_privileged t instr pc =
  span t Mon_cpu "emulate_priv" @@ fun () ->
  t.c_cpu <- t.c_cpu + 1;
  world_switch t;
  charge t t.costs.Costs.emulate_cpu;
  match Vcpu.emulate t.vcpu instr ~pc with
  | Vcpu.Emulated -> ()
  | Vcpu.Irq_window -> kick t
  | Vcpu.Bad_iret_frame ->
    escalate t ~cause:"bad_iret_frame" ~vector:Isa.vec_protection ~pc
  | Vcpu.Not_privileged ->
    (* Cannot reach here via a privilege fault. *)
    escalate t ~vector:Isa.vec_protection ~pc

(* -- Emulated port I/O (the paper's "indirect access" resources) -- *)

let pic_base = Machine.Ports.pic
let pit_base = Machine.Ports.pit
let uart_base = Machine.Ports.uart

let emulated_in t port =
  if port >= pic_base && port < pic_base + 3 then begin
    t.c_pic <- t.c_pic + 1;
    span t Mon_pic "vpic_in" @@ fun () ->
    charge t t.costs.Costs.emulate_pic;
    Pic.io_read t.vcpu.Vcpu.vpic (port - pic_base)
  end
  else if port >= pit_base && port < pit_base + 3 then begin
    t.c_pit <- t.c_pit + 1;
    span t Mon_pit "vpit_in" @@ fun () ->
    charge t t.costs.Costs.emulate_pit;
    Pit.io_read t.vcpu.Vcpu.vpit (port - pit_base)
  end
  else if port >= uart_base && port < uart_base + 3 then begin
    charge t t.costs.Costs.emulate_cpu;
    (* The real UART belongs to the monitor; the guest sees an always-idle
       virtual one. *)
    if port = uart_base + 1 then 2 else 0
  end
  else begin
    (* Any other trapped port is forwarded to the real bus.  The paper's
       configuration passes data devices through, so this path only
       carries stray accesses — and the E7 ablation, which deliberately
       routes device traffic here to price monitor-mediated access. *)
    charge t t.costs.Costs.emulate_cpu;
    Io_bus.read (Machine.bus t.machine) port
  end

let emulated_out t port value =
  if port >= pic_base && port < pic_base + 3 then begin
    t.c_pic <- t.c_pic + 1;
    span t Mon_pic "vpic_out" @@ fun () ->
    charge t t.costs.Costs.emulate_pic;
    Pic.io_write t.vcpu.Vcpu.vpic (port - pic_base) value;
    kick t
  end
  else if port >= pit_base && port < pit_base + 3 then begin
    t.c_pit <- t.c_pit + 1;
    span t Mon_pit "vpit_out" @@ fun () ->
    charge t t.costs.Costs.emulate_pit;
    Pit.io_write t.vcpu.Vcpu.vpit (port - pit_base) value
  end
  else if port >= uart_base && port < uart_base + 3 then begin
    charge t t.costs.Costs.emulate_cpu;
    if port = uart_base then Buffer.add_char t.console_buf (Char.chr (value land 0xFF))
  end
  else begin
    charge t t.costs.Costs.emulate_cpu;
    Io_bus.write (Machine.bus t.machine) port value
  end

let emulate_io t port pc =
  span t Mon_io "emulate_io" @@ fun () ->
  t.c_io <- t.c_io + 1;
  flight_note t "monitor.io" (Flight.Io { port; pc });
  world_switch t;
  let next = (pc + Isa.width) land 0xFFFFFFFF in
  match Cpu.read_instr t.cpu pc with
  | Isa.In_ (rd, _) | Isa.Ini (rd, _) ->
    Cpu.write_reg t.cpu rd (emulated_in t port);
    Cpu.set_pc t.cpu next
  | Isa.Out (_, rs) ->
    emulated_out t port (Cpu.read_reg t.cpu rs);
    Cpu.set_pc t.cpu next
  | Isa.Outi (_, rs) ->
    emulated_out t port (Cpu.read_reg t.cpu rs);
    Cpu.set_pc t.cpu next
  | Isa.Nop | Isa.Hlt | Isa.Movi _ | Isa.Mov _ | Isa.Add _ | Isa.Addi _
  | Isa.Sub _ | Isa.And_ _ | Isa.Or_ _ | Isa.Xor_ _ | Isa.Shl _ | Isa.Shr _
  | Isa.Mul _ | Isa.Cmp _ | Isa.Cmpi _ | Isa.Ld _ | Isa.St _ | Isa.Ldb _
  | Isa.Stb _ | Isa.Jmp _ | Isa.Jz _ | Isa.Jnz _ | Isa.Jlt _ | Isa.Jge _
  | Isa.Jb _ | Isa.Jae _ | Isa.Jr _ | Isa.Call _ | Isa.Ret | Isa.Push _
  | Isa.Pop _ | Isa.Int_ _ | Isa.Iret | Isa.Sti | Isa.Cli | Isa.Liht _
  | Isa.Lptb _ | Isa.Lstk _ | Isa.Tlbflush | Isa.Copy _ | Isa.Csum _
  | Isa.Rdtsc _ | Isa.Vmcall _ | Isa.Brk ->
    escalate t ~vector:Isa.vec_protection ~pc

(* -- Shadow page-fault handling -- *)

(* Virtual breakpoints: does the (virtual) page holding [addr] carry an
   armed site?  Consulted on every shadow fill — the empty-table case is
   one hash-length check, so the no-breakpoints hot path stays flat. *)
let vbp_page_armed t addr =
  match t.stub with
  | Some stub ->
    Breakpoints.page_armed (Stub.breakpoints stub) ~page:addr
  | None -> false

let fill_shadow t ~vaddr ~frame ~writable ~user =
  (* Watched pages stay read-only in the shadow so every store traps. *)
  let writable =
    writable && not (Watchpoints.page_watched t.watchpoints (vaddr land lnot 0xFFF))
  in
  (* Pages with armed virtual breakpoints stay readable/writable (guest
     data reads see pristine text) but no-execute: every fetch traps. *)
  Vcpu.fill_shadow t.vcpu ~vaddr ~frame ~writable ~user ~nx:(vbp_page_armed t vaddr)

(* Replay a store on a protected page: map it writable (bypassing the
   watch), single-step the faulting instruction, and re-protect on the
   step trap.  [mon_step_only] distinguishes the monitor's own trap-flag
   use from a host-requested single step happening at the same time. *)
let unprotect_for_step ?(for_write = false) t page =
  (* Only the first unprotect of a step window may claim the trap flag:
     a later one in the same window would read the flag the monitor just
     set and wrongly conclude the stub asked for the step. *)
  if t.reprotect_pages = [] then
    t.mon_step_only <- not (Cpu.trap_flag t.cpu);
  let frame, writable, user =
    Option.value (Vcpu.guest_mapping t.vcpu page) ~default:(page, true, true)
  in
  (* A virtual-breakpoint step-through only needs the page executable;
     lifting a watchpoint's write protection at the same time would let
     watched stores on a shared page slip through unreported.  Only the
     watch machinery itself ([for_write]) may bypass its protection. *)
  let writable =
    writable && (for_write || not (Watchpoints.page_watched t.watchpoints page))
  in
  Vcpu.shadow_map t.vcpu ~vaddr:page ~frame ~writable ~user;
  Cpu.set_trap_flag t.cpu true;
  if not (List.mem page t.reprotect_pages) then
    t.reprotect_pages <- page :: t.reprotect_pages

let reprotect_after_step t pages =
  Vcpu.shadow_unmap t.vcpu pages;
  t.reprotect_pages <- []

(* An exec fault on a page carrying armed virtual breakpoints.  Hit
   detection keys on [pc] — the faulting instruction's address — not the
   fault vaddr, so an instruction straddling into an armed page does not
   masquerade as a hit on its tail byte.  Anything that is not a hit
   (unrelated code sharing the hot page, a one-shot pass after resume)
   is transparently stepped through: map the page executable for exactly
   one instruction, then the step trap re-protects it.  The pass is
   consumed by the first vbp exec fault regardless of match, so a stale
   pass can never swallow a later legitimate hit. *)
let handle_vbp_fault t ~vaddr ~pc =
  t.c_vbp_faults <- t.c_vbp_faults + 1;
  let stub = get_stub t in
  let pass = t.vbp_pass in
  t.vbp_pass <- None;
  if Breakpoints.mem (Stub.breakpoints stub) ~addr:pc && pass <> Some pc then begin
    t.c_vbp_hits <- t.c_vbp_hits + 1;
    trace t Flight.Info
      (Printf.sprintf "virtual breakpoint hit at pc 0x%x" pc);
    emit_event t "monitor.vbp" (Event.Vbp_hit { pc });
    (* Same stop a guest BRK would have produced: Break at the site's
       pc, before the instruction executes.  (During an [rs] replay the stub grants itself a pass and
       sets the trap flag instead of stopping; the retried fetch then
       takes the step-through path below.) *)
    Stub.on_breakpoint stub ~pc
  end
  else begin
    (* Observe-only race-witness site: count the open window, note it in
       the flight ring, and fall through to the transparent step — the
       guest never stops and the replay stream is untouched. *)
    if Breakpoints.observe_mem (Stub.breakpoints stub) ~addr:pc then begin
      Array.iter
        (fun w ->
          if w.rsite.Races.load_pc = pc then begin
            w.rw_windows <- w.rw_windows + 1;
            t.c_race_windows <- t.c_race_windows + 1
          end)
        t.race_sites;
      flight_note t "race.window"
        (Flight.Text (Printf.sprintf "rmw window opened at 0x%x" pc))
    end;
    t.c_vbp_steps <- t.c_vbp_steps + 1;
    unprotect_for_step t (vaddr land lnot 0xFFF)
  end

let handle_page_fault t (f : Mmu.fault) pc =
  span t Mon_shadow "page_fault" @@ fun () ->
  world_switch t;
  let vaddr = f.Mmu.vaddr in
  let page = vaddr land lnot 0xFFF in
  match Vcpu.permitted t.vcpu f with
  | Some (frame, writable, user) ->
    if f.Mmu.access = Mmu.Exec && vbp_page_armed t vaddr then
      handle_vbp_fault t ~vaddr ~pc
    else if
      f.Mmu.access = Mmu.Write && Watchpoints.page_watched t.watchpoints page
    then begin
      match Watchpoints.hit t.watchpoints vaddr with
      | Some _ ->
        t.watch_resume <- Some page;
        trace t Flight.Info
          (Printf.sprintf "watchpoint hit: store to 0x%x at pc 0x%x" vaddr pc);
        Stub.on_watchpoint (get_stub t) ~pc ~addr:vaddr
      | None -> unprotect_for_step ~for_write:true t page
    end
    else fill_shadow t ~vaddr ~frame ~writable ~user
    (* pc unchanged: the faulting access retries against the new entry *)
  | None ->
    reflect t ~vector:Isa.vec_page_fault ~error:vaddr ~return_pc:pc ~depth:0

(* -- Hypercalls -- *)

let handle_hypercall t imm =
  span t Mon_cpu "hypercall" @@ fun () ->
  t.c_hyper <- t.c_hyper + 1;
  world_switch t;
  charge t t.costs.Costs.emulate_cpu;
  match imm with
  | 0 ->
    Buffer.add_char t.console_buf
      (Char.chr (Cpu.read_reg t.cpu 1 land 0xFF))
  | 1 -> Cpu.write_reg t.cpu 1 0x0100 (* monitor version 1.0 *)
  | 2 ->
    t.shutdown <- true;
    t.vcpu.Vcpu.v_halted <- true;
    trace t Flight.Info "guest requested shutdown";
    Cpu.set_halted t.cpu true
  | _ -> ()

(* -- Fault injection (the robustness harness's guest-misbehaviour menu) --

   Each case drives an existing monitor path exactly as a hostile or
   broken guest would: the point of injecting here rather than patching
   guest code is that the schedule is deterministic in sim time, so a
   seeded run reproduces byte-for-byte. *)

type injected_fault =
  | Wild_jump of int
      (** guest jumps into unmapped / monitor-reserved space *)
  | Wild_store of int
      (** guest stores into a monitor-reserved physical range *)
  | Iht_clobber  (** guest overwrites its own interrupt-handler table *)
  | Ptb_clobber  (** guest loads a wild page-table base *)
  | Irq_storm of { lines : int; rounds : int }
      (** interrupt storm across PIC lines, including unhandled ones *)
  | Guest_wedge  (** guest halts with interrupts masked: dead CPU *)

let pp_injected_fault fmt = function
  | Wild_jump addr -> Format.fprintf fmt "wild jump to 0x%x" addr
  | Wild_store addr -> Format.fprintf fmt "wild store to 0x%x" addr
  | Iht_clobber -> Format.pp_print_string fmt "IHT clobbered"
  | Ptb_clobber -> Format.pp_print_string fmt "PTB clobbered"
  | Irq_storm { lines; rounds } ->
    Format.fprintf fmt "IRQ storm (%d lines x %d rounds)" lines rounds
  | Guest_wedge -> Format.pp_print_string fmt "guest wedged (halt, IF=0)"

let inject t fault =
  t.c_inject <- t.c_inject + 1;
  trace t Flight.Warn
    (Format.asprintf "injected fault: %a" pp_injected_fault fault);
  match fault with
  | Wild_jump addr -> Cpu.set_pc t.cpu addr
  | Wild_store vaddr ->
    (* The paper's canonical bug: a store lands in monitor-owned memory.
       The MMU would refuse it, so enter through the page-fault path. *)
    handle_page_fault t
      { Mmu.vaddr; access = Mmu.Write; not_present = false }
      (Cpu.pc t.cpu)
  | Iht_clobber ->
    ignore (guest_write t ~addr:t.vcpu.Vcpu.v_iht ~data:(String.make (64 * 8) '\000'))
  | Ptb_clobber -> Vcpu.load_ptb t.vcpu 0
  | Irq_storm { lines; rounds } ->
    for _ = 1 to rounds do
      for line = 0 to lines - 1 do
        virtual_irq t (line land 7)
      done
    done
  | Guest_wedge ->
    t.vcpu.Vcpu.v_if <- false;
    t.vcpu.Vcpu.v_halted <- true;
    Cpu.set_halted t.cpu true

(* -- Real interrupt routing -- *)

let drain_uart t =
  span t Stub "drain_uart" @@ fun () ->
  let uart = Machine.uart t.machine in
  let stub = get_stub t in
  let rec go () =
    if Uart.io_read uart 1 land 1 <> 0 then begin
      let byte = Uart.io_read uart 0 in
      charge t t.costs.Costs.port_io;
      Stub.on_rx_byte stub byte;
      go ()
    end
  in
  go ()

let handle_real_irq t vector =
  span t Irq "real_irq" @@ fun () ->
  world_switch t;
  let line = vector - Pic.vector_base (Machine.pic t.machine) in
  (* The monitor owns the physical controller: retire the interrupt now. *)
  Pic.io_write (Machine.pic t.machine) 0 0x20;
  if line = Machine.Irq.uart then drain_uart t
  else begin
    t.c_pic <- t.c_pic + 1;
    charge t t.costs.Costs.emulate_pic;
    virtual_irq t line
  end

(* -- The hook -- *)

let handle_fault t kind pc =
  match kind with
  | Cpu.Gp (Cpu.Privileged_instruction instr) ->
    if t.vcpu.Vcpu.v_cpl = 0 then emulate_privileged t instr pc
    else
      span t Mon_cpu "gp" @@ fun () ->
      world_switch t;
      reflect t ~vector:Isa.vec_protection ~error:0 ~return_pc:pc ~depth:0
  | Cpu.Gp (Cpu.Io_denied port) ->
    if t.vcpu.Vcpu.v_cpl = 0 then emulate_io t port pc
    else begin
      span t Mon_cpu "gp" @@ fun () ->
      world_switch t;
      reflect t ~vector:Isa.vec_protection ~error:port ~return_pc:pc ~depth:0
    end
  | Cpu.Gp _ ->
    span t Mon_cpu "gp" @@ fun () ->
    world_switch t;
    reflect t ~vector:Isa.vec_protection ~error:0 ~return_pc:pc ~depth:0
  | Cpu.Page f -> handle_page_fault t f pc
  | Cpu.Breakpoint_trap ->
    span t Stub "breakpoint" @@ fun () ->
    world_switch t;
    Stub.on_breakpoint (get_stub t) ~pc
  | Cpu.Step_trap ->
    span t Stub "step_trap" @@ fun () ->
    world_switch t;
    (match t.reprotect_pages with
     | _ :: _ as pages ->
       reprotect_after_step t pages;
       if t.mon_step_only then begin
         Cpu.set_trap_flag t.cpu false;
         (* A virtual IRQ raised during the protected step was deferred
            by the trap flag ([kick] refuses while TF is set); deliver
            it now or a guest spinning on a protected page never takes
            another interrupt. *)
         kick t
       end
       else Stub.on_step_trap (get_stub t) ~pc
     | [] -> Stub.on_step_trap (get_stub t) ~pc)
  | Cpu.Undefined opcode ->
    span t Mon_cpu "undefined" @@ fun () ->
    world_switch t;
    reflect t ~vector:Isa.vec_undefined ~error:opcode ~return_pc:pc ~depth:0
  | Cpu.Machine_check _ ->
    (* A fetch or access beyond physical memory — the signature of a wild
       jump outside anything mapped. *)
    span t Mon_cpu "machine_check" @@ fun () ->
    world_switch t;
    escalate t ~cause:"machine_check" ~vector:Isa.vec_machine_check ~pc

let hook t _cpu event =
  (match event with
   | Cpu.Irq vector -> handle_real_irq t vector
   | Cpu.Fault (kind, pc) -> handle_fault t kind pc
   | Cpu.Soft_int (vector, next_pc) ->
     span t Mon_cpu "soft_int" @@ fun () ->
     world_switch t;
     t.c_cpu <- t.c_cpu + 1;
     reflect ~check_dpl:true t ~vector ~error:0 ~return_pc:next_pc ~depth:0
   | Cpu.Hypercall (imm, _) -> handle_hypercall t imm);
  Cpu.Handled

(* -- Profiling -- *)

(* The [qP] payload: the continuous profiler's dump.  Trailer: the block
   translator's cache counters ride along so a host profiling session
   sees translation behaviour without a separate query.
   [Profiler.parse_dump] keeps only [pc=...] bucket lines, so the extra
   line is transparent to existing consumers. *)
let profile_dump t =
  Profiler.dump (Machine.profiler t.machine)
  ^ Printf.sprintf
      "jit compiled=%d hits=%d invalidations=%d chains=%d fallbacks=%d\n"
      (Cpu.blocks_compiled t.cpu) (Cpu.block_hits t.cpu)
      (Cpu.block_invalidations t.cpu)
      (Cpu.block_chain_follows t.cpu)
      (Cpu.block_fallbacks t.cpu)

(* -- Lifecycle: watchdog, crash reporting, warm restart -- *)

let lifecycle t = t.lifecycle
let crashed t = match t.lifecycle with Crashed _ -> true | Healthy -> false

let watchdog_sample t () =
  {
    Watchdog.retired = Cpu.instructions_retired t.cpu;
    irq_acks = Pic.acks t.vcpu.Vcpu.vpic;
    interruptible = t.vcpu.Vcpu.v_if;
    halted = t.vcpu.Vcpu.v_halted;
    suspended = Cpu.stopped t.cpu || t.shutdown || crashed t;
  }

(* Watchdog verdict: the guest made no progress for the whole stall
   budget.  Force a break-in exactly like a debugger stop and tell the
   host why ([Wedged]); the full context stays readable via [qW]. *)
let on_wedge t ~stalled_periods =
  let pc = Cpu.pc t.cpu in
  t.last_wedge <- Some (pc, stalled_periods);
  emit_event t "monitor.watchdog" (Event.Wedge { pc });
  trace t Flight.Warn
    (Printf.sprintf
       "watchdog: no guest progress for %d periods; break-in at 0x%x"
       stalled_periods pc);
  (* A wedge of a healthy guest gets its own bundle; a crash bundle
     already frozen by [escalate] is never overwritten. *)
  if not (crashed t) then t.capture_bundle ~cause:"wedge";
  Stub.on_wedge (get_stub t) ~pc

let watchdog_start ?period_cycles ?max_stalled_periods t =
  (match t.watchdog with Some w -> Watchdog.stop w | None -> ());
  let config =
    {
      Watchdog.period_cycles =
        (match period_cycles with
         | Some c -> c
         | None -> Costs.cycles_of_seconds t.costs 0.001);
      max_stalled_periods = Option.value max_stalled_periods ~default:5;
    }
  in
  let w =
    Watchdog.create ~config
      ~engine:(Machine.engine t.machine)
      ~sample:(watchdog_sample t)
      ~on_wedge:(fun ~stalled_periods -> on_wedge t ~stalled_periods)
      ()
  in
  t.watchdog <- Some w;
  Watchdog.start w

(* The [qW] payload: flat [key=value] pairs, single tokens only, so the
   host side needs no quoting rules. *)
let watchdog_report t =
  let b = Buffer.create 128 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  (match t.lifecycle with
   | Healthy -> add "lifecycle=healthy"
   | Crashed { cause; vector; pc; chain } ->
     add "lifecycle=crashed cause=%s vector=%d pc=0x%x" cause vector pc;
     if chain <> [] then
       add " chain=%s"
         (String.concat ","
            (List.map (fun (v, p) -> Printf.sprintf "%d@0x%x" v p) chain)));
  (match t.watchdog with
   | None -> add " watchdog=off"
   | Some w ->
     add " watchdog=%s checks=%d stalled=%d stalled_total=%d breakins=%d"
       (if Watchdog.running w then "on" else "stopped")
       (Watchdog.checks w)
       (Watchdog.stalled_periods w)
       (Watchdog.stalled_total w) (Watchdog.breakins w));
  (match t.last_wedge with
   | Some (pc, periods) -> add " wedge_pc=0x%x wedge_periods=%d" pc periods
   | None -> ());
  add " restarts=%d" t.c_restarts;
  Buffer.contents b

(* -- Load-time static verification -- *)

(* The verifier sees exactly what the monitor enforces dynamically: the
   guest owns physical memory below [monitor_base], and may touch the
   emulated PIC/PIT/UART registers plus whatever was passed through. *)
let verify_config t =
  let emulated base = (base, base + 2) in
  {
    Verifier.guest_owns = Vm_layout.guest_owns t.vcpu.Vcpu.layout;
    allowed_ports =
      emulated Machine.Ports.pic :: emulated Machine.Ports.pit
      :: emulated Machine.Ports.uart
      :: List.map (fun { base; count } -> (base, base + count - 1)) t.passthrough;
    entry_ring = 0;
  }

let verify_guest t program ~entry =
  let report = Verifier.verify (verify_config t) ~entry program in
  t.c_verifies <- t.c_verifies + 1;
  t.last_verify <- Some report;
  if not report.Verifier.clean then
    trace t Flight.Warn
      (Printf.sprintf "static verifier: %d diagnostic(s) in the guest image"
         (List.length report.Verifier.diagnostics));
  report

(* The [qV] payload; same flat [key=value] shape as [qW].  When race
   witnessing is armed, a wire-compatible trailer reports the dynamic
   cross-validation state: sampled sites, observed windows, and one
   [wN=0xSTORE:COUNT] token per site actually witnessed. *)
let verify_report_text t =
  match t.last_verify with
  | None -> "analysis=off"
  | Some r ->
    let base = Verifier.summary r in
    if Array.length t.race_sites = 0 then base
    else begin
      let b = Buffer.create 160 in
      Buffer.add_string b base;
      Printf.bprintf b " witness=on wsites=%d wwindows=%d wseen=%d"
        (Array.length t.race_sites)
        t.c_race_windows t.c_race_witnessed;
      Array.iteri
        (fun i w ->
          if w.rw_witnessed > 0 then
            Printf.bprintf b " w%d=0x%x:%d" i w.rsite.Races.store_pc
              w.rw_witnessed)
        t.race_sites;
      Buffer.contents b
    end

(* Monitor exit counters, shadow state and the guest-side debug link
   join the machine registry (kvm_stat style: one place to read why the
   guest keeps exiting).  Called from [install] and again after every
   warm restart: registration goes through [Hashtbl.replace], so a
   re-registered callback supersedes the previous one for every
   subsystem — no gauge can keep reading state orphaned by a restart.
   (Today no subsystem is re-created on restart — devices, shadow,
   watchdog and stub are all reset in place, and every closure below
   reads through [t] — so re-registration is a safety net; the
   regression test in test_core pins the property.)  The vpic latency
   histogram is deliberately replaced fresh: pre-restart latencies
   describe a dead history line. *)
let register_metrics t =
  let registry = Machine.registry t.machine in
  let g name f = Vmm_obs.Registry.int_gauge registry name f in
  g "monitor_world_switches_total" (fun () -> t.c_world);
  g "monitor_pic_emulations_total" (fun () -> t.c_pic);
  g "monitor_pit_emulations_total" (fun () -> t.c_pit);
  g "monitor_cpu_emulations_total" (fun () -> t.c_cpu);
  g "monitor_io_emulations_total" (fun () -> t.c_io);
  g "monitor_reflected_irqs_total" (fun () -> t.c_irq);
  g "monitor_reflected_faults_total" (fun () -> t.c_fault);
  g "monitor_hypercalls_total" (fun () -> t.c_hyper);
  g "monitor_escalations_total" (fun () -> t.c_escal);
  g "monitor_injected_faults_total" (fun () -> t.c_inject);
  g "shadow_fills_total" (fun () -> Shadow.fills t.vcpu.Vcpu.shadow);
  g "shadow_mappings" (fun () -> Shadow.mappings t.vcpu.Vcpu.shadow);
  g "stublink_retransmits_total" (fun () ->
      (Stub.link_stats (get_stub t)).Vmm_proto.Reliable.retransmits);
  g "stublink_bad_checksums_total" (fun () ->
      (Stub.link_stats (get_stub t)).Vmm_proto.Reliable.bad_checksums);
  g "stublink_duplicates_dropped_total" (fun () ->
      (Stub.link_stats (get_stub t)).Vmm_proto.Reliable.duplicates_dropped);
  g "stublink_resets_total" (fun () ->
      (Stub.link_stats (get_stub t)).Vmm_proto.Reliable.link_resets);
  g "stublink_downs_total" (fun () -> Stub.link_downs (get_stub t));
  g "stub_commands_handled_total" (fun () ->
      Stub.commands_handled (get_stub t));
  g "stub_notifications_sent_total" (fun () ->
      Stub.notifications_sent (get_stub t));
  Pic.set_latency_probe t.vcpu.Vcpu.vpic
    ~now:(fun () -> Vmm_sim.Engine.now (Machine.engine t.machine))
    ~observe:
      (let h =
         Vmm_obs.Registry.histogram registry "vpic_delivery_latency_cycles"
           ~buckets:64 ~width:2000.0
       in
       Vmm_sim.Stats.observe h);
  g "vpic_irqs_raised_total" (fun () -> Pic.raises t.vcpu.Vcpu.vpic);
  g "vpic_irqs_acked_total" (fun () -> Pic.acks t.vcpu.Vcpu.vpic);
  (* Lifecycle & recovery: is the guest quarantined, has the watchdog
     fired, how many warm restarts — the gauntlet's vital signs. *)
  g "monitor_crashes_total" (fun () -> t.c_crashes);
  g "monitor_restarts_total" (fun () -> t.c_restarts);
  g "monitor_crash_bundles_total" (fun () -> t.c_bundles);
  g "monitor_checkpoints_total" (fun () -> t.c_checkpoints);
  g "monitor_checkpoints_held" (fun () -> List.length t.checkpoints);
  g "monitor_checkpoint_pages_copied_total" (fun () ->
      Snapshot.Pages.copied t.pages);
  g "monitor_restore_pages_written_total" (fun () ->
      Snapshot.Pages.written t.pages);
  g "stub_reverse_ops_total" (fun () -> Stub.reverse_ops (get_stub t));
  g "monitor_lifecycle_crashed" (fun () -> if crashed t then 1 else 0);
  g "watchdog_checks_total" (fun () ->
      match t.watchdog with Some w -> Watchdog.checks w | None -> 0);
  g "watchdog_stalled_periods_total" (fun () ->
      match t.watchdog with Some w -> Watchdog.stalled_total w | None -> 0);
  g "watchdog_breakins_total" (fun () ->
      match t.watchdog with Some w -> Watchdog.breakins w | None -> 0);
  (* Load-time static verification of the booted image. *)
  g "analysis_runs_total" (fun () -> t.c_verifies);
  g "analysis_clean" (fun () ->
      match t.last_verify with
      | Some r -> if r.Verifier.clean then 1 else 0
      | None -> 0);
  g "analysis_diagnostics" (fun () ->
      match t.last_verify with
      | Some r -> List.length r.Verifier.diagnostics
      | None -> 0);
  g "analysis_instructions" (fun () ->
      match t.last_verify with
      | Some r -> r.Verifier.instructions
      | None -> 0);
  g "analysis_blocks" (fun () ->
      match t.last_verify with Some r -> r.Verifier.blocks | None -> 0);
  (* Interprocedural race pass + its dynamic cross-validation. *)
  g "analysis_race_sites" (fun () ->
      match t.last_verify with
      | Some r -> List.length r.Verifier.race_sites
      | None -> 0);
  g "analysis_summary_incomplete" (fun () ->
      match t.last_verify with
      | Some r -> r.Verifier.summary_incomplete
      | None -> 0);
  g "race_witness_armed_sites" (fun () -> Array.length t.race_sites);
  g "race_windows_total" (fun () -> t.c_race_windows);
  g "race_witnessed_total" (fun () -> t.c_race_witnessed);
  (* Virtual breakpoints: armed footprint plus the fault economics
     (faults = hits + step-throughs; steps/hit is the overhead of
     sharing a hot page with unrelated code). *)
  let vbps f =
    match t.stub with Some stub -> f (Stub.breakpoints stub) | None -> 0
  in
  g "bp_virtual_armed_sites" (fun () -> vbps Breakpoints.count);
  g "bp_virtual_armed_pages" (fun () ->
      vbps (fun bps -> List.length (Breakpoints.armed_pages bps)));
  g "bp_virtual_exec_faults_total" (fun () -> t.c_vbp_faults);
  g "bp_virtual_hits_total" (fun () -> t.c_vbp_hits);
  g "bp_virtual_step_throughs_total" (fun () -> t.c_vbp_steps)

(* -- Mid-run checkpoints & reverse execution --

   A checkpoint is a full guest-visible freeze ({!Snapshot.Full}):
   memory image, CPU context, the monitor's virtualized privileged
   state, and device state with relative DMA offsets.  Restoring one is
   a {e forward} time-shift — the engine clock never rewinds; the device
   restores re-arm their pending completions at [now + remaining] and
   the epoch guards orphan whatever was in flight — so reverse-step and
   reverse-continue become "restore, then deterministically re-execute
   to an instruction boundary". *)

let mon_state { vcpu = v; console_buf; _ } =
  {
    Snapshot.Full.v_if = v.Vcpu.v_if;
    v_iht = v.Vcpu.v_iht;
    v_ptb = v.Vcpu.v_ptb;
    v_cpl = v.Vcpu.v_cpl;
    v_stacks = Array.copy v.Vcpu.v_stacks;
    v_halted = v.Vcpu.v_halted;
    console = Buffer.contents console_buf;
  }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let capture_full t =
  Snapshot.Full.capture ~machine:t.machine ~pages:t.pages ~vpic:t.vcpu.Vcpu.vpic
    ~vpit:t.vcpu.Vcpu.vpit
    ~link:(Stub.endpoint (get_stub t))
    ~mon:(mon_state t)

let checkpoint_now t =
  let full = capture_full t in
  t.c_checkpoints <- t.c_checkpoints + 1;
  emit_event t "monitor.ckpt"
    (Event.Checkpoint
       { index = t.c_checkpoints; retired = Snapshot.Full.retired full });
  t.checkpoints <- full :: take (t.checkpoint_keep - 1) t.checkpoints;
  full

let checkpoint_start ?period_cycles ?(keep = 8) t =
  let period =
    match period_cycles with
    | Some c -> c
    | None -> Costs.cycles_of_seconds t.costs 0.001
  in
  t.checkpoint_gen <- t.checkpoint_gen + 1;
  t.checkpoint_keep <- max 1 keep;
  let gen = t.checkpoint_gen in
  ignore (checkpoint_now t);
  let engine = Machine.engine t.machine in
  let rec arm () =
    ignore
      (Vmm_sim.Engine.after engine ~delay:period (fun () ->
           if gen = t.checkpoint_gen then begin
             (* Skip while quarantined (the crash context must stay
                frozen), while a reverse operation is re-executing
                history (those instructions were already captured), and
                while the guest is stopped by the debugger (its state is
                not changing, and a checkpoint captured on the current
                boundary would let [rc] skip re-execution — and with it
                any breakpoint planted in history). *)
             (if
                (not (crashed t))
                && (not (Stub.replaying (get_stub t)))
                && not (Cpu.stopped (Machine.cpu t.machine))
              then ignore (checkpoint_now t));
             arm ()
           end))
  in
  arm ()

(* Monitor-side state that belongs to the old guest's execution rather
   than to any guest state: a crash verdict, a half-finished monitor
   step.  Dropped whenever a guest state is booted or loaded (each of
   which also flushes the shadow). *)
let forget_execution t =
  t.lifecycle <- Healthy;
  t.shutdown <- false;
  t.reprotect_pages <- [];
  t.mon_step_only <- false;
  t.watch_resume <- None;
  t.vbp_pass <- None;
  match t.watchdog with Some w -> Watchdog.note_reset w | None -> ()

(* Put the guest back to [full] — boot state or mid-run checkpoint —
   while the debug plane (stub, breakpoint table, reliable link, host
   session) stays exactly as it is: the link state in [full] is never
   loaded, and armed breakpoints re-arm lazily on the cleared shadow.
   Only the pages that may differ are written, through the normal store
   path, so cached ops on those pages invalidate and cached ops on the
   others stay valid; the shadow flush's [set_ptb] still flushes the
   TLB.  A checkpoint whose page count does not
   match this layout is refused before any state changes.  The
   instruction counter is left to the caller. *)
let load_state t (full : Snapshot.Full.t) =
  Snapshot.Pages.restore t.pages full.Snapshot.Full.image;
  Array.iteri (Cpu.write_reg t.cpu) full.Snapshot.Full.regs;
  Cpu.set_flags_word t.cpu full.Snapshot.Full.flags;
  Cpu.set_cpl t.cpu full.Snapshot.Full.cpl;
  Cpu.set_pc t.cpu full.Snapshot.Full.pc;
  Cpu.set_halted t.cpu full.Snapshot.Full.halted;
  Cpu.set_trap_flag t.cpu false;
  Cpu.set_interrupts_enabled t.cpu true;
  let mon = full.Snapshot.Full.mon and v = t.vcpu in
  v.Vcpu.v_if <- mon.Snapshot.Full.v_if;
  v.Vcpu.v_iht <- mon.Snapshot.Full.v_iht;
  v.Vcpu.v_ptb <- mon.Snapshot.Full.v_ptb;
  v.Vcpu.v_cpl <- mon.Snapshot.Full.v_cpl;
  Array.blit mon.Snapshot.Full.v_stacks 0 v.Vcpu.v_stacks 0
    (Array.length v.Vcpu.v_stacks);
  v.Vcpu.v_halted <- mon.Snapshot.Full.v_halted;
  Buffer.clear t.console_buf;
  Buffer.add_string t.console_buf mon.Snapshot.Full.console;
  Pic.restore v.Vcpu.vpic full.Snapshot.Full.vpic;
  Pit.restore_phase v.Vcpu.vpit full.Snapshot.Full.vpit;
  Pic.restore (Machine.pic t.machine) full.Snapshot.Full.pic;
  Pit.restore_phase (Machine.pit t.machine) full.Snapshot.Full.pit;
  Scsi.restore (Machine.scsi t.machine) full.Snapshot.Full.scsi;
  Nic.restore (Machine.nic t.machine) full.Snapshot.Full.nic;
  Vcpu.flush_shadow v;
  forget_execution t

let restore_checkpoint t (full : Snapshot.Full.t) =
  load_state t full;
  Cpu.set_instructions_retired t.cpu full.Snapshot.Full.retired;
  trace t Flight.Info
    (Printf.sprintf "checkpoint restored: retired=%Ld pc=0x%x"
       full.Snapshot.Full.retired full.Snapshot.Full.pc)

(* Warm restart: load the boot state.  The instruction counter keeps
   counting, so it stays monotone across restarts. *)
let restart_guest t =
  match t.boot_state with
  | None -> false
  | Some boot ->
    trace t Flight.Info
      (Printf.sprintf "warm restart: reloading guest image, entry 0x%x"
         boot.Snapshot.Full.pc);
    load_state t boot;
    Cpu.set_stopped t.cpu false;
    t.c_restarts <- t.c_restarts + 1;
    (* Pre-restart checkpoints describe a dead history line. *)
    t.checkpoints <- [];
    (* The stub forgets any stop state; its breakpoints re-arm lazily
       on the cleared shadow. *)
    Stub.note_restart (get_stub t);
    (* Re-register every gauge so a restarted world never serves metric
       reads through callbacks registered against superseded state. *)
    register_metrics t;
    (* The restored memory is the boot image again: re-verify so the qV
       report always describes what is actually running. *)
    (match t.boot_image with
    | Some (p, entry) -> ignore (verify_guest t p ~entry)
    | None -> ());
    true

(* -- Crash bundles --

   One self-describing text artifact freezing the moment of death: the
   crash/watchdog report, the flight ring (the last events before the
   verdict), the continuous profile, a full-snapshot digest of
   guest-visible state, the tail of the replay trace (when recording)
   and the metrics registry.  Captured eagerly on the first escalation
   and on every watchdog break-in of a healthy guest; retrievable over
   [qR] and saved by the gauntlet next to its replay traces. *)

let bundle_trace_tail = 64

(* The [static-races] bundle section: the verifier's race sites with the
   dynamic cross-validation verdict folded in, one {!Races.render_site}
   line each, so post-mortem triage reads the warnings next to the
   flight ring that may have witnessed them. *)
let static_races_text t =
  match t.last_verify with
  | None -> "analysis=off\n"
  | Some r ->
    let b = Buffer.create 256 in
    Printf.bprintf b "sites=%d sampled=%d windows=%d witnessed=%d\n"
      (List.length r.Verifier.race_sites)
      (Array.length t.race_sites)
      t.c_race_windows t.c_race_witnessed;
    List.iter
      (fun (s : Races.site) ->
        let watch =
          Array.fold_left
            (fun acc w ->
              if
                w.rsite.Races.load_pc = s.Races.load_pc
                && w.rsite.Races.store_pc = s.Races.store_pc
                && w.rsite.Races.vector = s.Races.vector
              then Some w
              else acc)
            None t.race_sites
        in
        let status, windows =
          match watch with
          | Some w when w.rw_witnessed > 0 -> ("witnessed", w.rw_windows)
          | Some w -> ("static", w.rw_windows)
          | None -> ("static", 0)
        in
        Printf.bprintf b "%s\n" (Races.render_site ~status ~windows s))
      r.Verifier.race_sites;
    Buffer.contents b

let compose_crash_bundle t ~cause =
  let machine = t.machine in
  (* Close spans left open by the interrupted scopes into the tracer
     buffer, so the bundle's event view includes them. *)
  let spans_flushed = Vmm_obs.Tracer.flush_open_spans (Machine.tracer machine) in
  let full = capture_full t in
  let snapshot_text =
    Printf.sprintf "digest=%Lx retired=%Ld pc=0x%x spans_flushed=%d\n"
      (Snapshot.Full.digest full) (Snapshot.Full.retired full)
      full.Snapshot.Full.pc spans_flushed
  in
  let trace_tail =
    let events = Recorder.recorded (Machine.recorder machine) in
    let n = List.length events in
    let tail =
      if n <= bundle_trace_tail then events
      else List.filteri (fun i _ -> i >= n - bundle_trace_tail) events
    in
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf "recorded=%d shown=%d\n" n (List.length tail));
    List.iter
      (fun e -> Buffer.add_string b (Format.asprintf "%a\n" Event.pp e))
      tail;
    Buffer.contents b
  in
  Bundle.compose ~cause
    ~cycle:(Vmm_sim.Engine.now (Machine.engine machine))
    [
      Bundle.section ~name:"crash-report" (watchdog_report t);
      Bundle.section ~name:"flight" (Flight.dump (Machine.flight machine));
      Bundle.section ~name:"profile" (profile_dump t);
      Bundle.section ~name:"snapshot-digest" snapshot_text;
      Bundle.section ~name:"trace-tail" trace_tail;
      Bundle.section ~name:"static-races" (static_races_text t);
      Bundle.section ~name:"metrics"
        (Vmm_obs.Registry.dump (Machine.registry machine));
    ]

let capture_crash_bundle t ~cause =
  t.c_bundles <- t.c_bundles + 1;
  t.last_bundle <- Some (compose_crash_bundle t ~cause)

let crash_bundle t = t.last_bundle
let flight_report t = Flight.dump (Machine.flight t.machine)

(* The [qR] payload: the post-mortem bundle once one exists (sticky
   across warm restarts), the live flight ring otherwise. *)
let flight_query t =
  match t.last_bundle with
  | Some bundle -> bundle
  | None -> flight_report t

(* -- Stub target -- *)

let vbp_sync_page t addr = Vcpu.shadow_unmap t.vcpu [ addr land lnot 0xFFF ]

(* -- Race-witness arming --

   Observe-only virtual breakpoints on a sample of the statically
   reported race sites.  Virtual mode only: arming is a shadow-unmap
   (the page re-fills NX), so nothing touches guest text and the replay
   stream is unchanged — witnessing writes to the flight ring, never to
   the recorder. *)

let race_sample_cap = 8

let disarm_race_sites t =
  (match t.stub with
  | Some stub ->
    let bps = Stub.breakpoints stub in
    Array.iter
      (fun w ->
        if Breakpoints.remove_observe bps ~addr:w.rsite.Races.load_pc then
          vbp_sync_page t w.rsite.Races.load_pc)
      t.race_sites
  | None -> ());
  t.race_sites <- [||]

let arm_race_sites t =
  disarm_race_sites t;
  if t.race_witness then
    match (t.stub, t.last_verify) with
    | Some stub, Some r ->
      let sample = take race_sample_cap r.Verifier.race_sites in
      t.race_sites <-
        Array.of_list
          (List.map
             (fun rsite -> { rsite; rw_windows = 0; rw_witnessed = 0 })
             sample);
      let bps = Stub.breakpoints stub in
      Array.iter
        (fun w ->
          if Breakpoints.add_observe bps ~addr:w.rsite.Races.load_pc then
            vbp_sync_page t w.rsite.Races.load_pc)
        t.race_sites
    | _ -> ()

let set_race_witness t flag =
  t.race_witness <- flag;
  if flag then arm_race_sites t else disarm_race_sites t

let race_witness_sites t = Array.length t.race_sites
let race_windows t = t.c_race_windows
let race_witnessed t = t.c_race_witnessed

let make_target t =
  {
    Stub.read_registers =
      (fun () ->
        Array.init 18 (fun i ->
            if i < 16 then Cpu.read_reg t.cpu i
            else if i = 16 then Cpu.pc t.cpu
            else guest_flags_word t));
    write_register =
      (fun idx v ->
        if idx < 0 || idx > 17 then false
        else begin
          (if idx < 16 then Cpu.write_reg t.cpu idx v
           else if idx = 16 then Cpu.set_pc t.cpu v
           else Vcpu.set_flags_word t.vcpu v);
          true
        end);
    read_memory = (fun ~addr ~len -> guest_read t ~addr ~len);
    write_memory = (fun ~addr ~data -> guest_write t ~addr ~data);
    current_pc = (fun () -> Cpu.pc t.cpu);
    stop = (fun () -> Cpu.set_stopped t.cpu true);
    resume =
      (fun () ->
        Cpu.set_stopped t.cpu false;
        (match t.watch_resume with
         | Some page ->
           t.watch_resume <- None;
           unprotect_for_step ~for_write:true t page
         | None -> ());
        kick t);
    set_step = (fun flag -> Cpu.set_trap_flag t.cpu flag);
    read_console =
      (fun () ->
        let text = Buffer.contents t.console_buf in
        Buffer.clear t.console_buf;
        text);
    read_profile = (fun () -> profile_dump t);
    set_watch =
      (fun ~addr ~len ->
        if len <= 0 || not (Watchpoints.add t.watchpoints ~addr ~len) then
          false
        else begin
          Vcpu.shadow_unmap t.vcpu (Watchpoints.pages_of ~addr ~len);
          true
        end);
    clear_watch =
      (fun ~addr ~len ->
        if Watchpoints.remove t.watchpoints ~addr ~len then begin
          (* Drop the read-only shadow entries; the next fault refills
             them with the guest's real permissions. *)
          Vcpu.shadow_unmap t.vcpu (Watchpoints.pages_of ~addr ~len);
          true
        end
        else false);
    send_byte =
      (fun byte ->
        with_cat t Stub @@ fun () ->
        charge t t.costs.Costs.port_io;
        Uart.io_write (Machine.uart t.machine) 0 byte);
    charge = (fun cycles -> with_cat t Stub (fun () -> charge t cycles));
    note_flight = (fun detail -> flight_note t "stub.cmd" (Flight.Text detail));
    query_watchdog = (fun () -> watchdog_report t);
    query_verify = (fun () -> verify_report_text t);
    query_flight = (fun () -> flight_query t);
    restart = (fun () -> restart_guest t);
    crashed = (fun () -> crashed t);
    retired = (fun () -> Cpu.instructions_retired t.cpu);
    checkpoint_restore =
      (fun ~max_retired ->
        (* Newest first: the first eligible checkpoint minimizes the
           re-execution distance. *)
        let rec find = function
          | [] -> None
          | full :: rest ->
            if Int64.compare (Snapshot.Full.retired full) max_retired <= 0
            then Some full
            else find rest
        in
        match find t.checkpoints with
        | None -> None
        | Some full ->
          restore_checkpoint t full;
          Some (Snapshot.Full.retired full));
    set_retire_stop =
      (fun spec ->
        match spec with
        | None -> Cpu.set_retire_stop t.cpu None
        | Some target ->
          Cpu.set_retire_stop t.cpu
            (Some
               ( target,
                 fun cpu ->
                   Stub.on_retire_stop (get_stub t) ~pc:(Cpu.pc cpu) )));
    set_replay_mute =
      (fun flag -> Recorder.set_muted (Machine.recorder t.machine) flag);
    (* Arming and disarming both just resync the page: drop its shadow
       mapping and flush the TLB, so the next fetch refills with NX
       recomputed from the live table. *)
    vbp_arm = (fun ~page -> vbp_sync_page t page);
    vbp_disarm = (fun ~page -> vbp_sync_page t page);
    vbp_pass = (fun ~pc -> t.vbp_pass <- Some pc);
  }

(* -- Construction -- *)

let install ?(passthrough = default_passthrough) machine =
  (* The virtual PIT's expiry is a virtual IRQ, which needs [t]. *)
  let on_timer = ref ignore in
  let vcpu = Vcpu.create machine ~timer_irq:(fun () -> !on_timer ()) in
  let cpu = vcpu.Vcpu.cpu and costs = vcpu.Vcpu.costs in
  let t =
    {
      machine;
      cpu;
      costs;
      vcpu;
      stub = None;
      watchpoints = Watchpoints.create ();
      reprotect_pages = [];
      mon_step_only = false;
      watch_resume = None;
      vbp_pass = None;
      console_buf = Buffer.create 256;
      shutdown = false;
      passthrough;
      boot_image = None;
      last_verify = None;
      c_verifies = 0;
      race_witness = false;
      race_sites = [||];
      c_race_windows = 0;
      c_race_witnessed = 0;
      lifecycle = Healthy;
      boot_state = None;
      power_on = (fun () -> ());
      checkpoints = [];
      pages =
        Snapshot.Pages.create (Machine.mem machine)
          ~len:vcpu.Vcpu.layout.Vm_layout.monitor_base;
      checkpoint_keep = 8;
      checkpoint_gen = 0;
      c_checkpoints = 0;
      watchdog = None;
      last_wedge = None;
      c_world = 0;
      c_pic = 0;
      c_pit = 0;
      c_cpu = 0;
      c_io = 0;
      c_irq = 0;
      c_fault = 0;
      c_hyper = 0;
      c_escal = 0;
      c_vbp_faults = 0;
      c_vbp_hits = 0;
      c_vbp_steps = 0;
      c_inject = 0;
      c_crashes = 0;
      c_restarts = 0;
      c_bundles = 0;
      last_bundle = None;
      capture_bundle = (fun ~cause:_ -> ());
    }
  in
  t.capture_bundle <- (fun ~cause -> capture_crash_bundle t ~cause);
  on_timer := (fun () -> virtual_irq t Machine.Irq.timer);
  let vpic = vcpu.Vcpu.vpic and vpit = vcpu.Vcpu.vpit in
  let vpic0 = Pic.capture vpic and vpit0 = Pit.capture_phase vpit in
  let scsi0 = Scsi.capture (Machine.scsi machine)
  and nic0 = Nic.capture (Machine.nic machine) in
  t.power_on <-
    (fun () ->
      Pic.restore vpic vpic0;
      Pit.restore_phase vpit vpit0;
      Scsi.restore (Machine.scsi machine) scsi0;
      Nic.restore (Machine.nic machine) nic0);
  t.stub <-
    Some
      (Stub.create
         ~link_config:
           { Vmm_proto.Reliable.default_config with
             Vmm_proto.Reliable.byte_cycles = costs.Costs.uart_cycles_per_byte
           }
         ~target:(make_target t) ~dispatch_cost:costs.Costs.stub_dispatch
         ~engine:(Machine.engine machine) ());
  register_metrics t;
  (* Open direct device access; everything else traps. *)
  List.iter
    (fun { base; count } ->
      for port = base to base + count - 1 do
        Cpu.allow_port cpu port true
      done)
    passthrough;
  (* The debug UART interrupts the monitor on every received byte. *)
  Uart.io_write (Machine.uart machine) 2 1;
  Cpu.set_hypervisor cpu (Some (hook t));
  t

let boot_guest t program ~entry =
  Vcpu.boot t.vcpu program ~entry;
  t.power_on ();
  Buffer.clear t.console_buf;
  t.last_wedge <- None;
  t.last_bundle <- None;
  t.checkpoints <- [];
  forget_execution t;
  (* The image is loaded, the registers are zero and the devices at
     power-on: exactly the state a warm restart must reproduce.  Not a
     [checkpoint_now]: the boot state is no checkpoint of the run. *)
  t.boot_state <- Some (capture_full t);
  (* Static verification of the image just loaded (record-only: the
     report is queryable over qV and published as analysis_* gauges, but
     never blocks the boot). *)
  t.boot_image <- Some (program, entry);
  ignore (verify_guest t program ~entry);
  (* Re-sample race sites against the image just loaded.  (A warm
     restart needs no re-arm: the observe table is stub state and the
     shadow clear re-arms every observed page NX on its first fill.) *)
  if t.race_witness then arm_race_sites t;
  trace t Flight.Info
    (Printf.sprintf "guest booted at 0x%x (ring 1, shadow paging)" entry)

(* -- Accessors -- *)

let guest_interrupts_enabled t = t.vcpu.Vcpu.v_if
let guest_cpl t = t.vcpu.Vcpu.v_cpl
let guest_iht t = t.vcpu.Vcpu.v_iht
let guest_ptb t = t.vcpu.Vcpu.v_ptb
let guest_halted t = t.vcpu.Vcpu.v_halted
let stub t = get_stub t
let machine t = t.machine
let layout t = t.vcpu.Vcpu.layout
let shadow t = t.vcpu.Vcpu.shadow

let stats t =
  {
    world_switches = t.c_world;
    pic_emulations = t.c_pic;
    pit_emulations = t.c_pit;
    cpu_emulations = t.c_cpu;
    io_emulations = t.c_io;
    shadow_fills = Shadow.fills t.vcpu.Vcpu.shadow;
    reflected_irqs = t.c_irq;
    reflected_faults = t.c_fault;
    hypercalls = t.c_hyper;
    escalations = t.c_escal;
    link_retransmits = (Stub.link_stats (get_stub t)).Vmm_proto.Reliable.retransmits;
    link_bad_checksums =
      (Stub.link_stats (get_stub t)).Vmm_proto.Reliable.bad_checksums;
    link_resets = (Stub.link_stats (get_stub t)).Vmm_proto.Reliable.link_resets;
    link_downs = Stub.link_downs (get_stub t);
    injected_faults = t.c_inject;
    wedge_breakins =
      (match t.watchdog with Some w -> Watchdog.breakins w | None -> 0);
    crashes = t.c_crashes;
    restarts = t.c_restarts;
  }

let console t = Buffer.contents t.console_buf
let shutdown_requested t = t.shutdown

let watchpoints t = t.watchpoints
