(* Pass 2 of the guest-image static verifier: a small abstract
   interpreter over the recovered CFG.

   Per-instruction abstract state: one {!Domain.value} per register, a
   bitmask of possible privilege rings, and the current function's stack
   discipline (push depth plus the abstract values of the top slots).
   The worklist iterates to a fixpoint (interval hulls are widened to
   Top after a few joins per address), interrupt-gate handlers found
   through constant [Liht] values become new roots at the gate's target
   ring, and [Iret] with a fully-constant frame on the abstract stack is
   followed to the returned-to ring — this is how the ring-3 application
   entered via the boot-time iret is discovered.

   All diagnostics are emitted in a separate pass over the *fixpoint*
   states, so partially-converged intervals never flag: only a bounded
   value in the final state can prove a violation. *)

module Isa = Vmm_hw.Isa
module Asm = Vmm_hw.Asm
module Ports = Vmm_hw.Machine.Ports
module Symbols = Vmm_debugger.Symbols

type diag_class =
  | Monitor_store
  | Privileged_reach
  | Stack_unbalanced
  | Text_write
  | Control_flow
  | Port_io
  | Irq_race
  | Unbalanced_mask

type diagnostic = { cls : diag_class; addr : int; detail : string }

type report = {
  clean : bool;
  diagnostics : diagnostic list;
  instructions : int;
  blocks : int;
  functions : int;
  roots : int;
  summaries : int;
  summary_incomplete : int;
  race_sites : Races.site list;
  timings : (string * float) list;
}

type config = {
  guest_owns : int -> bool;
  allowed_ports : (int * int) list;
  entry_ring : int;
}

(* The machine's device ports: PIC/PIT/UART (trapped and emulated under
   the monitor) plus the full SCSI and NIC register files (passed
   through).  Inclusive ranges. *)
let default_ports =
  [
    (Ports.pic, Ports.pic + 2);
    (Ports.pit, Ports.pit + 2);
    (Ports.uart, Ports.uart + 2);
    (Ports.scsi, Ports.scsi + 6);
    (Ports.nic, Ports.nic + 7);
  ]

let class_name = function
  | Monitor_store -> "monitor-store"
  | Privileged_reach -> "privileged"
  | Stack_unbalanced -> "stack"
  | Text_write -> "text-write"
  | Control_flow -> "control-flow"
  | Port_io -> "port-io"
  | Irq_race -> "irq-race"
  | Unbalanced_mask -> "unbalanced-mask"

(* ---------------------------------------------------------------- *)
(* Abstract state                                                    *)

type astate = {
  regs : Domain.value array;  (* 16 registers *)
  rings : int;  (* bitmask of possible privilege rings *)
  depth : int;  (* words pushed since function entry; -1 = unknown *)
  stack : Domain.value list;  (* abstract top slots, most recent first *)
}

let widen_after = 6
let stack_cap = 32

let fresh_state ~rings =
  { regs = Array.make Isa.num_regs Domain.top; rings; depth = 0; stack = [] }

let state_equal a b =
  a.rings = b.rings && a.depth = b.depth
  && Array.for_all2 Domain.equal a.regs b.regs
  && List.length a.stack = List.length b.stack
  && List.for_all2 Domain.equal a.stack b.stack

let state_join a b =
  let stack =
    if a.depth = b.depth && List.length a.stack = List.length b.stack then
      List.map2 Domain.join a.stack b.stack
    else []
  in
  {
    regs = Array.init Isa.num_regs (fun i -> Domain.join a.regs.(i) b.regs.(i));
    rings = a.rings lor b.rings;
    depth = (if a.depth = b.depth then a.depth else -1);
    stack;
  }

(* After [widen_after] changes at one address, snap every still-moving
   register (and the tracked stack) to Top so the fixpoint terminates. *)
let widen old j =
  {
    j with
    regs =
      Array.init Isa.num_regs (fun i ->
          if Domain.equal old.regs.(i) j.regs.(i) then j.regs.(i) else Domain.top);
    stack =
      (if
         List.length old.stack = List.length j.stack
         && List.for_all2 Domain.equal old.stack j.stack
       then j.stack
       else []);
  }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* ---------------------------------------------------------------- *)

(* [clock] feeds the per-pass timings in the report; the default is a
   constant so library users stay deterministic (the bench passes a real
   clock). *)
let verify_image ?(clock = fun () -> 0.) config ~origin ?entry image =
  let t0 = clock () in
  let entry = match entry with Some e -> e | None -> origin in
  let cfg = Cfg.create ~origin image in
  let states : (int, astate) Hashtbl.t = Hashtbl.create 512 in
  let join_counts : (int, int) Hashtbl.t = Hashtbl.create 512 in
  let work = Queue.create () in
  let queued = Hashtbl.create 512 in
  let iht_bases = Hashtbl.create 4 in
  (* raw material for the interprocedural stage: IHT gates and the
     constant-frame iret edges the fixpoint discovers *)
  let gates = ref [] in
  let iret_roots = ref [] in
  let enqueue a =
    if not (Hashtbl.mem queued a) then begin
      Hashtbl.add queued a ();
      Queue.add a work
    end
  in
  let propagate a st =
    if Cfg.instr_at cfg a <> None then
      match Hashtbl.find_opt states a with
      | None ->
        Hashtbl.replace states a st;
        enqueue a
      | Some old ->
        let j = state_join old st in
        if not (state_equal j old) then begin
          let c =
            (match Hashtbl.find_opt join_counts a with Some c -> c | None -> 0)
            + 1
          in
          Hashtbl.replace join_counts a c;
          let j = if c > widen_after then widen old j else j in
          Hashtbl.replace states a j;
          enqueue a
        end
  in
  let add_abs_root a st =
    Cfg.add_root cfg a;
    propagate a st
  in

  (* One transfer-function application (no diagnostics here — those run
     over the fixpoint states afterwards). *)
  let step a st =
    match Cfg.instr_at cfg a with
    | None -> ()
    | Some i ->
      let regs = Array.copy st.regs in
      let get r = regs.(r) in
      let set r v = regs.(r) <- v in
      let depth = ref st.depth and stack = ref st.stack in
      let push v =
        set Isa.sp (Domain.sub (get Isa.sp) (Domain.const 4));
        if !depth >= 0 then begin
          depth := !depth + 1;
          stack := v :: take (stack_cap - 1) !stack
        end
      in
      let pop () =
        set Isa.sp (Domain.add (get Isa.sp) (Domain.const 4));
        let v =
          match !stack with
          | v :: rest ->
            stack := rest;
            v
          | [] -> Domain.top
        in
        if !depth > 0 then decr depth
        else if !depth = 0 then begin
          (* underflow: the fixpoint state at this address keeps depth 0,
             which the check pass flags; downstream is unknown. *)
          depth := -1;
          stack := []
        end;
        v
      in
      let clobber () = Array.fill regs 0 Isa.num_regs Domain.top in
      (match i with
      | Isa.Movi (rd, imm) -> set rd (Domain.const imm)
      | Isa.Mov (rd, rs) -> set rd (get rs)
      | Isa.Add (rd, r1, r2) -> set rd (Domain.add (get r1) (get r2))
      | Isa.Addi (rd, rs, imm) -> set rd (Domain.add (get rs) (Domain.const imm))
      | Isa.Sub (rd, r1, r2) -> set rd (Domain.sub (get r1) (get r2))
      | Isa.And_ (rd, r1, r2) -> set rd (Domain.logand (get r1) (get r2))
      | Isa.Or_ (rd, r1, r2) -> set rd (Domain.logor (get r1) (get r2))
      | Isa.Xor_ (rd, r1, r2) -> set rd (Domain.logxor (get r1) (get r2))
      | Isa.Shl (rd, r1, r2) -> set rd (Domain.shl (get r1) (get r2))
      | Isa.Shr (rd, r1, r2) -> set rd (Domain.shr (get r1) (get r2))
      | Isa.Mul (rd, r1, r2) -> set rd (Domain.mul (get r1) (get r2))
      | Isa.Ld (rd, _, _) | Isa.Ldb (rd, _, _) -> set rd Domain.top
      | Isa.In_ (rd, _) | Isa.Ini (rd, _) -> set rd Domain.top
      | Isa.Csum (rd, _, _) | Isa.Rdtsc rd -> set rd Domain.top
      | Isa.Push r -> push (get r)
      | Isa.Pop r ->
        let v = pop () in
        set r v
      | Isa.Int_ _ | Isa.Vmcall _ ->
        (* handler/monitor round trip: registers are clobbered, but the
           frame slots above the stack pointer survive. *)
        clobber ()
      | Isa.Liht r -> (
        match Domain.is_const (get r) with
        | Some base -> Hashtbl.replace iht_bases base ()
        | None -> ())
      | Isa.Nop | Isa.Hlt | Isa.Cmp _ | Isa.Cmpi _ | Isa.St _ | Isa.Stb _
      | Isa.Jmp _ | Isa.Jz _ | Isa.Jnz _ | Isa.Jlt _ | Isa.Jge _ | Isa.Jb _
      | Isa.Jae _ | Isa.Jr _ | Isa.Call _ | Isa.Ret | Isa.Out _ | Isa.Outi _
      | Isa.Iret | Isa.Sti | Isa.Cli | Isa.Lptb _ | Isa.Lstk _ | Isa.Tlbflush
      | Isa.Copy _ | Isa.Brk ->
        ());
      let st' = { regs; rings = st.rings; depth = !depth; stack = !stack } in
      (match Cfg.flow_of i with
      | Cfg.Call_to target ->
        let succs = Cfg.successors cfg a in
        if List.mem target succs then
          (* callee: fresh frame, caller's registers *)
          propagate target
            { regs = Array.copy regs; rings = st.rings; depth = 0; stack = [] };
        let next = a + Isa.width in
        if List.mem next succs && next <> target then
          (* back from a balanced callee: registers clobbered, the
             caller's frame shape survives but its values may not. *)
          propagate next
            {
              regs = Array.make Isa.num_regs Domain.top;
              rings = st.rings;
              depth = !depth;
              stack = List.map (fun _ -> Domain.top) !stack;
            }
      | Cfg.Int_return -> (
        (* Follow an iret whose frame is constant on the abstract stack:
           error, return pc, flags, then the old stack pointer. *)
        match !stack with
        | _err :: pcv :: flagsv :: rest -> (
          match (Domain.is_const pcv, Domain.is_const flagsv) with
          | Some pc, Some flags ->
            let ring = (flags lsr 12) land 3 in
            let regs' = Array.copy regs in
            regs'.(Isa.sp) <-
              (match rest with sp' :: _ -> sp' | [] -> Domain.top);
            if not (List.mem (pc, flags) !iret_roots) then
              iret_roots := (pc, flags) :: !iret_roots;
            Cfg.add_root cfg pc;
            propagate pc
              { regs = regs'; rings = 1 lsl ring; depth = 0; stack = [] }
          | _ -> ())
        | _ -> ())
      | Cfg.Fallthrough | Cfg.Jump _ | Cfg.Branch _ ->
        List.iter (fun s -> propagate s st') (Cfg.successors cfg a)
      | Cfg.Indirect | Cfg.Return | Cfg.Terminal -> ())
  in

  add_abs_root entry (fresh_state ~rings:(1 lsl config.entry_ring));
  let parsed = Hashtbl.create 4 in
  let progress = ref true in
  while !progress do
    while not (Queue.is_empty work) do
      let a = Queue.pop work in
      Hashtbl.remove queued a;
      match Hashtbl.find_opt states a with Some st -> step a st | None -> ()
    done;
    (* Interrupt gates from any constant IHT base that lies inside the
       image: each present gate's handler is a root at the gate's target
       ring.  New handlers may load further tables, so iterate. *)
    let fresh_roots = ref [] in
    Hashtbl.iter
      (fun base () ->
        if not (Hashtbl.mem parsed base) then begin
          Hashtbl.replace parsed base ();
          for vec = 0 to 63 do
            let off = base - origin + (vec * 8) in
            if off >= 0 && off + 8 <= Bytes.length image then begin
              let word o =
                Int32.to_int (Bytes.get_int32_le image o) land 0xFFFFFFFF
              in
              let handler = word off and info = word (off + 4) in
              if Isa.gate_present info then begin
                gates := (vec, handler) :: !gates;
                fresh_roots := (handler, Isa.gate_ring info) :: !fresh_roots
              end
            end
          done
        end)
      iht_bases;
    if !fresh_roots = [] then progress := false
    else
      List.iter
        (fun (h, ring) -> add_abs_root h (fresh_state ~rings:(1 lsl ring)))
        !fresh_roots
  done;

  let t_fixpoint = clock () in

  (* ------------------------------------------------------------ *)
  (* Check pass over the fixpoint states.                          *)
  let diags = ref [] in
  let diag_seen = Hashtbl.create 32 in
  let flag cls addr detail =
    if not (Hashtbl.mem diag_seen (cls, addr)) then begin
      Hashtbl.add diag_seen (cls, addr) ();
      diags := { cls; addr; detail } :: !diags
    end
  in
  let check_range a lo last what =
    if not (config.guest_owns lo && config.guest_owns last) then
      flag Monitor_store a
        (Printf.sprintf "%s can reach non-guest memory 0x%x..0x%x" what lo last);
    if Cfg.overlaps_text cfg ~lo ~hi:last then
      flag Text_write a
        (Printf.sprintf "%s overlaps executable text at 0x%x..0x%x" what lo last)
  in
  let check_store a v len what =
    match Domain.bounds v with
    | Some (lo, hi) -> check_range a lo (hi + len - 1) what
    | None -> ()
  in
  let check_port a v =
    match Domain.bounds v with
    | Some (lo, hi) ->
      if
        not
          (List.exists
             (fun (plo, phi) -> plo <= lo && hi <= phi)
             config.allowed_ports)
      then
        flag Port_io a
          (if lo = hi then Printf.sprintf "port 0x%x outside the I/O bitmap" lo
           else
             Printf.sprintf "ports 0x%x..0x%x outside the I/O bitmap" lo hi)
    | None -> ()
  in
  let check a st =
    match Cfg.instr_at cfg a with
    | None -> ()
    | Some i ->
      let get r = st.regs.(r) in
      if Isa.is_privileged i && st.rings land lnot 1 <> 0 then
        flag Privileged_reach a
          (Printf.sprintf "privileged '%s' reachable outside ring 0"
             (Isa.to_string i));
      (match i with
      | Isa.St (base, off, _) ->
        check_store a (Domain.add (get base) (Domain.const off)) 4 "store"
      | Isa.Stb (base, off, _) ->
        check_store a (Domain.add (get base) (Domain.const off)) 1 "byte store"
      | Isa.Push _ ->
        check_store a (Domain.sub (get Isa.sp) (Domain.const 4)) 4 "push"
      | Isa.Copy (rd, _, rl) -> (
        match (Domain.bounds (get rd), Domain.bounds (get rl)) with
        | Some (dlo, dhi), Some (_, lhi) when lhi > 0 ->
          check_range a dlo (dhi + lhi - 1) "copy"
        | _ -> ())
      | Isa.In_ (_, rp) | Isa.Out (rp, _) -> check_port a (get rp)
      | Isa.Ini (_, imm) | Isa.Outi (imm, _) -> check_port a (Domain.const imm)
      | Isa.Pop _ ->
        if st.depth = 0 then
          flag Stack_unbalanced a "pop with an empty frame"
      | Isa.Ret ->
        if st.depth > 0 then
          flag Stack_unbalanced a
            (Printf.sprintf "ret with %d word(s) still pushed" st.depth)
      | _ -> ())
  in
  Hashtbl.iter check states;
  List.iter
    (function
      | Cfg.Bad_target { at; target } ->
        flag Control_flow at
          (Printf.sprintf "jump to invalid target 0x%x" target)
      | Cfg.Fall_off { at } ->
        flag Control_flow at "fall-through off the end of the image"
      | Cfg.Undecodable { at; opcode } ->
        flag Control_flow at (Printf.sprintf "undecodable opcode 0x%02x" opcode))
    (Cfg.issues cfg);
  let t_check = clock () in

  (* ------------------------------------------------------------ *)
  (* Interprocedural stage (pass 3) + race pass (pass 4).          *)
  let regs_at a =
    match Hashtbl.find_opt states a with
    | Some st -> Some st.regs
    | None -> None
  in
  let if_roots =
    (* the monitor boots the guest with virtual IF clear, and gate
       delivery clears it for the handler; an iret target inherits the
       IF bit of its constant return frame *)
    (entry, Summary.if_disabled)
    :: List.map (fun (_, h) -> (h, Summary.if_disabled)) !gates
    @ List.map
        (fun (pc, flags) ->
          ( pc,
            if flags land 0x200 <> 0 then Summary.if_enabled
            else Summary.if_disabled ))
        !iret_roots
  in
  let summary = Summary.compute ~cfg ~roots:if_roots ~regs_at in
  let t_summary = clock () in
  let races = Races.analyze ~cfg ~summary ~gates:!gates ~regs_at in
  List.iter
    (fun (s : Races.site) ->
      flag Irq_race s.store_pc
        (Printf.sprintf
           "rmw of 0x%x..0x%x (load at 0x%x) can be interleaved by vector %d \
            handler 0x%x (%s)"
           s.lo s.hi s.load_pc s.vector s.handler
           (if s.handler_writes then "write/write" else "handler reads")))
    races.sites;
  List.iter
    (fun a -> flag Unbalanced_mask a "hlt reachable only with interrupts masked (wedge)")
    races.wedges;
  List.iter
    (fun (fentry, ret) ->
      flag Unbalanced_mask ret
        (Printf.sprintf
           "cli/sti balance of function 0x%x diverges across paths" fentry))
    races.divergent;
  let t_races = clock () in

  let diagnostics =
    List.sort (fun a b -> compare (a.addr, a.cls) (b.addr, b.cls)) !diags
  in
  let functions =
    let fn = Hashtbl.create 16 in
    List.iter (fun (_, tgt) -> Hashtbl.replace fn tgt ()) (Cfg.calls cfg);
    List.iter (fun r -> Hashtbl.replace fn r ()) (Cfg.roots cfg);
    Hashtbl.length fn
  in
  {
    clean = diagnostics = [];
    diagnostics;
    instructions = Cfg.instruction_count cfg;
    blocks = List.length (Cfg.blocks cfg);
    functions;
    roots = List.length (Cfg.roots cfg);
    summaries = Summary.function_count summary;
    summary_incomplete = Summary.incomplete_count summary;
    race_sites = races.sites;
    timings =
      [
        ("absint", t_fixpoint -. t0);
        ("check", t_check -. t_fixpoint);
        ("summary", t_summary -. t_check);
        ("races", t_races -. t_summary);
      ];
  }

let verify ?clock config ?entry (program : Asm.program) =
  verify_image ?clock config ~origin:program.origin ?entry program.code

(* ---------------------------------------------------------------- *)
(* Rendering                                                         *)

let render ?symbols r =
  let fmt_addr a =
    match symbols with
    | Some s -> Symbols.format_addr s a
    | None -> Printf.sprintf "0x%x" a
  in
  let b = Buffer.create 256 in
  Printf.bprintf b
    "analysis: %s (%d instructions, %d blocks, %d functions, %d roots, %d \
     summaries%s, %d race site(s))"
    (if r.clean then "clean"
     else Printf.sprintf "%d diagnostic(s)" (List.length r.diagnostics))
    r.instructions r.blocks r.functions r.roots r.summaries
    (if r.summary_incomplete > 0 then
       Printf.sprintf " [%d incomplete]" r.summary_incomplete
     else "")
    (List.length r.race_sites);
  List.iter
    (fun d ->
      Printf.bprintf b "\n  [%s] %s: %s" (class_name d.cls) (fmt_addr d.addr)
        d.detail)
    r.diagnostics;
  Buffer.contents b

(* Flat space-separated key=value pairs, like the watchdog report, so the
   qV reply parses with the same splitter. *)
let summary r =
  let b = Buffer.create 128 in
  Printf.bprintf b
    "analysis=%s diags=%d instructions=%d blocks=%d functions=%d roots=%d \
     summaries=%d incomplete=%d races=%d"
    (if r.clean then "clean" else "dirty")
    (List.length r.diagnostics)
    r.instructions r.blocks r.functions r.roots r.summaries
    r.summary_incomplete
    (List.length r.race_sites);
  List.iteri
    (fun i d ->
      if i < 8 then
        Printf.bprintf b " d%d=%s@0x%x" i (class_name d.cls) d.addr)
    r.diagnostics;
  let n = List.length r.diagnostics in
  if n > 8 then Printf.bprintf b " truncated=%d" (n - 8);
  Buffer.contents b
