(* Interrupt-race pass (pass 4 of the static verifier).

   Consumes the interprocedural results of {!Summary}: mainline
   read-modify-write sequences executed while interrupts may be enabled
   are intersected against the transitive memory footprint of every
   asynchronous IHT handler.  Only facts derived from {e exact} IF
   states are reported — with exact call summaries, every bit of a
   may-set is realized by some concrete static path, which is what keeps
   the clean-corpus false-positive count at zero. *)

module Isa = Vmm_hw.Isa

type site = {
  load_pc : int;
  store_pc : int;
  lo : int;  (* written interval, inclusive *)
  hi : int;
  vector : int;  (* conflicting asynchronous gate *)
  handler : int;
  handler_writes : bool;
      (* the handler writes the interval (write/write race); false means
         it only reads what the torn RMW publishes *)
}

type result = {
  sites : site list;
  wedges : int list;  (* [Hlt] executed with interrupts provably masked *)
  divergent : (int * int) list;
      (* (entry, ret): function whose cli/sti balance provably depends
         on the path taken *)
}

(* Asynchronous = wired to a PIC line; software-interrupt gates (e.g.
   syscalls) only run synchronously and cannot interleave an RMW. *)
let is_async_vector v =
  v >= Isa.vec_irq_base_default && v < Isa.vec_irq_base_default + 8

(* ---------------------------------------------------------------- *)

let analyze ~cfg ~summary ~gates ~regs_at =
  let enabled_at a =
    match Summary.ifs_at summary a with
    | Some { may; exact = true } -> may land Summary.if_enabled <> 0
    | _ -> false
  in
  let masked_at a =
    match Summary.ifs_at summary a with
    | Some { may; exact = true } -> may = Summary.if_disabled
    | _ -> false
  in
  (* window (load_pc, store_pc]: an IRQ delivered at any boundary in it
     interleaves the handler between the load and the store *)
  let window_open ~load_pc ~store_pc =
    let rec go a = a <= store_pc && (enabled_at a || go (a + Isa.width)) in
    go (load_pc + Isa.width)
  in

  (* transitive footprints of the asynchronous handlers *)
  let handlers =
    List.filter_map
      (fun (vector, handler) ->
        if is_async_vector vector then
          let access, _incomplete = Summary.transitive summary handler in
          Some (vector, handler, access)
        else None)
      gates
  in

  let bounds_of a reg off =
    match regs_at a with
    | None -> None
    | Some regs -> Domain.bounds (Domain.add regs.(reg) (Domain.const off))
  in

  let sites = ref [] in
  let seen = Hashtbl.create 16 in
  let add_site s =
    let key = (s.store_pc, s.vector) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      sites := s :: !sites
    end
  in

  (* Intra-block taint: reg -> (pc of the load, loaded interval).  A
     store of a tainted register back over the loaded interval is a
     non-atomic read-modify-write. *)
  let scan_block (b : Cfg.block) =
    let taint : (int, int * int * int) Hashtbl.t = Hashtbl.create 8 in
    let set rd v =
      match v with
      | Some t -> Hashtbl.replace taint rd t
      | None -> Hashtbl.remove taint rd
    in
    let get r = Hashtbl.find_opt taint r in
    let first t1 t2 = match t1 with Some _ -> t1 | None -> t2 in
    let check_store pc rs ~lo ~hi =
      match get rs with
      | Some (load_pc, tlo, thi)
        when tlo <= hi && lo <= thi && window_open ~load_pc ~store_pc:pc ->
        List.iter
          (fun (vector, handler, (access : Summary.access)) ->
            if Summary.intervals_overlap access.writes ~lo ~hi then
              add_site
                { load_pc; store_pc = pc; lo; hi; vector; handler;
                  handler_writes = true }
            else if Summary.intervals_overlap access.reads ~lo ~hi then
              add_site
                { load_pc; store_pc = pc; lo; hi; vector; handler;
                  handler_writes = false })
          handlers
      | _ -> ()
    in
    let a = ref b.Cfg.start in
    while !a <= b.Cfg.finish do
      let pc = !a in
      (match Cfg.instr_at cfg pc with
      | Some (Isa.Ld (rd, rb, off)) ->
        set rd
          (match bounds_of pc rb off with
          | Some (lo, hi) -> Some (pc, lo, hi + 3)
          | None -> None)
      | Some (Isa.Ldb (rd, rb, off)) ->
        set rd
          (match bounds_of pc rb off with
          | Some (lo, hi) -> Some (pc, lo, hi)
          | None -> None)
      | Some (Isa.St (rb, off, rs)) -> (
        match bounds_of pc rb off with
        | Some (lo, hi) -> check_store pc rs ~lo ~hi:(hi + 3)
        | None -> ())
      | Some (Isa.Stb (rb, off, rs)) -> (
        match bounds_of pc rb off with
        | Some (lo, hi) -> check_store pc rs ~lo ~hi
        | None -> ())
      | Some (Isa.Mov (rd, rs)) -> set rd (get rs)
      | Some (Isa.Addi (rd, rs, _)) -> set rd (get rs)
      | Some (Isa.Add (rd, r1, r2))
      | Some (Isa.Sub (rd, r1, r2))
      | Some (Isa.And_ (rd, r1, r2))
      | Some (Isa.Or_ (rd, r1, r2))
      | Some (Isa.Xor_ (rd, r1, r2))
      | Some (Isa.Shl (rd, r1, r2))
      | Some (Isa.Shr (rd, r1, r2))
      | Some (Isa.Mul (rd, r1, r2)) -> set rd (first (get r1) (get r2))
      | Some (Isa.Movi (rd, _))
      | Some (Isa.In_ (rd, _))
      | Some (Isa.Ini (rd, _))
      | Some (Isa.Pop rd)
      | Some (Isa.Rdtsc rd)
      | Some (Isa.Csum (rd, _, _)) -> set rd None
      (* a synchronous trap may run arbitrary code: drop all taint *)
      | Some (Isa.Int_ _) | Some (Isa.Vmcall _) -> Hashtbl.reset taint
      | _ -> ());
      a := !a + Isa.width
    done
  in
  List.iter scan_block (Cfg.blocks cfg);

  (* [Hlt] with interrupts provably masked: nothing can ever wake the
     guest — the wedge the paper's watchdog fires on, caught statically *)
  let wedges = ref [] in
  Array.iter
    (fun a ->
      match Cfg.instr_at cfg a with
      | Some Isa.Hlt when masked_at a -> wedges := a :: !wedges
      | _ -> ())
    (Cfg.text cfg);

  (* provably path-divergent cli/sti balance, reported at the
     function's first return *)
  let divergent = ref [] in
  List.iter
    (fun entry ->
      match Summary.func_at summary entry with
      | Some f when f.Summary.xfer_exact -> (
        match Summary.ifs_at summary entry with
        | Some { may; exact = true } ->
          let diverges =
            List.exists
              (fun bit ->
                may land bit <> 0
                && Summary.xfer_divergent_for f.Summary.xfer bit)
              [ Summary.if_enabled; Summary.if_disabled ]
          in
          if diverges then
            let ret =
              List.find_opt
                (fun a -> Cfg.instr_at cfg a = Some Isa.Ret)
                f.Summary.body
            in
            (match ret with
            | Some r -> divergent := (entry, r) :: !divergent
            | None -> ())
        | _ -> ())
      | _ -> ())
    (Summary.functions summary);

  {
    sites = List.rev !sites;
    wedges = List.sort compare !wedges;
    divergent = List.sort compare !divergent;
  }

(* ---------------------------------------------------------------- *)
(* Crash-bundle [static-races] section: one site per line, parsed back
   by post-mortem tooling.  [status]/[windows] carry the monitor's
   dynamic cross-validation verdict. *)

let render_site ?(status = "static") ?(windows = 0) s =
  Printf.sprintf
    "site load=0x%x store=0x%x lo=0x%x hi=0x%x vector=%d handler=0x%x hwrites=%d status=%s windows=%d"
    s.load_pc s.store_pc s.lo s.hi s.vector s.handler
    (if s.handler_writes then 1 else 0)
    status windows

let parse_site line =
  match String.split_on_char ' ' (String.trim line) with
  | "site" :: fields -> (
    let tbl = Hashtbl.create 9 in
    List.iter
      (fun f ->
        match String.index_opt f '=' with
        | Some i ->
          Hashtbl.replace tbl
            (String.sub f 0 i)
            (String.sub f (i + 1) (String.length f - i - 1))
        | None -> ())
      fields;
    let num k =
      match Hashtbl.find_opt tbl k with
      | Some v -> int_of_string_opt v
      | None -> None
    in
    match
      (num "load", num "store", num "lo", num "hi", num "vector",
       num "handler", num "hwrites", num "windows")
    with
    | ( Some load_pc, Some store_pc, Some lo, Some hi, Some vector,
        Some handler, Some hw, Some windows ) ->
      let status =
        match Hashtbl.find_opt tbl "status" with
        | Some s -> s
        | None -> "static"
      in
      Some
        ( { load_pc; store_pc; lo; hi; vector; handler;
            handler_writes = hw <> 0 },
          status, windows )
    | _ -> None)
  | _ -> None
