(* Tests for the guest-image static verifier: the abstract domain, CFG
   recovery, one seeded violation per diagnostic class (a)-(f), and the
   zero-false-positive corpus — the shipped guest kernel (both modes)
   and every guest program the examples build must verify clean. *)

module Asm = Vmm_hw.Asm
module Isa = Vmm_hw.Isa
module Machine = Vmm_hw.Machine
module Domain = Vmm_analysis.Domain
module Cfg = Vmm_analysis.Cfg
module Verifier = Vmm_analysis.Verifier
module Races = Vmm_analysis.Races
module Vm_layout = Core.Vm_layout
module Monitor = Core.Monitor
module Breakpoints = Core.Breakpoints
module Kernel = Vmm_guest.Kernel
module Symbols = Vmm_debugger.Symbols
module Session = Vmm_debugger.Session
module Bundle = Vmm_profile.Bundle

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The monitor's view of a 16 MiB machine: guest owns everything below
   monitor_base (12 MiB). *)
let layout = Vm_layout.default ~mem_size:(16 * 1024 * 1024)

let config =
  {
    Verifier.guest_owns = Vm_layout.guest_owns layout;
    allowed_ports = Verifier.default_ports;
    entry_ring = 0;
  }

let classes (r : Verifier.report) =
  List.map (fun d -> d.Verifier.cls) r.diagnostics

let has cls (r : Verifier.report) = List.mem cls (classes r)

let assert_clean what (p : Asm.program) cfg_ =
  let r = Verifier.verify cfg_ p in
  if not r.Verifier.clean then
    Alcotest.failf "%s should verify clean:\n%s" what
      (Verifier.render ~symbols:(Symbols.of_program p) r)

(* -- Domain -- *)

let test_domain_ops () =
  (* constants are exact, wrap included *)
  check bool "wrap add" true
    (Domain.equal (Domain.add (Domain.const 0xFFFFFFFF) (Domain.const 2)) (Domain.const 1));
  check bool "const sub" true
    (Domain.equal (Domain.sub (Domain.const 4) (Domain.const 8)) (Domain.const 0xFFFFFFFC));
  (* intervals refuse to wrap *)
  check bool "iv add overflow" true
    (Domain.add (Domain.range 0 0xFFFFFFFF) (Domain.const 1) = Domain.Top);
  check bool "iv add" true
    (Domain.equal (Domain.add (Domain.range 16 32) (Domain.const 4)) (Domain.range 20 36));
  check bool "join hull" true
    (Domain.equal (Domain.join (Domain.const 4) (Domain.const 12)) (Domain.range 4 12));
  check bool "join top" true (Domain.join Domain.top (Domain.const 1) = Domain.Top);
  (* bitwise tracks constants only *)
  check bool "and const" true
    (Domain.equal (Domain.logand (Domain.const 0xFF) (Domain.const 0x0F)) (Domain.const 0x0F));
  check bool "and iv" true
    (Domain.logand (Domain.range 0 4) (Domain.const 1) = Domain.Top)

(* -- CFG recovery -- *)

let test_cfg_shape () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 3);
  Asm.call a (Asm.lbl "double");
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "double";
  Asm.add a 1 1 1;
  Asm.ret a;
  let p = Asm.assemble a in
  let cfg = Cfg.create ~origin:p.Asm.origin p.Asm.code in
  Cfg.add_root cfg 0x1000;
  check int "instructions" 5 (Cfg.instruction_count cfg);
  check int "call edges" 1 (List.length (Cfg.calls cfg));
  check int "blocks" 3 (List.length (Cfg.blocks cfg));
  check bool "no issues" true (Cfg.issues cfg = []);
  check bool "text overlap" true
    (Cfg.overlaps_text cfg ~lo:0x1004 ~hi:0x1004);
  check bool "text miss" false
    (Cfg.overlaps_text cfg ~lo:(0x1000 + (5 * 8)) ~hi:(0x1000 + (5 * 8)))

(* -- Seeded violations, one per diagnostic class -- *)

(* (a) a bounded store into monitor-owned memory *)
let test_seed_monitor_store () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm layout.Vm_layout.monitor_base);
  Asm.movi a 2 (Asm.imm 0xDEAD);
  Asm.st a 1 0 2;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  let r = Verifier.verify config (Asm.assemble a) in
  check bool "dirty" false r.Verifier.clean;
  check bool "class a only" true (classes r = [ Verifier.Monitor_store ])

(* (b) boot irets into ring-3 code that runs a privileged instruction;
   exercises the constant-iret-frame root discovery as well *)
let test_seed_privileged_ring3 () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 0x9000);
  Asm.push a 1 (* old sp *);
  Asm.movi a 1 (Asm.imm 0x3200);
  Asm.push a 1 (* flags: ring 3, IF *);
  Asm.movi a 1 (Asm.lbl "user");
  Asm.push a 1 (* return pc *);
  Asm.movi a 1 (Asm.imm 0);
  Asm.push a 1 (* error code *);
  Asm.iret a;
  Asm.label a "user";
  Asm.cli a;
  Asm.label a "uspin";
  Asm.jmp a (Asm.lbl "uspin");
  let p = Asm.assemble a in
  let r = Verifier.verify config p in
  check bool "class b only" true (classes r = [ Verifier.Privileged_reach ]);
  let d = List.hd r.Verifier.diagnostics in
  check int "flagged at the cli" (Asm.symbol p "user") d.Verifier.addr

(* (c) broken push/pop/ret discipline *)
let test_seed_unbalanced_ret () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.movi a 1 (Asm.imm 5);
  Asm.push a 1;
  Asm.ret a;
  let r = Verifier.verify config (Asm.assemble a) in
  check bool "class c" true (has Verifier.Stack_unbalanced r)

let test_seed_pop_empty () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.pop a 1;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  let r = Verifier.verify config (Asm.assemble a) in
  check bool "class c" true (has Verifier.Stack_unbalanced r)

(* (d) a store aimed into reachable text (self-modifying code) *)
let test_seed_text_write () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.lbl "spin");
  Asm.movi a 2 (Asm.imm 0);
  Asm.st a 1 0 2;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  let r = Verifier.verify config (Asm.assemble a) in
  check bool "class d only" true (classes r = [ Verifier.Text_write ])

(* (e) misaligned jump target, and fall-through off the image *)
let test_seed_misaligned_jump () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.jmp a (Asm.imm 0x1004);
  let r = Verifier.verify config (Asm.assemble a) in
  check bool "class e only" true (classes r = [ Verifier.Control_flow ])

let test_seed_fall_off () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 0);
  let r = Verifier.verify config (Asm.assemble a) in
  check bool "class e only" true (classes r = [ Verifier.Control_flow ])

(* (f) port I/O outside the machine's I/O bitmap *)
let test_seed_port_io () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 0);
  Asm.outi a (Asm.imm 0x7777) 1;
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  let r = Verifier.verify config (Asm.assemble a) in
  check bool "class f only" true (classes r = [ Verifier.Port_io ])

(* -- Zero false positives on everything we actually ship -- *)

let test_kernel_clean () =
  let p = Kernel.build (Kernel.default_config ~rate_mbps:100.) in
  let r = Verifier.verify config ~entry:Kernel.entry p in
  (if not r.Verifier.clean then
     Alcotest.failf "kernel should verify clean:\n%s"
       (Verifier.render ~symbols:(Symbols.of_program p) r));
  check bool "substantial" true (r.Verifier.instructions > 100);
  check bool "gates found" true (r.Verifier.roots > 1)

let test_kernel_user_mode_clean () =
  let cfgk = { (Kernel.default_config ~rate_mbps:100.) with Kernel.user_mode = true } in
  let p = Kernel.build cfgk in
  let r = Verifier.verify config ~entry:Kernel.entry p in
  (if not r.Verifier.clean then
     Alcotest.failf "user-mode kernel should verify clean:\n%s"
       (Verifier.render ~symbols:(Symbols.of_program p) r));
  (* the ring-3 application must have been discovered through the
     boot-time iret, on top of the entry point and the interrupt gates *)
  check bool "app root found" true (r.Verifier.roots >= 3)

(* The buggy guests from examples/crash_injection.ml (and bench's
   gauntlet): their bugs are data-dependent — a static verifier with a
   widening interval domain must stay conservative and silent. *)
let crash_guest bug =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x20000);
  Asm.movi a 1 (Asm.imm 0);
  Asm.label a "warmup";
  Asm.addi a 1 1 (Asm.imm 1);
  Asm.cmpi a 1 (Asm.imm 1000);
  Asm.jnz a (Asm.lbl "warmup");
  (match bug with
  | `Wild_store_sweep ->
    Asm.movi a 2 (Asm.imm 0x80000);
    Asm.movi a 3 (Asm.imm 0xDEAD);
    Asm.label a "sweep";
    Asm.st a 2 0 3;
    Asm.addi a 2 2 (Asm.imm 4);
    Asm.cmpi a 2 (Asm.imm 0x90000);
    Asm.jnz a (Asm.lbl "sweep")
  | `Corrupt_iht ->
    Asm.movi a 2 (Asm.imm 0x3000);
    Asm.liht a 2;
    Asm.int_ a 40
  | `Jump_to_void ->
    Asm.movi a 2 (Asm.imm 0xFF000000);
    Asm.jr a 2);
  Asm.label a "after";
  Asm.jmp a (Asm.lbl "after");
  Asm.assemble a

let test_crash_guests_clean () =
  assert_clean "wild-store guest" (crash_guest `Wild_store_sweep) config;
  assert_clean "corrupt-iht guest" (crash_guest `Corrupt_iht) config;
  assert_clean "jump-to-void guest" (crash_guest `Jump_to_void) config

(* The capture-card bring-up guest from examples/device_bringup.ml: its
   card lives at ports 0x3C0.. which the example passes through, so the
   verifier must be told about them too. *)
let test_capture_guest_clean () =
  let port_base = 0x3C0 in
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x20000);
  Asm.movi a 1 (Asm.lbl "iht");
  Asm.liht a 1;
  Asm.movi a 2 (Asm.imm 0x50000);
  Asm.outi a (Asm.imm port_base) 2;
  Asm.movi a 2 (Asm.imm 1);
  Asm.outi a (Asm.imm (port_base + 1)) 2;
  Asm.sti a;
  Asm.label a "idle";
  Asm.hlt a;
  Asm.jmp a (Asm.lbl "idle");
  Asm.label a "field_handler";
  Asm.addi a 7 7 (Asm.imm 1);
  Asm.movi a 2 (Asm.imm 0x50000);
  Asm.ld a 8 2 0;
  Asm.movi a 2 (Asm.imm 0x20);
  Asm.outi a (Asm.imm Machine.Ports.pic) 2;
  Asm.iret a;
  Asm.align a 8;
  Asm.label a "iht";
  for v = 0 to 63 do
    if v = Isa.vec_irq_base_default + 3 then begin
      Asm.word a (Asm.lbl "field_handler");
      Asm.word a (Asm.imm 1)
    end
    else begin
      Asm.word a (Asm.imm 0);
      Asm.word a (Asm.imm 0)
    end
  done;
  let p = Asm.assemble a in
  let cfg_ =
    { config with Verifier.allowed_ports = (port_base, port_base + 2) :: Verifier.default_ports }
  in
  let r = Verifier.verify cfg_ p in
  (if not r.Verifier.clean then
     Alcotest.failf "capture guest should verify clean:\n%s"
       (Verifier.render ~symbols:(Symbols.of_program p) r));
  (* the gate handler must have been discovered as a root *)
  check bool "handler root" true
    (List.length (classes r) = 0 && r.Verifier.roots >= 2)

(* -- Report rendering / qV summary -- *)

let test_summary_format () =
  let p = Kernel.build (Kernel.default_config ~rate_mbps:0.) in
  let r = Verifier.verify config ~entry:Kernel.entry p in
  let s = Verifier.summary r in
  check bool "clean summary" true
    (String.length s >= 14 && String.sub s 0 14 = "analysis=clean");
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a 1 (Asm.imm 0);
  Asm.outi a (Asm.imm 0x7777) 1;
  let dirty = Verifier.verify config (Asm.assemble a) in
  let s = Verifier.summary dirty in
  check bool "dirty summary" true
    (String.length s >= 14 && String.sub s 0 14 = "analysis=dirty");
  check bool "first diagnostic listed" true (contains s "d0=");
  check bool "summary counters present" true
    (contains s "summaries=" && contains s "races=")

(* -- Interprocedural race pass: seeded corpus -- *)

(* A guest whose mainline runs an unmasked load/add/store on a shared
   counter while the timer gate's handler touches the same word.  The
   knobs select the clean variants the pass must stay silent on. *)
let race_guest ?(mask = `None) ?(handler_shares = true) () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x20000);
  Asm.movi a 1 (Asm.lbl "iht");
  Asm.liht a 1;
  (* periodic timer: ~1.2 kHz so the dynamic witness has many shots *)
  Asm.movi a 2 (Asm.imm 1000);
  Asm.outi a (Asm.imm Machine.Ports.pit) 2;
  Asm.movi a 2 (Asm.imm 0);
  Asm.outi a (Asm.imm (Machine.Ports.pit + 1)) 2;
  Asm.movi a 2 (Asm.imm 1);
  Asm.outi a (Asm.imm (Machine.Ports.pit + 2)) 2;
  Asm.sti a;
  (match mask with
  | `None -> ()
  | `Cli -> Asm.cli a
  | `Nested ->
    Asm.cli a;
    Asm.cli a);
  Asm.movi a 2 (Asm.imm 0x6000);
  Asm.label a "rmw_load";
  Asm.ld a 3 2 0;
  Asm.addi a 3 3 (Asm.imm 1);
  Asm.label a "rmw_store";
  Asm.st a 2 0 3;
  Asm.jmp a (Asm.lbl "rmw_load");
  Asm.label a "timer_handler";
  Asm.movi a 4 (Asm.imm (if handler_shares then 0x6000 else 0x7000));
  Asm.ld a 5 4 0;
  Asm.addi a 5 5 (Asm.imm 1);
  Asm.st a 4 0 5;
  Asm.movi a 6 (Asm.imm 0x20);
  Asm.outi a (Asm.imm Machine.Ports.pic) 6;
  Asm.iret a;
  Asm.align a 8;
  Asm.label a "iht";
  for v = 0 to 63 do
    if v = Isa.vec_irq_base_default + Machine.Irq.timer then begin
      Asm.word a (Asm.lbl "timer_handler");
      Asm.word a (Asm.imm 1)
    end
    else begin
      Asm.word a (Asm.imm 0);
      Asm.word a (Asm.imm 0)
    end
  done;
  Asm.assemble a

let test_seed_irq_race () =
  let p = race_guest () in
  let r = Verifier.verify config p in
  check bool "class g only" true (classes r = [ Verifier.Irq_race ]);
  let d = List.hd r.Verifier.diagnostics in
  check int "flagged at the store" (Asm.symbol p "rmw_store") d.Verifier.addr;
  (match r.Verifier.race_sites with
   | [ s ] ->
     check int "load pc" (Asm.symbol p "rmw_load") s.Races.load_pc;
     check int "store pc" (Asm.symbol p "rmw_store") s.Races.store_pc;
     check int "window lo" 0x6000 s.Races.lo;
     check int "window hi" 0x6003 s.Races.hi;
     check int "vector"
       (Isa.vec_irq_base_default + Machine.Irq.timer)
       s.Races.vector;
     check int "handler" (Asm.symbol p "timer_handler") s.Races.handler;
     check bool "handler writes" true s.Races.handler_writes
   | sites -> Alcotest.failf "expected one race site, got %d" (List.length sites))

let test_race_masked_clean () =
  (* cli before the RMW closes the window; the pass must stay silent *)
  assert_clean "masked RMW guest" (race_guest ~mask:`Cli ()) config;
  assert_clean "nested-cli RMW guest" (race_guest ~mask:`Nested ()) config

let test_race_disjoint_clean () =
  (* the handler touches a different word: footprints do not intersect *)
  assert_clean "disjoint-handler guest" (race_guest ~handler_shares:false ()) config

(* (h) a helper whose cli/sti effect depends on the path taken *)
let test_seed_divergent_mask () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.call a (Asm.lbl "maybe_sti");
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.label a "maybe_sti";
  Asm.cmpi a 1 (Asm.imm 0);
  Asm.jz a (Asm.lbl "skip");
  Asm.sti a;
  Asm.label a "skip";
  Asm.ret a;
  let p = Asm.assemble a in
  let r = Verifier.verify config p in
  check bool "class h only" true (classes r = [ Verifier.Unbalanced_mask ]);
  let d = List.hd r.Verifier.diagnostics in
  check int "flagged at the ret" (Asm.symbol p "skip") d.Verifier.addr

(* (h) hlt reachable only with interrupts masked: the classic wedge *)
let test_seed_hlt_wedge () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.movi a Isa.sp (Asm.imm 0x8000);
  Asm.label a "idle";
  Asm.hlt a;
  Asm.jmp a (Asm.lbl "idle");
  let p = Asm.assemble a in
  let r = Verifier.verify config p in
  check bool "class h only" true (classes r = [ Verifier.Unbalanced_mask ]);
  let d = List.hd r.Verifier.diagnostics in
  check int "flagged at the hlt" (Asm.symbol p "idle") d.Verifier.addr

(* Jr degrades the enclosing summary to advisory instead of guessing *)
let test_jr_summary_incomplete () =
  let r = Verifier.verify config (crash_guest `Jump_to_void) in
  check bool "still clean" true r.Verifier.clean;
  check bool "summary flagged incomplete" true
    (r.Verifier.summary_incomplete >= 1)

let test_kernel_summaries () =
  let p = Kernel.build (Kernel.default_config ~rate_mbps:100.) in
  let r = Verifier.verify config ~entry:Kernel.entry p in
  check bool "summaries computed" true (r.Verifier.summaries >= 3);
  check bool "kernel summaries complete" true
    (r.Verifier.summary_incomplete = 0);
  check bool "no race sites in kernel" true (r.Verifier.race_sites = [])

(* -- Race-site wire format -- *)

let test_site_roundtrip () =
  let site =
    {
      Races.load_pc = 0x1040;
      store_pc = 0x1050;
      lo = 0x6000;
      hi = 0x6003;
      vector = 35;
      handler = 0x2000;
      handler_writes = true;
    }
  in
  List.iter
    (fun (status, windows) ->
      let line = Races.render_site ~status ~windows site in
      match Races.parse_site line with
      | Some (s, st, w) ->
        check bool "site fields survive" true (s = site);
        check Alcotest.string "status survives" status st;
        check int "windows survive" windows w
      | None -> Alcotest.failf "rendered site did not parse: %s" line)
    [ ("static", 0); ("witnessed", 17) ];
  check bool "garbage rejected" true (Races.parse_site "not a site" = None)

(* -- Fixpoint termination & determinism on random instruction soups -- *)

let soup_arbitrary =
  QCheck.make (Isa_gen.soup_gen ~lo:1 ~hi:64 ()) ~print:Isa_gen.print_soup

let prop_fixpoint_deterministic =
  QCheck.Test.make ~name:"interprocedural fixpoint terminates, deterministic"
    ~count:300 soup_arbitrary (fun instrs ->
      let image = Isa_gen.encode_soup instrs in
      (* termination: both runs return at all; determinism: identically *)
      let r1 = Verifier.verify_image config ~origin:0x1000 image in
      let r2 = Verifier.verify_image config ~origin:0x1000 image in
      r1 = r2)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* -- Dynamic cross-validation: static sites witnessed end to end -- *)

let test_witnessed_race () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) () in
  let mon = Monitor.install m in
  Monitor.set_race_witness mon true;
  let p = race_guest () in
  Monitor.boot_guest mon p ~entry:0x1000;
  check int "one site armed" 1 (Monitor.race_witness_sites mon);
  (* deterministic simulation: run until the timer lands inside the
     window (bounded so a regression fails rather than hangs) *)
  let rec run n =
    if n > 0 && Monitor.race_witnessed mon = 0 then begin
      Machine.run_seconds m 0.01;
      run (n - 1)
    end
  in
  run 100;
  check bool "windows observed" true (Monitor.race_windows mon > 0);
  check bool "race witnessed" true (Monitor.race_witnessed mon > 0);
  (* the qV payload carries the witness trailer over the wire *)
  let session = Session.attach m in
  (match Session.query_verify session with
   | Some (text, fields) ->
     check bool "irq-race diagnostic" true (contains text "irq-race");
     check (Alcotest.option Alcotest.string) "witness armed" (Some "on")
       (List.assoc_opt "witness" fields);
     check (Alcotest.option Alcotest.string) "one site sampled" (Some "1")
       (List.assoc_opt "wsites" fields);
     (match List.assoc_opt "wseen" fields with
      | Some n -> check bool "witnessed over the wire" true (int_of_string n > 0)
      | None -> Alcotest.fail "missing wseen field");
     check bool "per-site token" true
       (contains text
          (Printf.sprintf "w0=0x%x:" (Asm.symbol p "rmw_store")))
   | None -> Alcotest.fail "no qV reply");
  (* the flight ring records both window opens and the interleaving *)
  let flight = Monitor.flight_report mon in
  check bool "window note" true (contains flight "race.window");
  check bool "witness note" true (contains flight "race.witness");
  (* crash bundles carry the static-races section, parseable per line *)
  Monitor.inject mon Monitor.Iht_clobber;
  Machine.run_seconds m 0.02;
  check bool "guest crashed" true (Monitor.crashed mon);
  (match Monitor.crash_bundle mon with
   | Some bundle ->
     (match Bundle.find_section bundle "static-races" with
      | Some body ->
        let lines =
          List.filter (fun l -> String.length l > 0) (String.split_on_char '\n' body)
        in
        (match lines with
         | header :: rest ->
           check bool "section header" true (contains header "sites=1");
           let parsed = List.filter_map Races.parse_site rest in
           check int "every site line parses" (List.length rest)
             (List.length parsed);
           check bool "witnessed status in bundle" true
             (List.exists (fun (_, status, _) -> status = "witnessed") parsed)
         | [] -> Alcotest.fail "static-races section empty")
      | None -> Alcotest.fail "static-races section missing")
   | None -> Alcotest.fail "crash produced no bundle")

let test_observe_sites_survive_detach () =
  (* stub detach clears the breakpoint table; observe-only sites stay *)
  let b = Breakpoints.create () in
  check bool "observe armed" true (Breakpoints.add_observe b ~addr:0x1040);
  check bool "bp armed" true (Breakpoints.add b ~addr:0x1080);
  ignore (Breakpoints.clear b);
  check bool "bp gone" false (Breakpoints.mem b ~addr:0x1080);
  check bool "observe survives" true (Breakpoints.observe_mem b ~addr:0x1040);
  check bool "page still armed" true (Breakpoints.page_armed b ~page:0x1040);
  check bool "disarm" true (Breakpoints.remove_observe b ~addr:0x1040);
  check bool "page released" false (Breakpoints.page_armed b ~page:0x1040)

let () =
  Alcotest.run "analysis"
    [
      ("domain", [ Alcotest.test_case "interval ops" `Quick test_domain_ops ]);
      ("cfg", [ Alcotest.test_case "shape" `Quick test_cfg_shape ]);
      ( "seeded-violations",
        [
          Alcotest.test_case "(a) monitor store" `Quick test_seed_monitor_store;
          Alcotest.test_case "(b) privileged at ring 3" `Quick
            test_seed_privileged_ring3;
          Alcotest.test_case "(c) unbalanced ret" `Quick test_seed_unbalanced_ret;
          Alcotest.test_case "(c) pop empty frame" `Quick test_seed_pop_empty;
          Alcotest.test_case "(d) text write" `Quick test_seed_text_write;
          Alcotest.test_case "(e) misaligned jump" `Quick
            test_seed_misaligned_jump;
          Alcotest.test_case "(e) fall off image" `Quick test_seed_fall_off;
          Alcotest.test_case "(f) port io" `Quick test_seed_port_io;
        ] );
      ( "clean-corpus",
        [
          Alcotest.test_case "shipped kernel" `Quick test_kernel_clean;
          Alcotest.test_case "user-mode kernel" `Quick
            test_kernel_user_mode_clean;
          Alcotest.test_case "crash-injection guests" `Quick
            test_crash_guests_clean;
          Alcotest.test_case "capture-card guest" `Quick
            test_capture_guest_clean;
        ] );
      ( "races",
        [
          Alcotest.test_case "(g) unmasked rmw vs handler" `Quick
            test_seed_irq_race;
          Alcotest.test_case "masked rmw clean" `Quick test_race_masked_clean;
          Alcotest.test_case "disjoint handler clean" `Quick
            test_race_disjoint_clean;
          Alcotest.test_case "(h) divergent mask" `Quick
            test_seed_divergent_mask;
          Alcotest.test_case "(h) hlt wedge" `Quick test_seed_hlt_wedge;
          Alcotest.test_case "jr degrades summary" `Quick
            test_jr_summary_incomplete;
          Alcotest.test_case "kernel summaries" `Quick test_kernel_summaries;
          Alcotest.test_case "site wire round-trip" `Quick test_site_roundtrip;
        ] );
      ("fixpoint", qsuite [ prop_fixpoint_deterministic ]);
      ( "witness",
        [
          Alcotest.test_case "static site witnessed end to end" `Quick
            test_witnessed_race;
          Alcotest.test_case "observe sites survive detach" `Quick
            test_observe_sites_survive_detach;
        ] );
      ( "report",
        [ Alcotest.test_case "qV summary" `Quick test_summary_format ] );
    ]
