(* Tests for the host-side debugger: symbol resolution, the synchronous
   session API over the simulated serial wire against a real guest kernel
   under the lightweight monitor, and the CLI command language. *)

module Machine = Vmm_hw.Machine
module Cpu = Vmm_hw.Cpu
module Asm = Vmm_hw.Asm
module Costs = Vmm_hw.Costs
module Monitor = Core.Monitor
module Kernel = Vmm_guest.Kernel
module Session = Vmm_debugger.Session
module Symbols = Vmm_debugger.Symbols
module Cli = Vmm_debugger.Cli
module Command = Vmm_proto.Command

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

let test_costs = { Costs.default with Costs.uart_cycles_per_byte = 2000 }

(* A live debugging rig: guest kernel at a gentle rate under the monitor,
   session attached over the wire. *)
let rig ?(rate = 20.0) () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  let program = Kernel.build (Kernel.default_config ~rate_mbps:rate) in
  Monitor.boot_guest mon program ~entry:Kernel.entry;
  Machine.run_seconds m 0.01;
  let session = Session.attach m in
  let symbols = Symbols.of_program program in
  (m, mon, program, session, symbols)

(* -- Symbols -- *)

let test_symbols_lookup () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.label a "start";
  Asm.nop a;
  Asm.nop a;
  Asm.label a "middle";
  Asm.nop a;
  let p = Asm.assemble a in
  let s = Symbols.of_program p in
  check (Alcotest.option int) "address" (Some 0x1000) (Symbols.address s "start");
  check (Alcotest.option int) "missing" None (Symbols.address s "nope");
  (match Symbols.nearest s 0x1008 with
   | Some (name, base) ->
     check Alcotest.string "nearest name" "start" name;
     check int "nearest base" 0x1000 base
   | None -> Alcotest.fail "expected nearest");
  check Alcotest.string "format exact" "middle (0x1010)"
    (Symbols.format_addr s 0x1010);
  check Alcotest.string "format offset" "start+0x8 (0x1008)"
    (Symbols.format_addr s 0x1008);
  check Alcotest.string "format below" "0xf00" (Symbols.format_addr s 0xF00)

let test_symbols_edge_cases () =
  (* Empty table: nothing resolves, addresses render bare. *)
  let empty = Symbols.of_list [] in
  check bool "empty nearest" true (Symbols.nearest empty 0x1000 = None);
  check Alcotest.string "empty format" "0x1000"
    (Symbols.format_addr empty 0x1000);
  (* Duplicate labels on one address (an alias label) must resolve
     deterministically: the first in (address, name) order. *)
  let s =
    Symbols.of_list
      [ ("zz_alias", 0x2000); ("handler", 0x2000); ("tail", 0x2010) ]
  in
  (match Symbols.nearest s 0x2000 with
   | Some (name, base) ->
     check Alcotest.string "duplicate picks first by name" "handler" name;
     check int "duplicate base" 0x2000 base
   | None -> Alcotest.fail "expected nearest");
  (match Symbols.nearest s 0x2008 with
   | Some (name, base) ->
     check Alcotest.string "offset from duplicate" "handler" name;
     check int "offset base" 0x2000 base
   | None -> Alcotest.fail "expected nearest");
  (* Exactly on a later label: no spill-back to the earlier one. *)
  (match Symbols.nearest s 0x2010 with
   | Some (name, base) ->
     check Alcotest.string "exact later label" "tail" name;
     check int "exact later base" 0x2010 base
   | None -> Alcotest.fail "expected nearest");
  (* Below the first symbol: None, and format_addr falls back to hex. *)
  check bool "below first" true (Symbols.nearest s 0x1FFF = None);
  check Alcotest.string "below first format" "0x1fff"
    (Symbols.format_addr s 0x1FFF)

(* -- Session -- *)

let test_session_registers () =
  let m, _, _, session, _ = rig () in
  match Session.read_registers session with
  | Some regs ->
    check int "18 words" 18 (Array.length regs);
    check bool "write register" true (Session.write_register session 9 0xABCD);
    check int "landed" 0xABCD (Cpu.read_reg (Machine.cpu m) 9)
  | None -> Alcotest.fail "no register reply"

let test_session_memory () =
  let _, _, _, session, _ = rig () in
  check bool "write" true
    (Session.write_memory session ~addr:0x19000 ~data:"\xDE\xAD\xBE\xEF");
  (match Session.read_memory session ~addr:0x19000 ~len:4 with
   | Some data -> check Alcotest.string "readback" "\xDE\xAD\xBE\xEF" data
   | None -> Alcotest.fail "no memory reply");
  check bool "unmapped read fails" true
    (Session.read_memory session ~addr:0xFFFF0000 ~len:4 = None)

let test_session_breakpoint_flow () =
  let m, _, program, session, _ = rig () in
  let target = Asm.symbol program "scsi_handler" in
  check bool "insert" true (Session.insert_breakpoint session target);
  (match Session.wait_stop session with
   | Some (Command.Break addr) -> check int "hit scsi handler" target addr
   | _ -> Alcotest.fail "expected breakpoint stop");
  check bool "stopped" true (Cpu.stopped (Machine.cpu m));
  (match Session.step session with
   | Some (Command.Step_done addr) ->
     check bool "advanced" true (addr <> target)
   | _ -> Alcotest.fail "expected step report");
  check bool "remove" true (Session.remove_breakpoint session target);
  Session.continue_ session;
  Machine.run_seconds m 0.02;
  check bool "running again" false (Cpu.stopped (Machine.cpu m))

let test_session_halt_query () =
  let m, _, _, session, _ = rig () in
  check (Alcotest.option bool) "running" (Some true)
    (Session.is_running session);
  (match Session.halt session with
   | Some (Command.Halt_requested _) -> ()
   | _ -> Alcotest.fail "expected halt report");
  check (Alcotest.option bool) "stopped" (Some false)
    (Session.is_running session);
  (match Session.query session with
   | Some (Command.Halt_requested _) -> ()
   | _ -> Alcotest.fail "query should repeat the stop reason");
  Session.continue_ session;
  Machine.run_seconds m 0.01;
  check bool "resumed" false (Cpu.stopped (Machine.cpu m))

let test_session_detach_removes_breakpoints () =
  let m, mon, program, session, _ = rig () in
  let target = Asm.symbol program "timer_handler" in
  check bool "insert" true (Session.insert_breakpoint session target);
  (match Session.wait_stop session with
   | Some (Command.Break _) -> ()
   | _ -> Alcotest.fail "expected stop");
  check bool "detach" true (Session.detach session);
  check int "no breakpoints left" 0
    (Core.Breakpoints.count (Core.Stub.breakpoints (Monitor.stub mon)));
  Machine.run_seconds m 0.05;
  check bool "guest unbothered" false (Cpu.stopped (Machine.cpu m))

let test_session_latency_measured () =
  let _, _, _, session, _ = rig () in
  ignore (Session.read_registers session);
  let latency = Session.last_latency_s session in
  (* At 2000 cycles/byte, a ~160-byte exchange takes ~0.25 ms simulated. *)
  check bool "latency positive" true (latency > 0.0);
  check bool "latency sane" true (latency < 1.0)

let test_session_watchpoint_flow () =
  let m, mon, program, session, _ = rig ~rate:10.0 () in
  let counters = Asm.symbol program "counters" in
  (* 1. a watch on the tick counter stops the guest on the next tick *)
  check bool "insert watch" true
    (Session.insert_watchpoint session ~addr:counters ~len:4);
  (match Session.wait_stop session with
   | Some (Command.Watch_hit { pc; addr }) ->
     check int "watched address" counters addr;
     let th = Asm.symbol program "timer_handler" in
     check bool "pc inside timer handler" true (pc >= th && pc < th + 512)
   | _ -> Alcotest.fail "expected watch hit");
  check bool "stopped" true (Cpu.stopped (Machine.cpu m));
  (* 2. continue replays the store and runs on to the next hit *)
  Session.continue_ session;
  (match Session.wait_stop session with
   | Some (Command.Watch_hit _) -> ()
   | _ -> Alcotest.fail "expected second hit");
  (* 3. removing the watch frees the guest completely *)
  check bool "remove watch" true
    (Session.remove_watchpoint session ~addr:counters ~len:4);
  check int "table empty" 0
    (Core.Watchpoints.count (Monitor.watchpoints mon));
  Session.continue_ session;
  let ticks () = (Kernel.read_counters (Machine.mem m) program).Kernel.ticks in
  let before = ticks () in
  Machine.run_seconds m 0.2;
  check bool "guest free-running" true (ticks () > before + 2)

let test_kernel_mode_watch_hit_logged () =
  (* The default kernel runs with guest paging off; its watch hits reach
     the monitor log just as a paged guest's do. *)
  let m, mon, program, session, _ = rig ~rate:10.0 () in
  check int "guest paging off" 0 (Monitor.guest_ptb mon);
  let counters = Asm.symbol program "counters" in
  check bool "insert watch" true
    (Session.insert_watchpoint session ~addr:counters ~len:4);
  (match Session.wait_stop session with
   | Some (Command.Watch_hit _) -> ()
   | _ -> Alcotest.fail "expected watch hit");
  let line = Printf.sprintf "watchpoint hit: store to 0x%x" counters in
  check int "logged once" 1
    (List.length
       (List.filter
          (fun e -> contains e.Vmm_profile.Flight.detail line)
          (Vmm_profile.Flight.find (Machine.trace m) ~kind:"monitor")))

let test_session_watch_same_page_transparent () =
  (* Watching an address the guest never writes must not disturb it even
     though the rest of the page is stored to constantly. *)
  let m, mon, program, session, _ = rig ~rate:10.0 () in
  let unused = Asm.symbol program "counters" + 60 in
  check bool "insert watch" true
    (Session.insert_watchpoint session ~addr:unused ~len:4);
  let ticks () = (Kernel.read_counters (Machine.mem m) program).Kernel.ticks in
  let before = ticks () in
  Machine.run_seconds m 0.3;
  check bool "no stop" false (Cpu.stopped (Machine.cpu m));
  check bool "guest progressed" true (ticks () > before + 2);
  check int "no notifications" 0
    (Core.Stub.notifications_sent (Monitor.stub mon))

let test_session_console_read () =
  (* The guest prints through the console hypercall while streaming; the
     debugger drains it over the wire. *)
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  let a = Asm.create ~origin:0x1000 () in
  String.iter
    (fun c ->
      Asm.movi a 1 (Asm.imm (Char.code c));
      Asm.vmcall a (Asm.imm 0))
    "boot ok";
  Asm.sti a;
  Asm.label a "loop";
  Asm.jmp a (Asm.lbl "loop");
  Monitor.boot_guest mon (Asm.assemble a) ~entry:0x1000;
  Machine.run_seconds m 0.001;
  let session = Session.attach m in
  (match Session.read_console session with
   | Some text -> check Alcotest.string "console text" "boot ok" text
   | None -> Alcotest.fail "no console reply");
  (* draining semantics: a second read is empty *)
  match Session.read_console session with
  | Some "" -> ()
  | Some text -> Alcotest.failf "expected drained console, got %S" text
  | None -> Alcotest.fail "no second reply"

(* Arm the continuous profiler for a window under load, then disarm it
   so the samples stay put while the host reads them over the wire. *)
let profile_window m =
  Machine.set_profiling m ~period:Vmm_profile.Profiler.default_period;
  Machine.run_seconds m 0.3;
  Machine.set_profiling m ~period:0L

let test_session_profile () =
  let m, _, program, session, _ = rig ~rate:100.0 () in
  profile_window m;
  match Session.read_profile_dump session with
  | None -> Alcotest.fail "no profile reply"
  | Some (_, _, buckets) ->
    check bool "samples collected" true (List.length buckets > 0);
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
    check bool "plausible sample count" true (total >= 10);
    (* every sampled pc lies inside the guest image *)
    let size = Bytes.length program.Asm.code in
    List.iter
      (fun (key, _) ->
        let pc = key.Vmm_profile.Profiler.k_pc in
        if pc < Kernel.entry || pc >= Kernel.entry + size then
          Alcotest.failf "sample outside guest image: 0x%x" pc)
      buckets;
    (* the machine's profiler matches the wire view, bucket for bucket *)
    let local =
      Vmm_profile.Profiler.(parse_dump (dump (Machine.profiler m)))
    in
    check bool "same buckets as the profiler" true
      (Option.map snd local = Some buckets)

let test_breakpoint_and_watchpoint_together () =
  (* Both mechanisms active at once: a breakpoint in the timer handler
     and a watchpoint on the counters page must coexist; each stop is
     attributed to the right cause and the guest keeps working after. *)
  let m, _, program, session, _ = rig ~rate:10.0 () in
  let counters = Asm.symbol program "counters" in
  let th = Asm.symbol program "timer_handler" in
  check bool "bp" true (Session.insert_breakpoint session th);
  check bool "watch" true
    (Session.insert_watchpoint session ~addr:(counters + 4) ~len:4);
  (* first stop: the breakpoint at the handler's first instruction *)
  (match Session.wait_stop session with
   | Some (Command.Break addr) -> check int "breakpoint first" th addr
   | other ->
     Alcotest.failf "expected breakpoint, got %s"
       (match other with
        | Some r -> Format.asprintf "%a" Command.pp_stop_reason r
        | None -> "timeout"));
  Session.continue_ session;
  (* next stop: the watch on segs_issued fires inside the same handler *)
  (match Session.wait_stop session with
   | Some (Command.Watch_hit { addr; _ }) ->
     check int "watch second" (counters + 4) addr
   | other ->
     Alcotest.failf "expected watch hit, got %s"
       (match other with
        | Some r -> Format.asprintf "%a" Command.pp_stop_reason r
        | None -> "timeout"));
  check bool "remove watch" true
    (Session.remove_watchpoint session ~addr:(counters + 4) ~len:4);
  check bool "remove bp" true (Session.remove_breakpoint session th);
  Session.continue_ session;
  let ticks () = (Kernel.read_counters (Machine.mem m) program).Kernel.ticks in
  let before = ticks () in
  Machine.run_seconds m 0.3;
  check bool "guest healthy afterwards" true (ticks () > before + 1)

let test_session_query_verify () =
  (* The monitor verifies the shipped kernel at boot; qV reports it. *)
  let _, _, _, session, _ = rig () in
  match Session.query_verify session with
  | Some (text, fields) ->
    check bool "report text" true (contains text "analysis=");
    check (Alcotest.option Alcotest.string) "clean" (Some "clean")
      (List.assoc_opt "analysis" fields);
    check (Alcotest.option Alcotest.string) "no diagnostics" (Some "0")
      (List.assoc_opt "diags" fields);
    (match List.assoc_opt "instructions" fields with
     | Some n -> check bool "instruction count" true (int_of_string n > 100)
     | None -> Alcotest.fail "missing instructions field")
  | None -> Alcotest.fail "no qV reply"

(* -- CLI -- *)

let test_cli_regs_and_memory () =
  let _, _, program, session, symbols = rig () in
  let cli = Cli.create ~session ~symbols in
  let out = Cli.execute cli "regs" in
  check bool "regs output" true
    (String.length out > 0
    && (contains out "pc"));
  ignore program;
  let out = Cli.execute cli "x counters 16" in
  check bool "hex dump has address prefix" true
    (String.length out > 8 && out.[8] = ':')

let test_cli_breakpoints () =
  let m, _, _, session, symbols = rig () in
  let cli = Cli.create ~session ~symbols in
  let out = Cli.execute cli "break send_segment" in
  check bool "break acknowledges symbol" true
    (contains out "send_segment");
  let out = Cli.execute cli "wait" in
  check bool "wait reports breakpoint" true
    (contains out "breakpoint");
  check bool "stopped" true (Cpu.stopped (Machine.cpu m));
  let out = Cli.execute cli "step" in
  check bool "step reports" true
    (contains out "stepped");
  ignore (Cli.execute cli "delete send_segment");
  ignore (Cli.execute cli "continue")

let test_cli_disassembly () =
  let _, _, _, session, symbols = rig () in
  let cli = Cli.create ~session ~symbols in
  let out = Cli.execute cli "disas boot 3" in
  (* the first kernel instruction sets up the stack pointer *)
  check bool "shows movi" true
    (contains out "movi")

let test_cli_address_parsing () =
  let _, _, program, session, symbols = rig () in
  let cli = Cli.create ~session ~symbols in
  check (Alcotest.option int) "symbol" (Some (Asm.symbol program "boot"))
    (Cli.parse_address cli "boot");
  check (Alcotest.option int) "symbol+offset"
    (Some (Asm.symbol program "boot" + 16))
    (Cli.parse_address cli "boot+16");
  check (Alcotest.option int) "hex" (Some 0x1234) (Cli.parse_address cli "0x1234");
  check (Alcotest.option int) "garbage" None (Cli.parse_address cli "zzz")

let test_cli_profile () =
  let m, _, _, session, symbols = rig ~rate:100.0 () in
  profile_window m;
  let cli = Cli.create ~session ~symbols in
  let out = Cli.execute cli "profile 5" in
  check bool "has sample header" true (contains out "samples");
  check bool "resolves a known symbol" true
    (contains out "idle_loop" || contains out "send_segment"
    || contains out "timer_handler" || contains out "scsi_handler"
    || contains out "syscall_send" || contains out "nic_handler"
    || contains out "seg_loop" || contains out "nic_spin")

let test_cli_errors () =
  let _, _, _, session, symbols = rig () in
  let cli = Cli.create ~session ~symbols in
  check bool "unknown command gives usage" true
    (contains (Cli.execute cli "frobnicate") "commands:");
  check bool "bad address" true
    (contains (Cli.execute cli "break zzz") "error")

let test_session_timeout_when_stub_dead () =
  (* A bare-metal machine has no stub: every command times out cleanly. *)
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let a = Asm.create ~origin:0x1000 () in
  Asm.hlt a;
  Machine.boot m (Asm.assemble a) ~entry:0x1000;
  let session = Session.attach m in
  check bool "no register reply" true
    (Session.read_registers ~timeout_s:0.05 session = None);
  check bool "no memory reply" true
    (Session.read_memory ~timeout_s:0.05 session ~addr:0 ~len:4 = None);
  check bool "halt gets nothing" true
    (Session.halt ~timeout_s:0.05 session = None)

let test_cli_write_and_reg () =
  let m, _, _, session, symbols = rig () in
  let cli = Cli.create ~session ~symbols in
  check Alcotest.string "w writes" "ok" (Cli.execute cli "w 0x19000 cafef00d");
  let out = Cli.execute cli "x 0x19000 4" in
  check bool "hexdump shows bytes" true (contains out "ca fe f0 0d");
  check Alcotest.string "reg sets" "ok" (Cli.execute cli "reg 3 0x42");
  check int "landed" 0x42 (Vmm_hw.Cpu.read_reg (Machine.cpu m) 3);
  check bool "reg bad index" true
    (contains (Cli.execute cli "reg 99 0") "error")

let () =
  Alcotest.run "vmm_debugger"
    [
      ( "symbols",
        [
          Alcotest.test_case "lookup" `Quick test_symbols_lookup;
          Alcotest.test_case "edge cases" `Quick test_symbols_edge_cases;
        ] );
      ( "session",
        [
          Alcotest.test_case "registers" `Quick test_session_registers;
          Alcotest.test_case "memory" `Quick test_session_memory;
          Alcotest.test_case "breakpoint flow" `Quick test_session_breakpoint_flow;
          Alcotest.test_case "halt/query" `Quick test_session_halt_query;
          Alcotest.test_case "detach" `Quick test_session_detach_removes_breakpoints;
          Alcotest.test_case "latency" `Quick test_session_latency_measured;
          Alcotest.test_case "watchpoint flow" `Quick
            test_session_watchpoint_flow;
          Alcotest.test_case "kernel-mode watch hit logged" `Quick
            test_kernel_mode_watch_hit_logged;
          Alcotest.test_case "watch transparency" `Quick
            test_session_watch_same_page_transparent;
          Alcotest.test_case "console read" `Quick test_session_console_read;
          Alcotest.test_case "query verify" `Quick test_session_query_verify;
          Alcotest.test_case "profile" `Quick test_session_profile;
          Alcotest.test_case "breakpoint + watchpoint" `Quick
            test_breakpoint_and_watchpoint_together;
        ] );
      ( "cli",
        [
          Alcotest.test_case "regs/memory" `Quick test_cli_regs_and_memory;
          Alcotest.test_case "breakpoints" `Quick test_cli_breakpoints;
          Alcotest.test_case "disassembly" `Quick test_cli_disassembly;
          Alcotest.test_case "address parsing" `Quick test_cli_address_parsing;
          Alcotest.test_case "errors" `Quick test_cli_errors;
          Alcotest.test_case "profile output" `Quick test_cli_profile;
          Alcotest.test_case "write/reg commands" `Quick test_cli_write_and_reg;
          Alcotest.test_case "timeout on dead stub" `Quick
            test_session_timeout_when_stub_dead;
        ] );
    ]
