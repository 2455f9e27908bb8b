(* Stability suite: the paper's robustness claim under adversarial
   conditions.  For every fault class — lossy/corrupting/duplicating/
   delaying debug wire, wild guest jumps and stores, clobbered interrupt
   table or page-table base, interrupt storms, a wedged guest, failing
   disks, a stalled NIC — the guest may crash, but the monitor and its
   debug stub must survive: afterwards the host can still set a
   breakpoint, read memory and resume.  Every run is deterministic in the
   seed printed on entry, so a failure replays exactly. *)

module Machine = Vmm_hw.Machine
module Costs = Vmm_hw.Costs
module Scsi = Vmm_hw.Scsi
module Nic = Vmm_hw.Nic
module Monitor = Core.Monitor
module Kernel = Vmm_guest.Kernel
module Session = Vmm_debugger.Session
module Chaos = Vmm_fault.Chaos
module Plan = Vmm_fault.Plan
module Rng = Vmm_sim.Rng

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* A fast wire keeps the suite quick without changing any semantics: all
   timeouts scale with the same cost table. *)
let test_costs = { Costs.default with Costs.uart_cycles_per_byte = 2000 }

let cyc s = Costs.cycles_of_seconds test_costs s

let rig ~seed =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  let program = Kernel.build (Kernel.default_config ~rate_mbps:20.0) in
  Monitor.boot_guest mon program ~entry:Kernel.entry;
  Machine.run_seconds m 0.01;
  let plan = Plan.create ~seed ~engine:(Machine.engine m) in
  let chaos = Plan.chaos plan in
  let session =
    Session.attach ~wrap_to_target:(Chaos.wrap chaos)
      ~wrap_to_host:(Chaos.wrap chaos) m
  in
  (m, mon, plan, session)

let is_link = function
  | Plan.Link_drop | Plan.Link_corrupt | Plan.Link_dup | Plan.Link_delay ->
    true
  | _ -> false

(* After the fault window the wire is clean again, so recovery is
   deterministic: at most a few Resync exchanges. *)
let recover session =
  let alive () = Session.read_registers ~timeout_s:1.0 session <> None in
  let rec go tries = alive () || (tries > 0 && (ignore (Session.reconnect ~timeout_s:1.0 session); go (tries - 1))) in
  go 5

let stability cls () =
  let seed = Int64.of_int (0x5EED00 + Hashtbl.hash (Plan.name cls) mod 0xFFFF) in
  Printf.printf "[stability] %-18s seed=%Ld\n%!" (Plan.name cls) seed;
  let m, mon, plan, session = rig ~seed in
  check bool "healthy before fault" true
    (Session.read_registers session <> None);
  let now = Machine.now m in
  Plan.arm plan ~monitor:mon cls ~at:(Int64.add now (cyc 0.002))
    ~until:(Int64.add now (cyc 0.08));
  (* Drive load through the fault.  Link classes get live traffic inside
     the window (that is what they corrupt); the rest just need sim time
     for the fault to land and do its damage. *)
  if is_link cls then
    for _ = 1 to 12 do
      ignore (Session.read_memory ~timeout_s:0.5 session ~addr:Kernel.entry ~len:32);
      if not (Session.link_up session) then
        ignore (Session.reconnect ~timeout_s:0.5 session)
    done
  else Machine.run_seconds m 0.1;
  (* Past the window: the wire is quiet, the guest may be dead. *)
  check bool "link recovered" true (recover session);
  (* The paper's claim: whatever happened, debugging still works. *)
  check bool "insert breakpoint" true
    (Session.insert_breakpoint session Kernel.entry);
  (match Session.read_memory session ~addr:Kernel.entry ~len:16 with
   | Some data -> check int "memory read length" 16 (String.length data)
   | None -> Alcotest.fail "memory read failed after fault");
  check bool "remove breakpoint" true
    (Session.remove_breakpoint session Kernel.entry);
  Session.continue_ session;
  check bool "target answers after resume" true
    (Session.is_running session <> None);
  (* The monitor survived and counted what happened to it. *)
  let stats = Monitor.stats mon in
  if not (is_link cls) && cls <> Plan.Scsi_error && cls <> Plan.Nic_stall then
    check bool "fault was injected" true (stats.Monitor.injected_faults >= 1)

(* Device-fault classes additionally check the device-side counters the
   stability run relies on. *)

let test_scsi_error_counted () =
  let seed = 77L in
  let m, mon, plan, _session = rig ~seed in
  let scsi = Machine.scsi m in
  let before = Scsi.read_errors scsi in
  let now = Machine.now m in
  Plan.arm plan ~monitor:mon Plan.Scsi_error ~at:(Int64.add now (cyc 0.002))
    ~until:(Int64.add now (cyc 0.08));
  Machine.run_seconds m 0.2;
  check bool "read errors surfaced" true (Scsi.read_errors scsi > before)

let test_nic_stall_counted () =
  let seed = 78L in
  let m, mon, plan, _session = rig ~seed in
  let nic = Machine.nic m in
  let now = Machine.now m in
  Plan.arm plan ~monitor:mon Plan.Nic_stall ~at:(Int64.add now (cyc 0.002))
    ~until:(Int64.add now (cyc 0.08));
  Machine.run_seconds m 0.1;
  check int "stall recorded" 1 (Nic.tx_stalls nic)

(* Reconnection semantics on a healthy wire: reset + Resync is cheap and
   idempotent. *)
let test_reconnect_idempotent () =
  let _, _, _, session = rig ~seed:79L in
  check bool "first reconnect" true (Session.reconnect session);
  check bool "second reconnect" true (Session.reconnect session);
  check bool "still debuggable" true
    (Session.read_registers session <> None);
  check bool "resets counted" true
    ((Session.link_stats session).Vmm_proto.Reliable.link_resets >= 2)

(* A deliberately hostile wire must eventually yield Link_down (bounded
   retries — no hang), and reconnecting afterwards must succeed. *)
(* Loss only on the target->host direction: the stub receives the
   command, retries its reply into the void, exhausts its budget and
   parks the guest; the host independently concludes the same from the
   missing ack. *)
let test_link_down_and_back () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  let program = Kernel.build (Kernel.default_config ~rate_mbps:20.0) in
  Monitor.boot_guest mon program ~entry:Kernel.entry;
  Machine.run_seconds m 0.01;
  let chaos =
    Chaos.create ~engine:(Machine.engine m) ~rng:(Rng.create ~seed:80L) ()
  in
  let session = Session.attach ~wrap_to_host:(Chaos.wrap chaos) m in
  check bool "healthy first" true (Session.read_registers session <> None);
  Chaos.set_profile chaos { Chaos.quiet with Chaos.drop_p = 1.0 };
  Chaos.set_active chaos true;
  (match Session.read_memory ~timeout_s:60.0 session ~addr:Kernel.entry ~len:8 with
   | Some _ -> Alcotest.fail "read should not survive a 100%-loss wire"
   | None -> ());
  check bool "link declared down" false (Session.link_up session);
  check int "one link-down event" 1 (Session.link_downs session);
  (* Let the stub finish exhausting its own retry budget. *)
  Machine.run_seconds m 5.0;
  check bool "stub declared down too" true (Core.Stub.link_downs (Monitor.stub mon) >= 1);
  (* While nobody could talk to it, the stub parked the guest: the
     reconnectable "attached, guest stopped" state. *)
  check bool "stub parked the guest" true (Core.Stub.stopped (Monitor.stub mon));
  Chaos.set_active chaos false;
  check bool "reconnect after down" true (Session.reconnect session);
  check bool "debuggable again" true (Session.read_registers session <> None);
  (* The parked guest resumes and the session keeps answering. *)
  Session.continue_ session;
  check bool "target answers after resume" true
    (Session.is_running session <> None)

(* Regression: replies pair with commands by order, so an abandoned wait
   must not shift the pairing.  A guest fault mid-traffic queues a stop
   notification; [is_running] answers from it, leaving its own '?' reply
   in flight.  That late reply must be discarded — every later transact
   still gets its own reply, and reconnect finds the real resync ack. *)
let test_stale_reply_no_desync () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  let program = Kernel.build (Kernel.default_config ~rate_mbps:20.0) in
  Monitor.boot_guest mon program ~entry:Kernel.entry;
  Machine.run_seconds m 0.01;
  let session = Session.attach m in
  let storm iter =
    let now = Machine.now m in
    ignore
      (Vmm_sim.Engine.at (Machine.engine m)
         ~time:(Int64.add now (cyc 0.002))
         (fun () -> Monitor.inject mon (Monitor.Wild_jump 0x0F00_1234)));
    for i = 1 to 8 do
      check bool
        (Printf.sprintf "%s read %d" iter i)
        true
        (Session.read_memory ~timeout_s:0.5 session ~addr:Kernel.entry ~len:32
        <> None)
    done;
    Machine.run_seconds m 0.05;
    check bool (iter ^ " regs") true
      (Session.read_registers ~timeout_s:1.0 session <> None);
    Session.continue_ session;
    (* Answers from the queued stop notification, abandoning the '?'
       reply — the trigger for the historical desync. *)
    check bool (iter ^ " is_running answers") true
      (Session.is_running ~timeout_s:1.0 session <> None)
  in
  storm "first";
  storm "second";
  check bool "reads still paired" true
    (Session.read_memory ~timeout_s:1.0 session ~addr:Kernel.entry ~len:32
    <> None);
  check bool "reconnect on healthy link" true
    (Session.reconnect ~timeout_s:1.0 session);
  check bool "debuggable after resync" true
    (Session.read_registers ~timeout_s:1.0 session <> None)

(* Regression: the stub answers '?' with R and the guest faults just
   after, so the R reply and the fault's T notification land in the same
   pump slice.  [is_running] must take its own R and leave the T pending;
   taking the T instead strands R in the reply queue, where the next
   transact pops it as its own reply. *)
let test_running_reply_beside_stop () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  let program = Kernel.build (Kernel.default_config ~rate_mbps:20.0) in
  Monitor.boot_guest mon program ~entry:Kernel.entry;
  Machine.run_seconds m 0.01;
  let session = Session.attach m in
  check bool "healthy first" true (Session.read_registers session <> None);
  Session.continue_ session;
  (* 60 us: after the stub has answered '?', before R reaches the host *)
  let now = Machine.now m in
  ignore
    (Vmm_sim.Engine.at (Machine.engine m)
       ~time:(Int64.add now (cyc 0.00006))
       (fun () -> Monitor.inject mon (Monitor.Wild_jump 0x0F00_1234)));
  check (Alcotest.option bool) "is_running takes its own R" (Some true)
    (Session.is_running ~timeout_s:1.0 session);
  check bool "next transact gets registers" true
    (Session.read_registers ~timeout_s:1.0 session <> None);
  match Session.wait_stop ~timeout_s:1.0 session with
  | Some (Vmm_proto.Command.Faulted _) -> ()
  | _ -> Alcotest.fail "the fault's stop stays pending"

(* -- Plan arming surface: overlap, disarm, introspection -- *)

let test_plan_disarm_and_overlap () =
  let m, mon, plan, session = rig ~seed:81L in
  let now = Machine.now m in
  let at = Int64.add now (cyc 0.002) and until = Int64.add now (cyc 0.5) in
  Plan.arm plan ~monitor:mon Plan.Link_drop ~at ~until;
  Plan.arm plan ~monitor:mon Plan.Link_delay ~at ~until;
  check (Alcotest.list Alcotest.string) "both armings live"
    [ Plan.name Plan.Link_drop; Plan.name Plan.Link_delay ]
    (List.map Plan.name (Plan.armed_classes plan));
  (* Re-arming a live class replaces it (last-writer-wins), never stacks. *)
  Plan.arm plan ~monitor:mon Plan.Link_drop ~at ~until;
  check int "still two armings" 2 (List.length (Plan.armed_classes plan));
  check bool "disarm hits the live arming" true
    (Plan.disarm plan Plan.Link_drop);
  check bool "second disarm is a no-op" false
    (Plan.disarm plan Plan.Link_drop);
  check (Alcotest.list Alcotest.string) "only delay remains"
    [ Plan.name Plan.Link_delay ]
    (List.map Plan.name (Plan.armed_classes plan));
  check bool "disarm the rest" true (Plan.disarm plan Plan.Link_delay);
  check int "disarms counted (incl. the replacement)" 3 (Plan.disarms plan);
  (* Everything was disarmed before the window opened: the wire stays
     clean through what would have been the fault window. *)
  for _ = 1 to 5 do
    check bool "clean read" true
      (Session.read_memory ~timeout_s:0.5 session ~addr:Kernel.entry ~len:32
      <> None)
  done;
  check int "no retransmissions" 0 (Session.retransmissions session)

(* -- Lifecycle: watchdog break-in, crash containment, warm restart -- *)

module Command = Vmm_proto.Command

let test_watchdog_breakin () =
  let m, mon, _plan, session = rig ~seed:82L in
  Monitor.watchdog_start mon;
  Monitor.inject mon Monitor.Guest_wedge;
  Machine.run_seconds m 0.02;
  check bool "break-in counted" true
    ((Monitor.stats mon).Monitor.wedge_breakins >= 1);
  (match Session.wait_stop ~timeout_s:1.0 session with
   | Some (Command.Wedged _) -> ()
   | _ -> Alcotest.fail "expected a wedged (T07) stop");
  match Session.query_watchdog session with
  | Some (_, fields) ->
    check Alcotest.string "watchdog running" "on"
      (List.assoc "watchdog" fields);
    check bool "break-ins reported" true
      (int_of_string (List.assoc "breakins" fields) >= 1);
    check bool "wedge context recorded" true (List.mem_assoc "wedge_pc" fields)
  | None -> Alcotest.fail "no qW reply"

let test_crash_containment () =
  let m, mon, _plan, session = rig ~seed:83L in
  Monitor.inject mon Monitor.Iht_clobber;
  Machine.run_seconds m 0.02;
  check bool "guest crashed" true (Monitor.crashed mon);
  (* Quarantined, not dead: the stub answers everything. *)
  check bool "registers readable" true (Session.read_registers session <> None);
  check bool "memory readable" true
    (Session.read_memory session ~addr:Kernel.entry ~len:16 <> None);
  (match Session.query_watchdog session with
   | Some (_, fields) ->
     check Alcotest.string "lifecycle reported" "crashed"
       (List.assoc "lifecycle" fields);
     check bool "cause recorded" true (List.mem_assoc "cause" fields)
   | None -> Alcotest.fail "no qW reply");
  (* Resume is refused (E03): the target stays stopped. *)
  Session.continue_ session;
  check (Alcotest.option bool) "still stopped" (Some false)
    (Session.is_running session);
  ignore (Session.step ~timeout_s:1.0 session);
  check (Alcotest.option bool) "still stopped after step" (Some false)
    (Session.is_running session);
  (* Both refusals (E03 to [c] and to [s]) are absorbed by the
     fire-and-forget discard slots and tallied, never shifting the
     command/reply pairing. *)
  check bool "refusals counted" true (Session.unsolicited_errors session >= 2);
  (* The only way out is a warm restart. *)
  (match Session.restart session with
   | Session.Restarted -> ()
   | _ -> Alcotest.fail "restart should succeed");
  check bool "healthy after restart" false (Monitor.crashed mon);
  Machine.run_seconds m 0.02;
  check (Alcotest.option bool) "running again" (Some true)
    (Session.is_running session)

let test_warm_restart_preserves_session () =
  let m, mon, _plan, session = rig ~seed:84L in
  let program = Kernel.build (Kernel.default_config ~rate_mbps:20.0) in
  let target = Vmm_hw.Asm.symbol program "scsi_handler" in
  check bool "insert" true (Session.insert_breakpoint session target);
  (match Session.wait_stop ~timeout_s:1.0 session with
   | Some (Command.Break a) -> check int "hit before restart" target a
   | _ -> Alcotest.fail "expected a breakpoint hit");
  (match Session.restart session with
   | Session.Restarted -> ()
   | _ -> Alcotest.fail "restart failed");
  check int "restart counted" 1 (Monitor.stats mon).Monitor.restarts;
  (* Same session, same reliable link — no reconnect needed. *)
  check bool "registers after restart" true
    (Session.read_registers session <> None);
  check int "no link resets" 0
    (Session.link_stats session).Vmm_proto.Reliable.link_resets;
  (* The planted breakpoint was re-applied over the restored image. *)
  (match Session.wait_stop ~timeout_s:1.0 session with
   | Some (Command.Break a) -> check int "hit again on fresh boot" target a
   | _ -> Alcotest.fail "breakpoint should survive the restart");
  check bool "remove" true (Session.remove_breakpoint session target);
  Session.continue_ session;
  Machine.run_seconds m 0.1;
  let c = Kernel.read_counters (Machine.mem m) program in
  check bool "workload streams after restart" true (c.Kernel.frames_sent > 0)

(* Warm restart really is a reboot: the same workload slice after a
   restart produces the same telemetry as a fresh boot (modulo the
   sub-slice phase at which the restart lands). *)
let test_restart_matches_fresh_boot () =
  let close_enough label a b =
    let tol = max 3 (a / 10) in
    check bool (Printf.sprintf "%s: fresh=%d restarted=%d" label a b) true
      (abs (a - b) <= tol)
  in
  let program = Kernel.build (Kernel.default_config ~rate_mbps:20.0) in
  let reference =
    let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
    let mon = Monitor.install m in
    Monitor.boot_guest mon program ~entry:Kernel.entry;
    Machine.run_seconds m 0.25;
    Kernel.read_counters (Machine.mem m) program
  in
  let m, _mon, _plan, session = rig ~seed:85L in
  Machine.run_seconds m 0.1;
  (match Session.restart session with
   | Session.Restarted -> ()
   | _ -> Alcotest.fail "restart failed");
  Machine.run_seconds m 0.25;
  let after = Kernel.read_counters (Machine.mem m) program in
  close_enough "ticks" reference.Kernel.ticks after.Kernel.ticks;
  close_enough "segments done" reference.Kernel.segments_done
    after.Kernel.segments_done;
  close_enough "frames sent" reference.Kernel.frames_sent
    after.Kernel.frames_sent

let () =
  let stability_cases =
    List.map
      (fun cls ->
        Alcotest.test_case (Plan.name cls) `Quick (fun () -> stability cls ()))
      Plan.all
  in
  Alcotest.run "vmm_fault"
    [
      ("stability", stability_cases);
      ( "fault-machinery",
        [
          Alcotest.test_case "scsi errors counted" `Quick test_scsi_error_counted;
          Alcotest.test_case "nic stall counted" `Quick test_nic_stall_counted;
          Alcotest.test_case "reconnect idempotent" `Quick test_reconnect_idempotent;
          Alcotest.test_case "link down and back" `Quick test_link_down_and_back;
          Alcotest.test_case "stale reply no desync" `Quick
            test_stale_reply_no_desync;
          Alcotest.test_case "running reply beside stop" `Quick
            test_running_reply_beside_stop;
          Alcotest.test_case "plan disarm + overlap" `Quick
            test_plan_disarm_and_overlap;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "watchdog break-in" `Quick test_watchdog_breakin;
          Alcotest.test_case "crash containment" `Quick
            test_crash_containment;
          Alcotest.test_case "warm restart preserves session" `Quick
            test_warm_restart_preserves_session;
          Alcotest.test_case "restart matches fresh boot" `Quick
            test_restart_matches_fresh_boot;
        ] );
    ]
