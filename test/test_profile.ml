(* Tests for the observability plane added around the continuous
   profiler: the PC-sampling profiler itself (bucketing, cadence,
   reports), the always-on flight recorder (ring semantics, dump
   format), the crash-bundle container format, and the end-to-end paths
   — profiler armed on a live machine, qP/qR over the debug wire, the
   crash bundle captured at escalation and its lifecycle across warm
   restarts. *)

module Stats = Vmm_sim.Stats
module Registry = Vmm_obs.Registry
module Profiler = Vmm_profile.Profiler
module Flight = Vmm_profile.Flight
module Bundle = Vmm_profile.Bundle
module Machine = Vmm_hw.Machine
module Costs = Vmm_hw.Costs
module Asm = Vmm_hw.Asm
module Monitor = Core.Monitor
module Kernel = Vmm_guest.Kernel
module Session = Vmm_debugger.Session

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

let test_costs = { Costs.default with Costs.uart_cycles_per_byte = 2000 }

(* The profile as a reader sees it: the buckets of its own dump. *)
let dumped p =
  match Profiler.parse_dump (Profiler.dump p) with
  | Some (_, buckets) -> buckets
  | None -> Alcotest.fail "dump did not parse"

(* -- Profiler: bucketing and cadence -- *)

(* A guest that spins on one [jmp] with interrupts off. *)
let spin_program () =
  let a = Asm.create ~origin:0x1000 () in
  Asm.label a "spin";
  Asm.jmp a (Asm.lbl "spin");
  Asm.assemble a

let test_profiler_disabled_by_default () =
  let m = Machine.create ~costs:test_costs () in
  let p = Machine.profiler m in
  check Alcotest.int64 "disabled" 0L (Profiler.period p);
  Machine.boot m (spin_program ()) ~entry:0x1000;
  Machine.run_for m ~cycles:10_000L;
  check int "never sampled" 0 (Profiler.total_samples p);
  check bool "negative period refused" true
    (try
       Profiler.set_period p (-1L);
       false
     with Invalid_argument _ -> true)

(* The CPU owns the cadence: a sample at the first instruction boundary
   a period after arming or after the previous sample.  A [jmp] costs
   one cycle, so every boundary is a cycle and samples land exactly. *)
let test_profiler_cadence () =
  let m = Machine.create ~costs:test_costs () in
  let p = Machine.profiler m in
  Machine.boot m (spin_program ()) ~entry:0x1000;
  Machine.set_profiling m ~period:100L;
  check Alcotest.int64 "period reported" 100L (Profiler.period p);
  Machine.run_for m ~cycles:99L;
  check int "not sampled one cycle early" 0 (Profiler.total_samples p);
  Machine.run_for m ~cycles:1L;
  check int "sampled at the period" 1 (Profiler.total_samples p);
  Machine.run_for m ~cycles:99L;
  check int "re-armed after the sample" 1 (Profiler.total_samples p);
  Machine.run_for m ~cycles:1L;
  check int "sampled again" 2 (Profiler.total_samples p);
  Machine.run_for m ~cycles:10_000L;
  check int "one sample per period" 102 (Profiler.total_samples p);
  Machine.set_profiling m ~period:0L;
  Machine.run_for m ~cycles:10_000L;
  check Alcotest.int64 "disarmed" 0L (Profiler.period p);
  check int "no sample once disarmed" 102 (Profiler.total_samples p)

let test_profiler_buckets () =
  let p = Profiler.create () in
  Profiler.set_period p 1L;
  (* Repeats at one bucket exercise the memoized fast path; the
     interleavings exercise the miss path — the counts must agree with
     a naive tally regardless of which path recorded them. *)
  for _ = 1 to 5 do
    Profiler.sample p ~pc:0x1000 ~ring:1 ~cat:Stats.Guest
  done;
  Profiler.sample p ~pc:0x1000 ~ring:1 ~cat:Stats.Mon_cpu;
  Profiler.sample p ~pc:0x1000 ~ring:3 ~cat:Stats.Guest;
  for _ = 1 to 2 do
    Profiler.sample p ~pc:0x2000 ~ring:1 ~cat:Stats.Guest
  done;
  Profiler.sample p ~pc:0x1000 ~ring:1 ~cat:Stats.Guest;
  check int "total" 10 (Profiler.total_samples p);
  let buckets = dumped p in
  let count key =
    match List.assoc_opt key buckets with Some n -> n | None -> 0
  in
  check int "memoized bucket"
    6 (count { Profiler.k_pc = 0x1000; k_ring = 1; k_cat = "guest" });
  check int "category split"
    1 (count { Profiler.k_pc = 0x1000; k_ring = 1; k_cat = "mon_cpu" });
  check int "ring split"
    1 (count { Profiler.k_pc = 0x1000; k_ring = 3; k_cat = "guest" });
  check int "pc split"
    2 (count { Profiler.k_pc = 0x2000; k_ring = 1; k_cat = "guest" });
  check int "four buckets" 4 (List.length buckets);
  (* hottest first *)
  match buckets with
  | (k, n) :: _ ->
    check int "hottest count" 6 n;
    check int "hottest pc" 0x1000 k.Profiler.k_pc
  | [] -> Alcotest.fail "no buckets"

let test_profiler_dump_round_trip () =
  let p = Profiler.create () in
  Profiler.set_period p 50L;
  for _ = 1 to 3 do
    Profiler.sample p ~pc:0x1040 ~ring:1 ~cat:Stats.Guest
  done;
  Profiler.sample p ~pc:0x2080 ~ring:3 ~cat:Stats.Irq;
  let text = Profiler.dump p in
  check string "dump text"
    "samples=4 period=50 buckets=2\n\
     pc=0x1040 ring=1 cat=guest count=3\n\
     pc=0x2080 ring=3 cat=irq count=1\n"
    text;
  match Profiler.parse_dump text with
  | None -> Alcotest.fail "dump did not parse"
  | Some (fields, buckets) ->
    check (Alcotest.option string) "samples" (Some "4")
      (List.assoc_opt "samples" fields);
    check (Alcotest.option string) "period" (Some "50")
      (List.assoc_opt "period" fields);
    check (Alcotest.option string) "buckets" (Some "2")
      (List.assoc_opt "buckets" fields);
    check bool "buckets round-trip" true
      (buckets
       = [
           ({ Profiler.k_pc = 0x1040; k_ring = 1; k_cat = "guest" }, 3);
           ({ Profiler.k_pc = 0x2080; k_ring = 3; k_cat = "irq" }, 1);
         ])

(* An armed profiler runs [sample] every period, so a sample into an
   existing bucket must allocate nothing: neither a repeat of the last
   bucket (the memo) nor a switch between buckets (the table probe).
   Any per-call box costs at least two words, so under one word per
   call is none. *)
let test_profiler_sample_allocates_nothing () =
  let p = Profiler.create () in
  Profiler.set_period p 1L;
  Profiler.sample p ~pc:0x1000 ~ring:1 ~cat:Stats.Guest;
  Profiler.sample p ~pc:0x2000 ~ring:0 ~cat:Stats.Mon_io;
  let calls = 10_000 in
  let words f =
    let before = Gc.minor_words () in
    for i = 1 to calls do
      f i
    done;
    Gc.minor_words () -. before
  in
  let same =
    words (fun _ -> Profiler.sample p ~pc:0x1000 ~ring:1 ~cat:Stats.Guest)
  in
  let alternating =
    words (fun i ->
        if i land 1 = 0 then
          Profiler.sample p ~pc:0x1000 ~ring:1 ~cat:Stats.Guest
        else Profiler.sample p ~pc:0x2000 ~ring:0 ~cat:Stats.Mon_io)
  in
  check bool
    (Printf.sprintf "one bucket: %.0f words over %d samples" same calls)
    true
    (same < float_of_int calls);
  check bool
    (Printf.sprintf "two buckets: %.0f words over %d samples" alternating
       calls)
    true
    (alternating < float_of_int calls);
  check int "all counted" ((2 * calls) + 2) (Profiler.total_samples p)

(* -- Flight recorder -- *)

let test_flight_ring_wrap () =
  let f = Flight.create ~capacity:4 () in
  check int "default capacity sane" 512 Flight.default_capacity;
  for i = 1 to 10 do
    Flight.note f ~cycle:(Int64.of_int (i * 100)) ~kind:"irq.deliver"
      (Flight.Text (Printf.sprintf "line=%d" i))
  done;
  check int "total" 10 (Flight.total f);
  check int "retained" 4 (Flight.retained f);
  check int "dropped" 6 (Flight.dropped f);
  (* the ring holds the LAST capacity events, oldest first *)
  check
    (Alcotest.list string)
    "last events, oldest first"
    [ "line=7"; "line=8"; "line=9"; "line=10" ]
    (List.map (fun e -> e.Flight.detail) (Flight.entries f));
  Flight.clear f;
  check int "cleared" 0 (Flight.total f);
  check int "nothing retained" 0 (Flight.retained f)

(* A ring that has overflowed keeps the last [capacity] events in order
   and still counts every event noted. *)
let test_flight_ring_eviction () =
  let f = Flight.create ~capacity:3 () in
  for i = 1 to 5 do
    Flight.note f ~cycle:(Int64.of_int i) ~kind:"dev" ~severity:Flight.Info
      (Flight.Text (string_of_int i))
  done;
  check int "retains capacity" 3 (Flight.retained f);
  check int "total noted" 5 (Flight.total f);
  check (Alcotest.list string) "keeps most recent" [ "3"; "4"; "5" ]
    (List.map (fun e -> e.Flight.detail) (Flight.entries f))

let test_flight_dump_golden () =
  let f = Flight.create ~capacity:2 () in
  Flight.note f ~cycle:100L ~kind:"trap.pf" (Flight.Text "pc=0x1000");
  Flight.note f ~cycle:250L ~kind:"io.out" (Flight.Text "port=0x64 val=0xfe");
  Flight.note f ~cycle:300L ~kind:"irq.deliver" (Flight.Text "line=3");
  check string "dump"
    "flight total=3 retained=2 dropped=1 capacity=2\n\
     @250 io.out: port=0x64 val=0xfe\n\
     @300 irq.deliver: line=3\n"
    (Flight.dump f)

let test_flight_find_by_kind () =
  let f = Flight.create ~capacity:10 () in
  Flight.note f ~cycle:1L ~kind:"nic" ~severity:Flight.Info (Flight.Text "tx");
  Flight.note f ~cycle:2L ~kind:"pic" ~severity:Flight.Warn (Flight.Text "mask");
  Flight.note f ~cycle:3L ~kind:"nic" ~severity:Flight.Error (Flight.Text "drop");
  check (Alcotest.list string) "nic entries, oldest first" [ "tx"; "drop" ]
    (List.map (fun e -> e.Flight.detail) (Flight.find f ~kind:"nic"))

let test_flight_find_min_severity () =
  let f = Flight.create ~capacity:10 () in
  let note cycle kind severity detail =
    Flight.note f ~cycle ~kind ~severity (Flight.Text detail)
  in
  note 1L "nic" Flight.Debug "d";
  note 2L "nic" Flight.Warn "w";
  note 3L "nic" Flight.Error "e";
  note 4L "pic" Flight.Error "other";
  check int "warn and up" 2
    (List.length (Flight.find ~min_severity:Flight.Warn f ~kind:"nic"));
  check int "unfiltered" 3 (List.length (Flight.find f ~kind:"nic"));
  check bool "severity kept" true
    (List.map (fun e -> e.Flight.severity) (Flight.find f ~kind:"nic")
     = [ Flight.Debug; Flight.Warn; Flight.Error ])

(* The ring renders typed details only when read; the text must be what
   the call sites formatted eagerly before, so dumps, [qR] and crash
   bundles keep their bytes. *)
let rendered detail =
  let f = Flight.create ~capacity:1 () in
  Flight.note f ~cycle:0L ~kind:"k" detail;
  match Flight.entries f with
  | [ e ] -> e.Flight.detail
  | _ -> Alcotest.fail "expected one entry"

let gen_payload =
  let open QCheck.Gen in
  let module E = Vmm_replay.Event in
  oneof
    [
      map (fun line -> E.Irq_inject { line }) small_nat;
      map (fun count -> E.Timer_fire { count }) nat;
      map2
        (fun chan seq -> E.Dma_complete { chan; seq })
        (oneofl [ "scsi"; "nic" ]) nat;
      map (fun byte -> E.Uart_rx { byte }) (int_bound 255);
      map (fun len -> E.Nic_rx { len }) nat;
      return (E.Chaos E.Drop);
      map3
        (fun mask dup delay -> E.Chaos (E.Deliver { mask; dup; delay }))
        (int_bound 255) bool nat;
      map (fun pc -> E.Wedge { pc }) (int_bound 0xFFFFFFFF);
      map2
        (fun vector pc -> E.Crash { vector; pc })
        (int_bound 63) (int_bound 0xFFFFFFFF);
      map2
        (fun index retired -> E.Checkpoint { index; retired })
        nat ui64;
      map (fun pc -> E.Vbp_hit { pc }) (int_bound 0xFFFFFFFF);
    ]

let prop_event_renders_as_pp_payload =
  QCheck.Test.make ~name:"event renders as pp_payload" ~count:500
    (QCheck.make
       ~print:(Format.asprintf "%a" Vmm_replay.Event.pp_payload)
       gen_payload)
    (fun p ->
      String.equal (rendered (Flight.Event p))
        (Format.asprintf "%a" Vmm_replay.Event.pp_payload p))

let prop_reflect_io_render =
  QCheck.Test.make ~name:"reflect and io render" ~count:500
    QCheck.(triple int int int)
    (fun (a, b, c) ->
      String.equal
        (rendered (Flight.Reflect { vector = a; pc = b; depth = c }))
        (Printf.sprintf "vector=%d pc=0x%x depth=%d" a b c)
      && String.equal
           (rendered (Flight.Io { port = a; pc = b }))
           (Printf.sprintf "port=0x%x pc=0x%x" a b))

let test_flight_note_allocates_nothing () =
  (* [note] stores the caller's detail: four slot writes and two index
     updates.  Any per-call box costs at least two words, so under one
     word per call is none. *)
  let f = Flight.create () in
  let details =
    [|
      Flight.Event (Vmm_replay.Event.Irq_inject { line = 3 });
      Flight.Reflect { vector = 32; pc = 0x1000; depth = 0 };
      Flight.Io { port = 0x20; pc = 0x1004 };
      Flight.Text "frame";
    |]
  in
  let cycles = [| 3L; 40L; 1L; 250L |] in
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    Flight.note f ~cycle:cycles.(i land 3) ~kind:"monitor.io" details.(i land 3)
  done;
  let words = Gc.minor_words () -. before in
  check bool
    (Printf.sprintf "no allocation per note (%.0f words over %d)" words calls)
    true
    (words < float_of_int calls);
  check int "all counted" calls (Flight.total f)

(* -- Crash bundles -- *)

let test_bundle_round_trip () =
  let text =
    Bundle.compose ~cause:"double_fault" ~cycle:123456L
      [
        Bundle.section ~name:"crash-report" "cause=double_fault\nvector=8\n";
        (* a body whose lines look like framing must still round-trip *)
        Bundle.section ~name:"flight"
          "flight total=1 retained=1 dropped=0 capacity=512\n\
           @10 note: --- begin sneaky ---\n";
        Bundle.section ~name:"metrics" "demo_total 1" (* no trailing \n *);
      ]
  in
  check bool "magic first line" true
    (String.sub text 0 (String.length Bundle.magic) = Bundle.magic);
  (match Bundle.header text with
   | None -> Alcotest.fail "header did not parse"
   | Some fields ->
     check (Alcotest.option string) "cause" (Some "double_fault")
       (List.assoc_opt "cause" fields);
     check (Alcotest.option string) "cycle" (Some "123456")
       (List.assoc_opt "cycle" fields);
     check (Alcotest.option string) "sections" (Some "3")
       (List.assoc_opt "sections" fields));
  check
    (Alcotest.list string)
    "section order"
    [ "crash-report"; "flight"; "metrics" ]
    (List.map fst (Bundle.sections text));
  (match Bundle.find_section text "flight" with
   | Some body ->
     check bool "tricky body intact" true
       (contains body "@10 note: --- begin sneaky ---")
   | None -> Alcotest.fail "flight section missing");
  (match Bundle.find_section text "metrics" with
   | Some body -> check string "newline normalized" "demo_total 1\n" body
   | None -> Alcotest.fail "metrics section missing");
  check bool "absent section" true (Bundle.find_section text "nope" = None);
  (* not-a-bundle inputs *)
  check bool "no header on garbage" true (Bundle.header "hello\nworld" = None);
  check int "no sections on garbage" 0
    (List.length (Bundle.sections "hello\nworld"))

let test_bundle_section_name_validation () =
  let bad name =
    try
      ignore (Bundle.section ~name "body");
      false
    with Invalid_argument _ -> true
  in
  check bool "empty name" true (bad "");
  check bool "spaces" true (bad "two words");
  check bool "uppercase" true (bad "Flight");
  check bool "slash" true (bad "a/b");
  check bool "valid name accepted" true
    (try
       ignore (Bundle.section ~name:"trace-tail_2" "body");
       true
     with Invalid_argument _ -> false)

(* -- End-to-end: profiler on a live machine, qP/qR over the wire -- *)

let rig ?(rate = 50.0) () =
  let m = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs:test_costs () in
  let mon = Monitor.install m in
  Monitor.boot_guest mon
    (Kernel.build (Kernel.default_config ~rate_mbps:rate))
    ~entry:Kernel.entry;
  Machine.run_seconds m 0.01;
  let session = Session.attach m in
  (m, mon, session)

let test_machine_profiler_live () =
  let m, mon, session = rig () in
  Machine.set_profiling m ~period:1024L;
  Machine.run_seconds m 0.05;
  let p = Machine.profiler m in
  check bool "samples collected" true (Profiler.total_samples p > 10);
  (* every sample lands in exactly one bucket *)
  check int "buckets sum to total" (Profiler.total_samples p)
    (List.fold_left (fun a (_, n) -> a + n) 0 (dumped p));
  (* the monitor serves the continuous profile as the qP payload *)
  (match Profiler.parse_dump (Monitor.profile_dump mon) with
   | Some (fields, _) ->
     check (Alcotest.option string) "armed period reported" (Some "1024")
       (List.assoc_opt "period" fields)
   | None -> Alcotest.fail "profile_dump did not parse");
  (* halt the guest so no samples land during the wire exchange, then
     the wire view must agree exactly with the monitor-side view *)
  ignore (Session.halt session);
  match Session.read_profile_dump session with
  | Some (_, fields, buckets) ->
    check (Alcotest.option string) "samples over the wire"
      (Some (string_of_int (Profiler.total_samples p)))
      (List.assoc_opt "samples" fields);
    check bool "buckets over the wire" true (buckets = dumped p)
  | None -> Alcotest.fail "no qP reply"

let test_query_flight_live () =
  (* On a healthy guest qR serves the live flight ring. *)
  let m, _, session = rig () in
  Machine.run_seconds m 0.02;
  match Session.query_flight session with
  | Some text ->
    check bool "flight header" true
      (String.length text > 6 && String.sub text 0 6 = "flight");
    check bool "not a bundle" true (Bundle.header text = None);
    (* the ring is fed by device taps: real traffic leaves real events *)
    check bool "events present" true (contains text "@")
  | None -> Alcotest.fail "no qR reply"

let test_crash_bundle_lifecycle () =
  let m, mon, session = rig () in
  Machine.set_profiling m ~period:1024L;
  Machine.run_seconds m 0.05;
  check bool "no bundle while healthy" true (Monitor.crash_bundle mon = None);
  Monitor.inject mon Monitor.Iht_clobber;
  Machine.run_seconds m 0.02;
  check bool "guest crashed" true (Monitor.crashed mon);
  let bundle =
    match Monitor.crash_bundle mon with
    | Some b -> b
    | None -> Alcotest.fail "crash produced no bundle"
  in
  (* the bundle is a well-formed container with every section present *)
  (match Bundle.header bundle with
   | Some fields ->
     check bool "cause recorded" true (List.mem_assoc "cause" fields)
   | None -> Alcotest.fail "bundle header did not parse");
  List.iter
    (fun name ->
      check bool (name ^ " section present") true
        (Bundle.find_section bundle name <> None))
    [ "crash-report"; "flight"; "profile"; "snapshot-digest"; "trace-tail";
      "metrics" ];
  (* the profile section is the armed continuous profile *)
  (match Bundle.find_section bundle "profile" with
   | Some body ->
     (match Profiler.parse_dump body with
      | Some (fields, _) ->
        check (Alcotest.option string) "continuous profile in bundle"
          (Some "1024")
          (List.assoc_opt "period" fields)
      | None -> Alcotest.fail "profile section did not parse")
   | None -> Alcotest.fail "profile section missing");
  (* qR on a crashed guest serves the bundle, bit-identical *)
  (match Session.query_flight session with
   | Some text -> check bool "qR serves the bundle" true (text = bundle)
   | None -> Alcotest.fail "no qR reply from crashed guest");
  (* sticky across a warm restart: the artifact survives the recovery *)
  check bool "warm restart" true (Monitor.restart_guest mon);
  check bool "bundle survives restart" true
    (Monitor.crash_bundle mon = Some bundle);
  (* a fresh boot starts a new story: the old bundle is dropped *)
  Monitor.boot_guest mon
    (Kernel.build (Kernel.default_config ~rate_mbps:50.0))
    ~entry:Kernel.entry;
  check bool "fresh boot clears bundle" true (Monitor.crash_bundle mon = None)

let test_restart_gauges_stay_live () =
  (* Regression: every gauge registered at install must read live state
     after warm restarts — no stale closures over pre-restart objects,
     no duplicate registrations. *)
  let m, mon, _session = rig () in
  let reg = Machine.registry m in
  let names_before = Registry.names reg in
  Monitor.inject mon Monitor.Iht_clobber;
  Machine.run_seconds m 0.02;
  check bool "restart 1" true (Monitor.restart_guest mon);
  Machine.run_seconds m 0.02;
  check bool "restart 2" true (Monitor.restart_guest mon);
  Machine.run_seconds m 0.02;
  check
    (Alcotest.list string)
    "no duplicate or lost registrations" names_before (Registry.names reg);
  let gauge_value name =
    match List.assoc_opt name (Registry.snapshot reg) with
    | Some (Registry.Gauge g) -> int_of_float g
    | Some _ -> Alcotest.failf "%s is not a gauge" name
    | None -> Alcotest.failf "%s not registered" name
  in
  check int "restart gauge live" 2 (gauge_value "monitor_restarts_total");
  check int "crash gauge live" 1 (gauge_value "monitor_crashes_total");
  check int "bundle gauge live" 1 (gauge_value "monitor_crash_bundles_total");
  (* the dump renders without raising and reflects the same values *)
  check bool "dump shows live restarts" true
    (contains (Registry.dump reg) "monitor_restarts_total 2");
  (* snapshots remain stable (gauges are pure reads) *)
  check bool "snapshot stable" true (Registry.snapshot reg = Registry.snapshot reg)

let () =
  Alcotest.run "vmm_profile"
    [
      ( "profiler",
        [
          Alcotest.test_case "disabled by default" `Quick
            test_profiler_disabled_by_default;
          Alcotest.test_case "cadence" `Quick test_profiler_cadence;
          Alcotest.test_case "buckets" `Quick test_profiler_buckets;
          Alcotest.test_case "dump round trip" `Quick
            test_profiler_dump_round_trip;
          Alcotest.test_case "sample allocates nothing" `Quick
            test_profiler_sample_allocates_nothing;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring wrap" `Quick test_flight_ring_wrap;
          Alcotest.test_case "ring eviction" `Quick test_flight_ring_eviction;
          Alcotest.test_case "dump golden" `Quick test_flight_dump_golden;
          Alcotest.test_case "find by kind" `Quick test_flight_find_by_kind;
          Alcotest.test_case "find min severity" `Quick
            test_flight_find_min_severity;
          Alcotest.test_case "note allocates nothing" `Quick
            test_flight_note_allocates_nothing;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_event_renders_as_pp_payload; prop_reflect_io_render ] );
      ( "bundle",
        [
          Alcotest.test_case "round trip" `Quick test_bundle_round_trip;
          Alcotest.test_case "section names" `Quick
            test_bundle_section_name_validation;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "live profiler + qP" `Quick
            test_machine_profiler_live;
          Alcotest.test_case "qR live flight" `Quick test_query_flight_live;
          Alcotest.test_case "crash-bundle lifecycle" `Quick
            test_crash_bundle_lifecycle;
          Alcotest.test_case "restart gauges live" `Quick
            test_restart_gauges_stay_live;
        ] );
    ]
