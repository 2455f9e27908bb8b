(* Tests for the observability layer: the JSON codec, the span tracer
   and its Chrome exporter, the metrics registry, and the end-to-end
   invariant the Fig 3.1 telemetry relies on — per-category cycles
   summing to the busy total. *)

module Engine = Vmm_sim.Engine
module Stats = Vmm_sim.Stats
module Json = Vmm_obs.Json
module Tracer = Vmm_obs.Tracer
module Registry = Vmm_obs.Registry
module Workload = Vmm_harness.Workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* -- JSON codec -- *)

let roundtrip j =
  match Json.of_string (Json.to_string j) with
  | Ok j' -> j'
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Float 2.5);
        ("s", Json.String "quote \" backslash \\ newline \n tab \t");
        ("l", Json.List [ Json.Int 1; Json.String "two"; Json.Null ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []) ]);
      ]
  in
  check bool "round trips" true (roundtrip doc = doc)

let test_json_escapes () =
  check string "control chars escaped" "\"\\u0001\\n\""
    (Json.to_string (Json.String "\001\n"));
  (match Json.of_string "\"a\\u0041b\"" with
   | Ok (Json.String s) -> check string "unicode escape decoded" "aAb" s
   | Ok _ | Error _ -> Alcotest.fail "expected a string");
  check string "non-finite floats become null" "null"
    (Json.to_string (Json.Float Float.nan))

let test_json_malformed () =
  let bad input =
    match Json.of_string input with Ok _ -> false | Error _ -> true
  in
  check bool "truncated object" true (bad "{\"a\": 1");
  check bool "trailing garbage" true (bad "{} x");
  check bool "bare word" true (bad "frue");
  check bool "unterminated string" true (bad "\"abc");
  check bool "empty input" true (bad "")

(* -- Tracer -- *)

let test_tracer_disabled_is_silent () =
  let engine = Engine.create () in
  let t = Tracer.create ~engine () in
  Tracer.begin_span t ~cat:"mon_cpu" "trap";
  Tracer.end_span t;
  Tracer.instant t ~cat:"irq" "tick";
  Tracer.add_complete t ~cat:"dma" ~name:"scsi_read" ~start:0L ~stop:10L ();
  check int "no events while disabled" 0 (Tracer.event_count t);
  check int "no open spans either" 0 (Tracer.depth t)

let test_tracer_nesting_exclusive () =
  let engine = Engine.create () in
  let t = Tracer.create ~engine () in
  Tracer.set_enabled t true;
  (* outer [0, 100] with an inner [30, 70]: outer's exclusive share is
     60, inner's is 40 — they sum to the outer wall time. *)
  Tracer.begin_span t ~cat:"mon_cpu" "outer";
  Engine.advance engine 30L;
  Tracer.begin_span t ~cat:"irq" "inner";
  Engine.advance engine 40L;
  Tracer.end_span t;
  Engine.advance engine 30L;
  Tracer.end_span t;
  check int "two complete events" 2 (Tracer.event_count t);
  check
    (Alcotest.list (Alcotest.pair string Alcotest.int64))
    "exclusive breakdown"
    [ ("irq", 40L); ("mon_cpu", 60L) ]
    (Tracer.breakdown t)

let test_tracer_unbalanced_end () =
  let engine = Engine.create () in
  let t = Tracer.create ~engine () in
  Tracer.set_enabled t true;
  Tracer.end_span t;
  Tracer.begin_span t ~cat:"guest" "s";
  Tracer.end_span t;
  Tracer.end_span t;
  check int "unbalanced ends counted" 2 (Tracer.unbalanced_ends t);
  check int "balanced span still recorded" 1 (Tracer.event_count t)

let test_tracer_with_span_exception () =
  let engine = Engine.create () in
  let t = Tracer.create ~engine () in
  Tracer.set_enabled t true;
  (try Tracer.with_span t ~cat:"stub" "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  check int "span closed on raise" 0 (Tracer.depth t);
  check int "and recorded" 1 (Tracer.event_count t)

let test_tracer_capacity () =
  let engine = Engine.create () in
  let t = Tracer.create ~capacity:2 ~engine () in
  Tracer.set_enabled t true;
  for _ = 1 to 5 do
    Tracer.instant t ~cat:"guest" "e"
  done;
  check int "capacity respected" 2 (Tracer.event_count t);
  check int "overflow counted" 3 (Tracer.dropped t)

let test_tracer_depth_tracking () =
  let engine = Engine.create () in
  let t = Tracer.create ~engine () in
  Tracer.set_enabled t true;
  check int "flat" 0 (Tracer.depth t);
  Tracer.begin_span t ~cat:"mon_cpu" "a";
  Tracer.begin_span t ~cat:"irq" "b";
  Tracer.begin_span t ~cat:"stub" "c";
  check int "three deep" 3 (Tracer.depth t);
  Tracer.end_span t;
  check int "two deep" 2 (Tracer.depth t);
  Tracer.end_span t;
  Tracer.end_span t;
  check int "flat again" 0 (Tracer.depth t);
  check int "no unbalanced ends" 0 (Tracer.unbalanced_ends t);
  check int "all three recorded" 3 (Tracer.event_count t)

let test_tracer_flush_open_spans () =
  (* A crash can leave spans open; the bundle composer flushes them so
     the trace still renders complete events. *)
  let engine = Engine.create () in
  let t = Tracer.create ~engine () in
  Tracer.set_enabled t true;
  Tracer.begin_span t ~cat:"mon_cpu" "outer";
  Engine.advance engine 10L;
  Tracer.begin_span t ~cat:"irq" "inner";
  Engine.advance engine 5L;
  check int "two flushed" 2 (Tracer.flush_open_spans t);
  check int "nothing open" 0 (Tracer.depth t);
  check int "both recorded as complete events" 2 (Tracer.event_count t);
  (* innermost closed first: both categories carry their elapsed time *)
  check
    (Alcotest.list (Alcotest.pair string Alcotest.int64))
    "flushed breakdown"
    [ ("irq", 5L); ("mon_cpu", 10L) ]
    (Tracer.breakdown t);
  (* flushing did not manufacture unbalanced ends *)
  check int "no unbalanced ends" 0 (Tracer.unbalanced_ends t);
  (* idempotent when nothing is open *)
  check int "nothing to flush" 0 (Tracer.flush_open_spans t);
  (* and it drains even a disabled tracer: a crash dump must not lose
     spans because tracing was toggled off on the way down *)
  Tracer.begin_span t ~cat:"stub" "s";
  Tracer.set_enabled t false;
  check int "flushes while disabled" 1 (Tracer.flush_open_spans t);
  check int "depth zero after disabled flush" 0 (Tracer.depth t)

let test_tracer_dropped_accounting () =
  let engine = Engine.create () in
  let t = Tracer.create ~capacity:3 ~engine () in
  Tracer.set_enabled t true;
  for _ = 1 to 3 do
    Tracer.instant t ~cat:"guest" "kept"
  done;
  check int "nothing dropped at capacity" 0 (Tracer.dropped t);
  for _ = 1 to 4 do
    Tracer.with_span t ~cat:"mon_cpu" "spilled" (fun () ->
        Engine.advance engine 1L)
  done;
  check int "events capped" 3 (Tracer.event_count t);
  check int "every overflow counted" 4 (Tracer.dropped t);
  Tracer.clear t;
  check int "clear resets events" 0 (Tracer.event_count t);
  check int "clear resets dropped" 0 (Tracer.dropped t)

let test_tracer_chrome_golden () =
  let engine = Engine.create () in
  let t = Tracer.create ~engine () in
  Tracer.set_enabled t true;
  Engine.advance engine 100L;
  Tracer.begin_span t ~cat:"mon_cpu" "trap";
  Engine.advance engine 200L;
  Tracer.end_span t;
  (* cpu_hz = 1e6 makes one cycle one microsecond, so the golden text is
     round numbers. *)
  let text = Json.to_string (Tracer.to_chrome_json ~cpu_hz:1e6 t) in
  check string "chrome trace event document"
    "{\"traceEvents\":[{\"name\":\"trap\",\"cat\":\"mon_cpu\",\"pid\":0,\
     \"tid\":0,\"ts\":100.0,\"ph\":\"X\",\"dur\":200.0}],\
     \"displayTimeUnit\":\"ns\"}"
    text;
  (* and the exporter's output is parseable by our own reader *)
  match Json.of_string text with
  | Ok doc ->
    (match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
     | Some [ ev ] ->
       check (Alcotest.option string) "phase"
         (Some "X")
         (Option.bind (Json.member "ph" ev) Json.to_string_opt);
       check
         (Alcotest.option (Alcotest.float 1e-9))
         "duration" (Some 200.0)
         (Option.bind (Json.member "dur" ev) Json.to_float_opt)
     | Some _ | None -> Alcotest.fail "expected exactly one trace event")
  | Error msg -> Alcotest.failf "exporter output does not parse: %s" msg

(* -- Registry -- *)

let test_registry_idempotent () =
  let r = Registry.create () in
  let c1 = Registry.counter r "demo_events_total" in
  let c2 = Registry.counter r "demo_events_total" in
  Stats.incr c1;
  check Alcotest.int64 "same counter" 1L (Stats.counter_value c2);
  let h1 = Registry.histogram r "demo_latency_cycles" ~buckets:4 ~width:10.0 in
  let h2 = Registry.histogram r "demo_latency_cycles" ~buckets:8 ~width:5.0 in
  Stats.observe h1 3.0;
  check int "same histogram" 1 (Stats.histogram_count h2)

let test_registry_kind_mismatch () =
  let r = Registry.create () in
  ignore (Registry.counter r "demo_events_total");
  check bool "gauge over counter raises" true
    (try
       Registry.gauge r "demo_events_total" (fun () -> 0.0);
       false
     with Invalid_argument _ -> true);
  check bool "bad name raises" true
    (try
       ignore (Registry.counter r "Bad-Name");
       false
     with Invalid_argument _ -> true)

let test_registry_snapshot_stable () =
  let r = Registry.create () in
  let c = Registry.counter r "demo_events_total" in
  Registry.gauge r "demo_queue_depth" (fun () -> 3.0);
  let h = Registry.histogram r "demo_latency_cycles" ~buckets:4 ~width:10.0 in
  Stats.incr c;
  Stats.incr c;
  Stats.observe h 17.0;
  check bool "snapshots are stable" true
    (Registry.snapshot r = Registry.snapshot r);
  check
    (Alcotest.list string)
    "names sorted"
    [ "demo_events_total"; "demo_latency_cycles"; "demo_queue_depth" ]
    (Registry.names r)

let test_registry_dump_golden () =
  let r = Registry.create () in
  let c = Registry.counter r "demo_events_total" in
  Registry.gauge r "demo_queue_depth" (fun () -> 3.0);
  let h = Registry.histogram r "demo_latency_cycles" ~buckets:4 ~width:10.0 in
  Stats.incr c;
  Stats.incr c;
  Stats.observe h 17.0;
  check string "prometheus text dump"
    "# HELP demo_events_total demo events total\n\
     # TYPE demo_events_total counter\n\
     demo_events_total 2\n\
     # HELP demo_latency_cycles demo latency cycles\n\
     # TYPE demo_latency_cycles histogram\n\
     demo_latency_cycles_bucket{le=\"10\"} 0\n\
     demo_latency_cycles_bucket{le=\"20\"} 1\n\
     demo_latency_cycles_bucket{le=\"30\"} 1\n\
     demo_latency_cycles_bucket{le=\"40\"} 1\n\
     demo_latency_cycles_bucket{le=\"+Inf\"} 1\n\
     demo_latency_cycles_sum 17\n\
     demo_latency_cycles_count 1\n\
     # HELP demo_queue_depth demo queue depth\n\
     # TYPE demo_queue_depth gauge\n\
     demo_queue_depth 3\n"
    (Registry.dump r)

let test_registry_help_override () =
  let r = Registry.create () in
  ignore (Registry.counter ~help:"events seen by the demo" r "demo_events_total");
  Registry.gauge r "demo_queue_depth" (fun () -> 0.0);
  let dump = Registry.dump r in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length dump && (String.sub dump i n = sub || go (i + 1))
    in
    go 0
  in
  check bool "explicit help text" true
    (has "# HELP demo_events_total events seen by the demo\n");
  check bool "derived help text" true
    (has "# HELP demo_queue_depth demo queue depth\n")

let test_registry_merge () =
  (* Per-instance registries fold into a fleet view: counters and
     histograms sum, gauges compose live, inputs stay untouched. *)
  let mk live =
    let r = Registry.create () in
    let c = Registry.counter r "demo_events_total" in
    Stats.incr c;
    Stats.incr c;
    Registry.gauge r "demo_queue_depth" (fun () -> !live);
    let h = Registry.histogram r "demo_latency_cycles" ~buckets:4 ~width:10.0 in
    Stats.observe h 17.0;
    r
  in
  let l1 = ref 3.0 and l2 = ref 4.0 in
  let r1 = mk l1 and r2 = mk l2 in
  let merged = Registry.merge [ r1; r2 ] in
  (match List.assoc "demo_events_total" (Registry.snapshot merged) with
   | Registry.Counter n -> check Alcotest.int64 "counters summed" 4L n
   | _ -> Alcotest.fail "expected a counter");
  (match List.assoc "demo_queue_depth" (Registry.snapshot merged) with
   | Registry.Gauge g -> check (Alcotest.float 1e-9) "gauges summed" 7.0 g
   | _ -> Alcotest.fail "expected a gauge");
  (match List.assoc "demo_latency_cycles" (Registry.snapshot merged) with
   | Registry.Histogram { count; _ } ->
     check int "histograms summed" 2 count
   | _ -> Alcotest.fail "expected a histogram");
  (* gauges are live: moving a source moves the merged view *)
  l2 := 10.0;
  (match List.assoc "demo_queue_depth" (Registry.snapshot merged) with
   | Registry.Gauge g -> check (Alcotest.float 1e-9) "gauge stays live" 13.0 g
   | _ -> Alcotest.fail "expected a gauge");
  (* pure fold: the inputs were not mutated *)
  (match List.assoc "demo_events_total" (Registry.snapshot r1) with
   | Registry.Counter n -> check Alcotest.int64 "input untouched" 2L n
   | _ -> Alcotest.fail "expected a counter");
  (* incompatible kinds across instances are refused *)
  let r3 = Registry.create () in
  Registry.gauge r3 "demo_events_total" (fun () -> 0.0);
  check bool "kind clash raises" true
    (try
       ignore (Registry.merge [ r1; r3 ]);
       false
     with Invalid_argument _ -> true);
  (* and so are histograms with different shapes *)
  let r4 = Registry.create () in
  ignore (Registry.histogram r4 "demo_latency_cycles" ~buckets:8 ~width:5.0);
  check bool "shape clash raises" true
    (try
       ignore (Registry.merge [ r1; r4 ]);
       false
     with Invalid_argument _ -> true)

let test_registry_reset () =
  let r = Registry.create () in
  let c = Registry.counter r "demo_events_total" in
  let h = Registry.histogram r "demo_latency_cycles" ~buckets:4 ~width:10.0 in
  let live = ref 7.0 in
  Registry.gauge r "demo_queue_depth" (fun () -> !live);
  Stats.incr c;
  Stats.observe h 17.0;
  Registry.reset r;
  check Alcotest.int64 "counter zeroed" 0L (Stats.counter_value c);
  check int "histogram zeroed" 0 (Stats.histogram_count h);
  (match List.assoc "demo_queue_depth" (Registry.snapshot r) with
   | Registry.Gauge g -> check (Alcotest.float 1e-9) "gauge untouched" 7.0 g
   | _ -> Alcotest.fail "expected a gauge");
  (* counters keep working after a reset *)
  Stats.incr c;
  check Alcotest.int64 "counts again" 1L (Stats.counter_value c)

(* -- End-to-end: the telemetry invariant -- *)

let test_breakdown_sums_to_busy () =
  (* Run the actual Fig 3.1 workload under the monitor and assert the
     attribution invariant: per-category cycles sum exactly to the busy
     total, with monitor categories actually populated. *)
  let m, _ctx =
    Workload.run Workload.Lightweight_vmm ~rate_mbps:50.0 ~duration_s:0.05
  in
  let sum =
    List.fold_left
      (fun acc (_, v) -> Int64.add acc v)
      0L m.Workload.breakdown
  in
  check Alcotest.int64 "breakdown sums to busy cycles" m.Workload.busy_cycles
    sum;
  check bool "busy within elapsed" true
    (Int64.compare m.Workload.busy_cycles m.Workload.elapsed_cycles <= 0);
  let has cat = List.mem_assoc cat m.Workload.breakdown in
  check bool "guest cycles present" true (has "guest");
  check bool "monitor cycles present" true (has "mon_cpu");
  check bool "delivery cycles present" true (has "irq");
  (* The category set is closed: every name in the breakdown is some
     constructor's, and the eight names are the taxonomy table of
     docs/OBSERVABILITY.md less its [dma] trace track. *)
  let names =
    List.map Stats.category_name
      Stats.[ Guest; Mon_cpu; Mon_io; Mon_pic; Mon_pit; Mon_shadow; Irq; Stub ]
  in
  List.iter
    (fun (cat, _) ->
      check bool (cat ^ " is a category") true (List.mem cat names))
    m.Workload.breakdown;
  check Alcotest.(list string) "category names"
    [ "guest"; "mon_cpu"; "mon_io"; "mon_pic"; "mon_pit"; "mon_shadow"; "irq";
      "stub" ]
    names;
  (* First backquoted word of each table row under the section's
     heading, up to the next heading. *)
  let rec rows inside = function
    | [] -> []
    | line :: rest when String.starts_with ~prefix:"## " line ->
      if inside then []
      else rows (String.starts_with ~prefix:"## Cycle attribution" line) rest
    | line :: rest -> (
      match String.split_on_char '`' line with
      | "| " :: name :: _ when inside -> name :: rows inside rest
      | _ -> rows inside rest)
  in
  let table_rows =
    In_channel.with_open_text "../docs/OBSERVABILITY.md" In_channel.input_all
    |> String.split_on_char '\n' |> rows false
  in
  check Alcotest.(list string) "the documented taxonomy" (names @ [ "dma" ])
    table_rows

let test_machine_registry_wired () =
  let machine = Vmm_hw.Machine.create () in
  let monitor = Core.Monitor.install machine in
  ignore (monitor : Core.Monitor.t);
  let names = Registry.names (Vmm_hw.Machine.registry machine) in
  List.iter
    (fun expected ->
      check bool (expected ^ " registered") true (List.mem expected names))
    [
      "cpu_busy_cycles_total";
      "nic_frames_sent_total";
      "scsi_reads_completed_total";
      "pic_delivery_latency_cycles";
      "pit_ticks_total";
      "monitor_world_switches_total";
      "monitor_io_emulations_total";
      "shadow_fills_total";
      "stublink_retransmits_total";
      "vpic_delivery_latency_cycles";
      "mmu_tlb_hits_total";
      "mmu_tlb_misses_total";
      "mmu_tlb_flushes_total";
    ]

let () =
  Alcotest.run "vmm_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "malformed" `Quick test_json_malformed;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled is silent" `Quick
            test_tracer_disabled_is_silent;
          Alcotest.test_case "nesting exclusive" `Quick
            test_tracer_nesting_exclusive;
          Alcotest.test_case "unbalanced end" `Quick test_tracer_unbalanced_end;
          Alcotest.test_case "with_span on raise" `Quick
            test_tracer_with_span_exception;
          Alcotest.test_case "capacity" `Quick test_tracer_capacity;
          Alcotest.test_case "depth tracking" `Quick test_tracer_depth_tracking;
          Alcotest.test_case "flush open spans" `Quick
            test_tracer_flush_open_spans;
          Alcotest.test_case "dropped accounting" `Quick
            test_tracer_dropped_accounting;
          Alcotest.test_case "chrome golden" `Quick test_tracer_chrome_golden;
        ] );
      ( "registry",
        [
          Alcotest.test_case "idempotent" `Quick test_registry_idempotent;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "snapshot stable" `Quick
            test_registry_snapshot_stable;
          Alcotest.test_case "dump golden" `Quick test_registry_dump_golden;
          Alcotest.test_case "help override" `Quick test_registry_help_override;
          Alcotest.test_case "merge" `Quick test_registry_merge;
          Alcotest.test_case "reset semantics" `Quick test_registry_reset;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "breakdown sums to busy" `Quick
            test_breakdown_sums_to_busy;
          Alcotest.test_case "machine registry wired" `Quick
            test_machine_registry_wired;
        ] );
    ]
