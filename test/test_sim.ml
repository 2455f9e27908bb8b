(* Tests for the discrete-event substrate: event queue ordering and
   cancellation, engine clock semantics, PRNG determinism and statistics. *)

module Event_queue = Vmm_sim.Event_queue
module Engine = Vmm_sim.Engine
module Rng = Vmm_sim.Rng
module Stats = Vmm_sim.Stats

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* -- Event queue -- *)

let test_queue_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:30L "c");
  ignore (Event_queue.add q ~time:10L "a");
  ignore (Event_queue.add q ~time:20L "b");
  check (Alcotest.option (Alcotest.pair Alcotest.int64 Alcotest.string))
    "first" (Some (10L, "a")) (Event_queue.pop q);
  check (Alcotest.option (Alcotest.pair Alcotest.int64 Alcotest.string))
    "second" (Some (20L, "b")) (Event_queue.pop q);
  check (Alcotest.option (Alcotest.pair Alcotest.int64 Alcotest.string))
    "third" (Some (30L, "c")) (Event_queue.pop q);
  check bool "empty" true (Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:5L "first");
  ignore (Event_queue.add q ~time:5L "second");
  ignore (Event_queue.add q ~time:5L "third");
  let order =
    List.init 3 (fun _ ->
        match Event_queue.pop q with Some (_, v) -> v | None -> "?")
  in
  check (Alcotest.list Alcotest.string) "insertion order"
    [ "first"; "second"; "third" ] order

let test_queue_cancel () =
  let q = Event_queue.create () in
  let h1 = Event_queue.add q ~time:1L "a" in
  let _h2 = Event_queue.add q ~time:2L "b" in
  check bool "cancel live" true (Event_queue.cancel q h1);
  check bool "cancel dead" false (Event_queue.cancel q h1);
  check int "length after cancel" 1 (Event_queue.length q);
  check (Alcotest.option (Alcotest.pair Alcotest.int64 Alcotest.string))
    "skips cancelled" (Some (2L, "b")) (Event_queue.pop q)

let test_queue_peek () =
  let q = Event_queue.create () in
  check (Alcotest.option Alcotest.int64) "empty peek" None
    (Event_queue.peek_time q);
  let h = Event_queue.add q ~time:7L () in
  check (Alcotest.option Alcotest.int64) "peek" (Some 7L)
    (Event_queue.peek_time q);
  ignore (Event_queue.cancel q h);
  check (Alcotest.option Alcotest.int64) "peek after cancel" None
    (Event_queue.peek_time q)

let test_queue_clear () =
  let q = Event_queue.create () in
  for i = 1 to 100 do
    ignore (Event_queue.add q ~time:(Int64.of_int i) i)
  done;
  Event_queue.clear q;
  check bool "cleared" true (Event_queue.is_empty q);
  check (Alcotest.option Alcotest.int64) "no peek" None (Event_queue.peek_time q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"pop order is nondecreasing in time" ~count:200
    QCheck.(list (int_bound 10000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.add q ~time:(Int64.of_int t) t)) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, _) -> if Int64.compare t last < 0 then false else drain t
      in
      drain Int64.min_int)

let prop_queue_conserves =
  QCheck.Test.make ~name:"every added event pops exactly once" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.add q ~time:(Int64.of_int t) ())) times;
      let rec drain n = match Event_queue.pop q with None -> n | Some _ -> drain (n + 1) in
      drain 0 = List.length times)

(* Model-based test: the heap must agree with a naive list reference under
   arbitrary interleavings of add/cancel/pop/clear — including the in-place
   compaction that [cancel] triggers once most cells are dead.  Payloads are
   insertion ids, so FIFO tie-breaking is "smallest id wins" in the model. *)
let prop_queue_model =
  QCheck.Test.make ~name:"heap agrees with reference model" ~count:300
    QCheck.(list (pair (int_bound 5) (int_bound 1000)))
    (fun ops ->
      let q = Event_queue.create () in
      let handles = ref [] in (* (handle, id), newest first; never pruned *)
      let model = ref [] in (* live (time, id) *)
      let next_id = ref 0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let drop id = model := List.filter (fun (_, i) -> i <> id) !model in
      let min_live () =
        List.fold_left
          (fun acc e ->
            match acc with
            | Some best when best < e -> acc
            | _ -> Some e)
          None !model
      in
      let pop_and_check () =
        match Event_queue.pop q with
        | None -> expect (!model = [])
        | Some (t, id) ->
          expect (min_live () = Some (Int64.to_int t, id));
          drop id
      in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 | 1 | 2 ->
            let id = !next_id in
            incr next_id;
            let h = Event_queue.add q ~time:(Int64.of_int x) id in
            handles := (h, id) :: !handles;
            model := (x, id) :: !model
          | 3 -> (
            (* cancel an arbitrary handle, possibly already dead — the
               return value must report whether it was still live *)
            match !handles with
            | [] -> ()
            | hs ->
              let h, id = List.nth hs (x mod List.length hs) in
              let was_live = List.exists (fun (_, i) -> i = id) !model in
              expect (Event_queue.cancel q h = was_live);
              drop id)
          | 4 -> pop_and_check ()
          | _ ->
            Event_queue.clear q;
            model := [])
        ops;
      expect (Event_queue.length q = List.length !model);
      while not (Event_queue.is_empty q) do
        pop_and_check ()
      done;
      expect (!model = []);
      !ok)

(* Deterministic compaction stress: cancelling 90 of 100 events crosses the
   mostly-dead threshold and rebuilds the heap in place; the survivors must
   still pop in order and dead handles must stay dead. *)
let test_queue_compaction () =
  let q = Event_queue.create () in
  let handles =
    Array.init 100 (fun i -> Event_queue.add q ~time:(Int64.of_int i) i)
  in
  for i = 0 to 89 do
    ignore (Event_queue.cancel q handles.(i))
  done;
  check int "live length" 10 (Event_queue.length q);
  for i = 90 to 99 do
    match Event_queue.pop q with
    | Some (t, v) ->
      check int "payload order" i v;
      check Alcotest.int64 "time order" (Int64.of_int i) t
    | None -> Alcotest.fail "queue drained early"
  done;
  check bool "empty after drain" true (Event_queue.is_empty q);
  check bool "dead handle stays dead" false (Event_queue.cancel q handles.(0))

(* -- Engine -- *)

let test_engine_run_until () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.at e ~time:10L (fun () -> log := 10 :: !log));
  ignore (Engine.at e ~time:5L (fun () -> log := 5 :: !log));
  ignore (Engine.at e ~time:50L (fun () -> log := 50 :: !log));
  Engine.run_until e ~time:20L;
  check (Alcotest.list int) "events up to 20" [ 5; 10 ] (List.rev !log);
  check Alcotest.int64 "clock at horizon" 20L (Engine.now e);
  check int "one pending" 1 (Engine.pending e)

let test_engine_cascade () =
  (* An event scheduling another event at the same time must still run. *)
  let e = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.at e ~time:10L (fun () ->
         incr hits;
         ignore (Engine.at e ~time:10L (fun () -> incr hits))));
  Engine.run_until e ~time:10L;
  check int "both fired" 2 !hits

let test_engine_past_clamps () =
  let e = Engine.create () in
  Engine.advance e 100L;
  let fired = ref false in
  ignore (Engine.at e ~time:50L (fun () -> fired := true));
  ignore (Engine.dispatch_due e);
  check bool "past event fires immediately" true !fired

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.after e ~delay:10L (fun () -> fired := true) in
  check bool "cancelled" true (Engine.cancel e h);
  Engine.run_until e ~time:100L;
  check bool "did not fire" false !fired

let test_engine_run_until_idle () =
  let e = Engine.create () in
  for i = 1 to 5 do
    ignore (Engine.after e ~delay:(Int64.of_int i) (fun () -> ()))
  done;
  check int "ran all" 5 (Engine.run_until_idle e);
  check int "queue empty" 0 (Engine.pending e)

(* -- RNG -- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits32 a) (Rng.bits32 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits32 a) (Rng.bits32 b) then incr same
  done;
  check bool "streams diverge" true (!same < 8)

let test_rng_int_range () =
  let r = Rng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let r = Rng.create ~seed:9L in
  let a = Rng.split r in
  let first = List.init 16 (fun _ -> Rng.bits32 a) in
  (* Drawing from the parent must not change the child's past. *)
  check bool "child already diverged" true
    (List.exists (fun v -> not (Int64.equal v 0L)) first)

let prop_rng_float_range =
  QCheck.Test.make ~name:"float draws stay in [0, bound)" ~count:200
    QCheck.(pair (int_bound 1000) pos_float)
    (fun (seed, bound) ->
      QCheck.assume (bound > 0.0 && bound < 1e10);
      let r = Rng.create ~seed:(Int64.of_int seed) in
      let v = Rng.float r bound in
      v >= 0.0 && v < bound)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:1234L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  check bool "mean near 5" true (abs_float (mean -. 5.0) < 0.3)

(* -- Stats -- *)

(* The CPU load Fig 3.1 reports is the busy share of its measurement
   window, the one formula [Machine.utilization] computes. *)
let test_stats_load () =
  let m, _ =
    Vmm_harness.Workload.run Vmm_harness.Workload.Lightweight_vmm
      ~rate_mbps:50.0 ~duration_s:0.02
  in
  let open Vmm_harness.Workload in
  check bool "a busy window" true
    (Int64.compare m.busy_cycles 0L > 0
    && Int64.compare m.busy_cycles m.elapsed_cycles < 0);
  check (Alcotest.float 0.0) "busy over elapsed"
    (Int64.to_float m.busy_cycles /. Int64.to_float m.elapsed_cycles)
    m.cpu_load

let test_stats_histogram () =
  let h = Stats.histogram ~buckets:10 ~width:1.0 in
  List.iter (Stats.observe h) [ 0.5; 1.5; 1.7; 9.5; 100.0 ];
  check int "count" 5 (Stats.histogram_count h);
  let counts = Stats.bucket_counts h in
  check int "bucket 0" 1 counts.(0);
  check int "bucket 1" 2 counts.(1);
  check int "overflow" 1 counts.(10);
  check bool "median in bucket 1..2" true
    (let p = Stats.percentile h 50.0 in
     p >= 1.0 && p <= 2.0)

let test_stats_percentile_pins () =
  let empty = Stats.histogram ~buckets:4 ~width:10.0 in
  check (Alcotest.float 1e-9) "empty histogram" 0.0
    (Stats.percentile empty 50.0);
  let one = Stats.histogram ~buckets:4 ~width:10.0 in
  Stats.observe one 17.0;
  (* A single sample reports as its bucket's midpoint: 17 lands in
     [10, 20), midpoint 15. *)
  check (Alcotest.float 1e-9) "one sample -> bucket midpoint" 15.0
    (Stats.percentile one 50.0);
  check (Alcotest.float 1e-9) "every percentile agrees" 15.0
    (Stats.percentile one 99.0);
  let over = Stats.histogram ~buckets:4 ~width:10.0 in
  Stats.observe over 1000.0;
  (* Overflow reports the documented nominal midpoint (buckets + 0.5) *
     width — an underestimate, but a pinned one. *)
  check (Alcotest.float 1e-9) "overflow -> nominal midpoint" 45.0
    (Stats.percentile over 50.0)

let test_stats_reset_histogram () =
  let h = Stats.histogram ~buckets:4 ~width:10.0 in
  List.iter (Stats.observe h) [ 5.0; 15.0; 99.0 ];
  Stats.reset_histogram h;
  check int "count zeroed" 0 (Stats.histogram_count h);
  check int "buckets zeroed" 0 (Array.fold_left ( + ) 0 (Stats.bucket_counts h));
  check (Alcotest.float 1e-9) "percentile of empty" 0.0
    (Stats.percentile h 50.0)

let category =
  Alcotest.testable
    (fun ppf c -> Format.pp_print_string ppf (Stats.category_name c))
    ( = )

let test_stats_categories () =
  let l = Stats.load () in
  Stats.note_busy l 10L;
  Stats.with_category l Mon_cpu (fun () ->
      Stats.note_busy l 5L;
      Stats.with_category l Irq (fun () -> Stats.note_busy l 3L);
      Stats.note_busy l 2L);
  check category "restored" Stats.Guest (Stats.category l);
  Array.iteri
    (fun i c -> check int (Stats.category_name c) i (Stats.category_index c))
    Stats.categories;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int64))
    "per-category totals"
    [ ("guest", 10L); ("irq", 3L); ("mon_cpu", 7L) ]
    (Stats.busy_by_category l);
  check Alcotest.int64 "categories sum to busy" (Stats.busy_cycles l)
    (List.fold_left
       (fun acc (_, v) -> Int64.add acc v)
       0L (Stats.busy_by_category l));
  (* exception safety: category restored even when the body raises *)
  (try Stats.with_category l Stub (fun () -> failwith "boom")
   with Failure _ -> ());
  check category "restored after raise" Stats.Guest (Stats.category l)

(* A raise whose location the backtrace must still show after
   [with_category] re-raises it. *)
let boom_line = ref 0

let boom () =
  boom_line := __LINE__; raise (Failure "boom")

let test_stats_with_category_raise () =
  let l = Stats.load () in
  let busy cat =
    Option.value ~default:0L (List.assoc_opt cat (Stats.busy_by_category l))
  in
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Stats.with_category l Mon_cpu (fun () ->
      (match Stats.with_category l Stub (fun () -> Stats.note_busy l 2L; boom ()) with
       | () -> Alcotest.fail "expected Failure"
       | exception Failure _ ->
         let bt = Printexc.get_raw_backtrace () in
         let line =
           match Printexc.backtrace_slots bt with
           | Some slots when Array.length slots > 0 ->
             Option.map
               (fun loc -> loc.Printexc.line_number)
               (Printexc.Slot.location slots.(0))
           | Some _ | None -> None
         in
         check (Alcotest.option int) "backtrace starts at the raise"
           (Some !boom_line) line);
      check category "inner scope restored" Stats.Mon_cpu (Stats.category l);
      Stats.note_busy l 5L);
  Printexc.record_backtrace recording;
  check category "outer scope restored" Stats.Guest (Stats.category l);
  Stats.note_busy l 7L;
  check Alcotest.int64 "stub kept only its own cycles" 2L (busy "stub");
  check Alcotest.int64 "cell restored after raise" 5L (busy "mon_cpu");
  check Alcotest.int64 "guest cell restored" 7L (busy "guest");
  check Alcotest.int64 "categories sum to busy" (Stats.busy_cycles l)
    (List.fold_left (fun acc (_, v) -> Int64.add acc v) 0L
       (Stats.busy_by_category l))

let test_charge_path_allocates_nothing () =
  (* [Engine.advance] and [Stats.note_busy] run on every cycle charge;
     both keep native-int totals, so neither boxes.  Any per-call box
     costs at least two words, so under one word per call is none. *)
  let engine = Engine.create () and l = Stats.load () in
  let cycles = [| 3L; 40L; 1L; 250L |] in
  let calls = 10_000 in
  let words =
    Stats.with_category l Irq (fun () ->
        let before = Gc.minor_words () in
        for i = 1 to calls do
          let c = cycles.(i land 3) in
          Engine.advance engine c;
          Stats.note_busy l c
        done;
        Gc.minor_words () -. before)
  in
  check bool
    (Printf.sprintf "no allocation per call (%.0f words over %d)" words calls)
    true
    (words < float_of_int calls);
  check Alcotest.int64 "clock advanced" 735_000L (Engine.now engine);
  check Alcotest.int64 "busy counted" 735_000L (Stats.busy_cycles l);
  check Alcotest.int64 "all of it to irq" 735_000L
    (List.assoc "irq" (Stats.busy_by_category l))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vmm_sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_order;
          Alcotest.test_case "fifo on ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "cancellation" `Quick test_queue_cancel;
          Alcotest.test_case "peek" `Quick test_queue_peek;
          Alcotest.test_case "clear" `Quick test_queue_clear;
          Alcotest.test_case "compaction" `Quick test_queue_compaction;
        ]
        @ qsuite [ prop_queue_sorted; prop_queue_conserves; prop_queue_model ] );
      ( "engine",
        [
          Alcotest.test_case "run_until horizon" `Quick test_engine_run_until;
          Alcotest.test_case "same-time cascade" `Quick test_engine_cascade;
          Alcotest.test_case "past clamps to now" `Quick test_engine_past_clamps;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run_until_idle" `Quick test_engine_run_until_idle;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
        ]
        @ qsuite [ prop_rng_float_range ] );
      ( "stats",
        [
          Alcotest.test_case "load" `Quick test_stats_load;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "percentile pins" `Quick
            test_stats_percentile_pins;
          Alcotest.test_case "reset histogram" `Quick
            test_stats_reset_histogram;
          Alcotest.test_case "cycle categories" `Quick test_stats_categories;
          Alcotest.test_case "with_category raise" `Quick
            test_stats_with_category_raise;
          Alcotest.test_case "charge path allocates nothing" `Quick
            test_charge_path_allocates_nothing;
        ] );
    ]
