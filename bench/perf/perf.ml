(* Host-time benchmark of the simulator: how fast it runs the paper's
   workloads and how long a developer waits for each debug command.

     dune exec bench/perf/perf.exe -- [--workload W] [--seed N]
         [--seconds S] [--reps R] [--trace [0|1]] [--pin KEY=VALUE]

   W is one of stream, compute, debug, faults (default: all four, in that
   order, interleaved across repetitions).  Each workload run happens in a
   fresh child process, so its peak RSS and GC state are its own.  S is
   the host time one run spends inside timed windows (default 15).  With
   --trace, each run is followed by a traced run of the same workload and
   seed, and the per-layer metrics are reported instead of the end-to-end
   ones.  --pin replaces one pinned simulated value (see pins.ml).

   Every metric is printed as `name value unit`; perf-results.json holds
   the same data with quartiles across repetitions, and the last line of
   standard output is one JSON object.  The program exits 2, before
   printing any metric, when a simulated output differs from its pinned
   value, a debug reply is malformed, a campaign fails or replays
   differently, two runs disagree on a simulated counter, or the traced
   run's layers do not account for its wall time. *)

module Json = Vmm_obs.Json

let end_to_end =
  [
    ("sim_s_per_host_s", "s/s");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Debug commands as [Jobs] names them, and their metric names. *)
let commands =
  [
    ("halt", "halt"); ("g", "regs"); ("m", "mem"); ("Z0", "bp_insert");
    ("c_wait", "cont_wait"); ("z0", "bp_remove"); ("s", "step"); ("rs", "rstep");
  ]

let per_layer =
  [
    ("cpu.guest_mips", "instr/us"); ("cpu.run_batch_s", "s"); ("cpu.batches", "count");
    ("cpu.poll_s", "s");
    ("cpu.block_hit_ratio", "ratio"); ("cpu.block_waste", "ratio");
    ("cpu.icache_miss_ratio", "ratio"); ("cpu.instructions", "count");
    ("engine.dispatch_s", "s"); ("engine.events", "count");
    ("engine.idle_skip_s", "s"); ("engine.idle_skips", "count");
    ("monitor.world_switches", "count"); ("monitor.shadow_fills", "count");
    ("monitor.io_emulations", "count"); ("monitor.pic_emulations", "count");
    ("monitor.pit_emulations", "count"); ("monitor.reflected_irqs", "count");
  ]
  @ List.map (fun c -> ("sim.busy." ^ c, "cycles")) Jobs.busy_categories
  @ [
      ("setup.self_s", "s"); ("session.self_s", "s");
      ("snapshot.capture_ms", "ms"); ("snapshot.restore_ms", "ms");
      ("snapshot.digest_ms", "ms");
    ]
  @ List.map (fun (_, n) -> ("session." ^ n ^ "_ms_p50", "ms")) commands
  @ [
      ("session.retransmissions", "count"); ("session.packets", "count");
      ("session.sim_latency_ms_p50", "ms"); ("profiler.samples", "count");
      ("recorder.events", "count"); ("recorder.record_s", "s");
      ("recorder.replay_s", "s"); ("faults.reconnects", "count");
      ("faults.restarts", "count"); ("faults.probe_answer_ratio", "ratio");
      ("verifier.verify_ms", "ms"); ("gc.minor_mwords", "Mwords");
      ("gc.major_collections", "count"); ("gc.top_heap_mb", "MB");
      ("trace.overhead", "ratio"); ("trace.unattributed_s", "s");
    ]

(* ---------------------------------------------------------------- *)
(* Statistics                                                        *)
(* ---------------------------------------------------------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest rank. *)
let percentile p l =
  match sorted l with
  | [||] -> 0.0
  | a ->
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l = percentile 0.5 l

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them. *)
let quartiles l =
  let a = sorted l in
  let n = Array.length a in
  if n < 2 then
    let v = if n = 1 then a.(0) else 0.0 in
    (v, v, v)
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------------------------------------------------------------- *)
(* Child: one run of one workload                                    *)
(* ---------------------------------------------------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.0

(* Rates and latencies come from the windows; per-layer counts and times
   are per unit of work (a job; on [faults], a campaign). *)
let metrics_of (acc : Jobs.acc) =
  let nj = float_of_int (List.length acc.Jobs.fingerprints) in
  let rate f = median (List.map f acc.Jobs.windows) in
  let c k = Option.value ~default:0.0 (Hashtbl.find_opt acc.Jobs.counters k) in
  let per_job k = c k /. nj in
  let self_per_job names = List.fold_left (fun a n -> a +. Spans.self_s n) 0.0 names /. nj in
  let mean_ms name = 1000.0 *. ratio (Spans.total_s name) (float_of_int (Spans.calls name)) in
  let cmd_p50 name =
    median (List.filter_map (fun (n, ms, _) -> if n = name then Some ms else None) acc.Jobs.commands)
  in
  let gc = Gc.quick_stat () in
  let session_layers =
    Hashtbl.fold
      (fun n _ a -> if String.length n > 8 && String.sub n 0 8 = "session." then n :: a else a)
      Spans.layers []
  in
  [
    ("sim_s_per_host_s", rate (fun (sim, _, host) -> sim /. host));
    ("cpu.guest_mips", rate (fun (_, ins, host) -> ins /. host /. 1e6));
    ("op_ms_p50", percentile 0.50 acc.Jobs.ops_ms);
    ("op_ms_p90", percentile 0.90 acc.Jobs.ops_ms);
    ("setup_s", median acc.Jobs.setups);
    ("peak_rss_mb", peak_rss_mb ());
    ("cpu.run_batch_s", self_per_job [ "cpu.run_batch" ]);
    ("cpu.batches", float_of_int (Spans.calls "cpu.run_batch") /. nj);
    ("cpu.poll_s", self_per_job [ "cpu.poll_interrupts" ]);
    ( "cpu.block_hit_ratio",
      ratio (c "cpu.block_hits") (c "cpu.block_hits" +. c "cpu.block_fallbacks") );
    ("cpu.block_waste", ratio (c "cpu.block_invalidations") (c "cpu.blocks_compiled"));
    ( "cpu.icache_miss_ratio",
      ratio (c "cpu.icache_misses") (c "cpu.icache_hits" +. c "cpu.icache_misses") );
    ("engine.dispatch_s", self_per_job [ "engine.dispatch_due" ]);
    ("engine.events", float_of_int !Jobs.events /. nj);
    ("engine.idle_skip_s", self_per_job [ "engine.idle_skip" ]);
    ("engine.idle_skips", float_of_int (Spans.calls "engine.idle_skip") /. nj);
    ("setup.self_s", self_per_job [ "setup"; "campaign.boot" ]);
    ("session.self_s", self_per_job session_layers);
    ("snapshot.capture_ms", mean_ms "snapshot.capture");
    ("snapshot.restore_ms", mean_ms "snapshot.restore");
    ("snapshot.digest_ms", mean_ms "snapshot.digest");
    ( "session.sim_latency_ms_p50",
      median
        (List.filter_map
           (fun (n, _, sim) -> if n = "c" || n = "c_wait" then None else Some sim)
           acc.Jobs.commands) );
    ("recorder.record_s", Spans.total_s "recorder.record" /. nj);
    ("recorder.replay_s", Spans.total_s "recorder.replay" /. nj);
    ( "faults.probe_answer_ratio",
      ratio (c "faults.probes_answered") (c "faults.probes_sent") );
    ("verifier.verify_ms", mean_ms "verifier.verify");
    ("gc.minor_mwords", gc.Gc.minor_words /. 1e6 /. nj);
    ("gc.major_collections", float_of_int gc.Gc.major_collections /. nj);
    ( "gc.top_heap_mb",
      float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
  ]
  @ List.map (fun (k, n) -> ("session." ^ n ^ "_ms_p50", cmd_p50 k)) commands
  @ List.map
      (fun k -> (k, per_job k))
      ([
         "cpu.instructions"; "monitor.world_switches"; "monitor.shadow_fills";
         "monitor.io_emulations"; "monitor.pic_emulations"; "monitor.pit_emulations";
         "monitor.reflected_irqs"; "session.retransmissions"; "session.packets";
         "profiler.samples"; "recorder.events"; "faults.reconnects"; "faults.restarts";
       ]
      @ List.map (fun cat -> "sim.busy." ^ cat) Jobs.busy_categories)

let write_file path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

let child ~workload ~seed ~seconds ~traced =
  Spans.enabled := traced;
  let acc, last = Jobs.run workload ~seed ~seconds in
  let wall, attributed =
    if traced then begin
      Jobs.probe_layers last;
      let roots = [ "job"; "probes" ] in
      let wall = List.fold_left (fun a r -> a +. Spans.total_s r) 0.0 roots in
      let attributed = Spans.attributed_s ~roots in
      if Float.abs (wall -. attributed) > 0.10 *. wall then
        Jobs.error acc "trace: layer self times sum to %.3f s of %.3f s traced wall time"
          attributed wall;
      write_file (Printf.sprintf "perf-trace-%s.json" workload) (Spans.chrome_json ());
      (wall, attributed)
    end
    else (0.0, 0.0)
  in
  if acc.Jobs.errors <> [] then begin
    List.iter (Printf.eprintf "perf %s: %s\n" workload) (List.rev acc.Jobs.errors);
    exit 2
  end;
  let units = float_of_int (List.length acc.Jobs.fingerprints) in
  let metrics =
    ("trace.unattributed_s", (wall -. attributed) /. units) :: metrics_of acc
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
            ( "fingerprints",
              Json.List (List.rev_map (fun f -> Json.String f) acc.Jobs.fingerprints) );
            ("attempted", Json.Int acc.Jobs.attempted);
            ("failed", Json.Int acc.Jobs.failed);
            ("host_s", Json.Float acc.Jobs.host_s);
            ( "sim_s",
              Json.Float (List.fold_left (fun a (sim, _, _) -> a +. sim) 0.0 acc.Jobs.windows) );
            ("wall_s", Json.Float wall);
            ("attributed_s", Json.Float attributed);
          ]))

(* ---------------------------------------------------------------- *)
(* Parent: spawn runs, cross-check them, report                      *)
(* ---------------------------------------------------------------- *)

type options = {
  workloads : string list;
  seed : int64;
  seconds : float;
  reps : int;
  trace : bool;
  pins : string list;
  child : bool;
  traced : bool;
}

let usage () =
  prerr_endline
    "usage: perf.exe [--workload stream|compute|debug|faults] [--seed N] \
     [--seconds S] [--reps R] [--trace [0|1]] [--pin KEY=VALUE]";
  exit 2

let parse argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest when List.mem w Jobs.names -> go { o with workloads = [ w ] } rest
    | "--seed" :: n :: rest when Int64.of_string_opt n <> None ->
      go { o with seed = Int64.of_string n } rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun f -> f >= 0.0) (float_of_string_opt s) ->
      go { o with seconds = float_of_string s } rest
    | "--reps" :: r :: rest when Option.fold ~none:false ~some:(fun n -> n >= 1) (int_of_string_opt r) ->
      go { o with reps = int_of_string r } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--pin" :: spec :: rest -> go { o with pins = o.pins @ [ spec ] } rest
    | "--child" :: rest -> go { o with child = true } rest
    | "--traced" :: rest -> go { o with traced = true } rest
    | _ -> usage ()
  in
  go
    { workloads = Jobs.names; seed = 1L; seconds = 15.0; reps = 1; trace = false;
      pins = []; child = false; traced = false }
    (List.tl (Array.to_list argv))

let member_exn k j = Option.get (Json.member k j)
let float_field k j = Option.get (Json.to_float_opt (member_exn k j))

(* Run one child and return its result, or exit with its failing code. *)
let spawn o ~workload ~traced =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; "--workload"; workload; "--seed"; Int64.to_string o.seed;
      "--seconds"; string_of_float o.seconds ]
    @ (if traced then [ "--traced" ] else [])
    @ List.concat_map (fun p -> [ "--pin"; p ]) o.pins
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 ->
    (match Json.of_string out with
     | Ok j -> j
     | Error e ->
       Printf.eprintf "perf %s: unreadable child result: %s\n" workload e;
       exit 1)
  | Unix.WEXITED code -> exit code
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> exit 1

let fingerprints j =
  List.filter_map Json.to_string_opt (Option.get (Json.to_list_opt (member_exn "fingerprints" j)))

(* Every run of one workload and seed must have simulated the same jobs:
   compare each run's fingerprints with the first run's, job by job. *)
let check_fingerprints workload runs =
  match List.map fingerprints runs with
  | [] -> ()
  | first :: others ->
    List.iter
      (fun fps ->
        List.iteri
          (fun i fp ->
            match List.nth_opt first i with
            | Some fp0 when fp0 <> fp ->
              Printf.eprintf "perf %s: job %d simulated differently in two runs:\n  %s\n  %s\n"
                workload i fp0 fp;
              exit 2
            | Some _ | None -> ())
          fps)
      others

let sim_rate j = float_field "sim_s" j /. float_field "host_s" j
let metric j k = float_field k (member_exn "metrics" j)

(* Per-layer metrics that tracing would distort, taken from the untraced
   run. *)
let untraced_layers =
  [ "cpu.guest_mips"; "gc.minor_mwords"; "gc.major_collections"; "gc.top_heap_mb" ]

let layer_values untraced traced =
  List.map
    (fun (k, _) ->
      match k with
      | "trace.overhead" -> (k, (sim_rate untraced /. sim_rate traced) -. 1.0)
      | _ when List.mem k untraced_layers -> (k, metric untraced k)
      | _ -> (k, metric traced k))
    per_layer

(* Each metric of a catalogue across repetitions: its median, quartiles
   and values. *)
let rows catalogue reps =
  List.map
    (fun (k, unit) ->
      let vs = List.map (List.assoc k) reps in
      let q1, med, q3 = quartiles vs in
      (k, unit, med, q1, q3, vs))
    catalogue

let row_json (k, unit, med, q1, q3, vs) =
  ( k,
    Json.Obj
      [
        ("unit", Json.String unit); ("median", Json.Float med); ("q1", Json.Float q1);
        ("q3", Json.Float q3); ("values", Json.List (List.map (fun v -> Json.Float v) vs));
      ] )

let refuse_knobs () =
  Array.iter
    (fun kv ->
      if String.length kv > 6 && String.sub kv 0 6 = "LWVMM_" then begin
        Printf.eprintf "perf: refusing to run with %s set; it changes what is measured\n"
          (List.hd (String.split_on_char '=' kv));
        exit 2
      end)
    (Unix.environment ())

let parent o =
  refuse_knobs ();
  let runs =
    List.concat_map
      (fun _ ->
        List.map
          (fun w ->
            let untraced = spawn o ~workload:w ~traced:false in
            (w, untraced, if o.trace then Some (spawn o ~workload:w ~traced:true) else None))
          o.workloads)
      (List.init o.reps Fun.id)
  in
  let reports =
    List.map
      (fun w ->
        let rs = List.filter (fun (w', _, _) -> w' = w) runs in
        check_fingerprints w (List.concat_map (fun (_, u, t) -> u :: Option.to_list t) rs);
        let e2e =
          rows end_to_end
            (List.map (fun (_, u, _) -> List.map (fun (k, _) -> (k, metric u k)) end_to_end) rs)
        in
        let layers =
          List.filter_map (fun (_, u, t) -> Option.map (fun t -> (layer_values u t, t)) t) rs
        in
        (w, e2e, rows per_layer (List.map fst layers), List.map snd layers))
      o.workloads
  in
  let prefix w = if List.length o.workloads > 1 then w ^ "." else "" in
  let shown (w, e2e, layers, _) = (w, if o.trace then layers else e2e) in
  List.iter
    (fun (w, rs) ->
      List.iter
        (fun (k, unit, med, q1, q3, _) ->
          if o.reps = 1 then Printf.printf "%s%s %.6g %s\n" (prefix w) k med unit
          else Printf.printf "%s%s %.6g %s q1=%.6g q3=%.6g\n" (prefix w) k med unit q1 q3)
        rs)
    (List.map shown reports);
  write_file "perf-results.json"
    (Json.Obj
       [
         ("seed", Json.String (Int64.to_string o.seed));
         ("seconds", Json.Float o.seconds);
         ("reps", Json.Int o.reps);
         ( "workloads",
           Json.Obj
             (List.map
                (fun (w, e2e, layers, traced) ->
                  ( w,
                    Json.Obj
                      (("end_to_end", Json.Obj (List.map row_json e2e))
                      ::
                      (if o.trace then
                         [
                           ("per_layer", Json.Obj (List.map row_json layers));
                           ( "layer_sum",
                             Json.List
                               (List.map
                                  (fun t ->
                                    Json.Obj
                                      [
                                        ("wall_s", member_exn "wall_s" t);
                                        ("attributed_s", member_exn "attributed_s" t);
                                      ])
                                  traced) );
                         ]
                       else [])) ))
                reports) );
       ]);
  let total field =
    List.fold_left
      (fun a (_, u, t) ->
        List.fold_left
          (fun a j -> a + Option.get (Json.to_int_opt (member_exn field j)))
          a (u :: Option.to_list t))
      0 runs
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool true);
            ("attempted", Json.Int (total "attempted"));
            ("failed", Json.Int (total "failed"));
            ( "metrics",
              Json.Obj
                (List.concat_map
                   (fun (w, rs) ->
                     List.map
                       (fun (k, unit, med, _, _, _) ->
                         ( prefix w ^ k,
                           Json.Obj [ ("value", Json.Float med); ("unit", Json.String unit) ] ))
                       rs)
                   (List.map shown reports)) );
          ]))

let () =
  let o = parse Sys.argv in
  List.iter
    (fun p ->
      match Pins.override p with
      | Ok () -> ()
      | Error e ->
        prerr_endline ("perf: --pin: " ^ e);
        exit 2)
    o.pins;
  if o.child then
    child ~workload:(List.hd o.workloads) ~seed:o.seed ~seconds:o.seconds ~traced:o.traced
  else parent o
