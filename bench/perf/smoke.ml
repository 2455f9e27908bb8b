(* Smoke test for the benchmark, run by `dune runtest`:

     smoke.exe PERF_EXE BENCHMARK_JSON

   1. Every workload, scaled down to one job, with --trace: the run must
      succeed, its last line must be the result object, and every metric
      BENCHMARK.json names must be emitted with its unit.  The traced
      layers must account for the traced wall time within 10 %.
   2. A deliberately wrong pinned value must make the run exit 2 without
      printing a metric.
   3. A set LWVMM_* knob must make the run refuse with exit 2.

   The children get the caller's environment minus every LWVMM_* knob, so
   the test passes under the CI matrix that sets them. *)

module Json = Vmm_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt
let is_knob kv = String.length kv > 6 && String.sub kv 0 6 = "LWVMM_"

let clean_env =
  Array.of_list (List.filter (fun kv -> not (is_knob kv)) (Array.to_list (Unix.environment ())))

(* [~quiet] drops the child's diagnostics: the runs expected to fail. *)
let run ?(env = clean_env) ?(quiet = false) exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = if quiet then Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 else Unix.stderr in
  let pid = Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin w err in
  Unix.close w;
  if quiet then Unix.close err;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED code -> (code, out)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> fail "%s was killed" exe

let parse what text =
  match Json.of_string text with Ok j -> j | Error e -> fail "%s does not parse: %s" what e

let field k j = match Json.member k j with Some v -> v | None -> fail "no field %s" k
let str j = match Json.to_string_opt j with Some s -> s | None -> fail "not a string"
let items j = match Json.to_list_opt j with Some l -> l | None -> fail "not a list"

let metric_names bench section =
  List.map (fun m -> (str (field "name" m), str (field "unit" m))) (items (field section bench))

let () =
  let perf =
    let p = Sys.argv.(1) in
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  in
  let bench = parse "BENCHMARK.json" (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all) in
  let workloads = List.map (fun w -> str (field "name" w)) (items (field "workloads" bench)) in
  let end_to_end = metric_names bench "end_to_end" in
  let per_layer = metric_names bench "per_layer" in
  (* 1 *)
  let code, out = run perf [ "--seconds"; "0.2"; "--trace" ] in
  if code <> 0 then fail "the scaled-down traced run exited %d" code;
  let lines = String.split_on_char '\n' (String.trim out) in
  let last = parse "the last output line" (List.nth lines (List.length lines - 1)) in
  if field "correct" last <> Json.Bool true then fail "the run reports correct=false";
  let emitted = field "metrics" last in
  let count = function Json.Obj l -> List.length l | _ -> -1 in
  if count emitted <> List.length workloads * List.length per_layer then
    fail "the traced run emits %d metrics, not one per workload and per-layer metric"
      (count emitted);
  let results = parse "perf-results.json" (In_channel.with_open_bin "perf-results.json" In_channel.input_all) in
  List.iter
    (fun w ->
      let check where (name, unit) =
        match Json.member name where with
        | Some m when Json.member "unit" m = Some (Json.String unit) -> ()
        | Some _ -> fail "%s %s: unit is not %s" w name unit
        | None -> fail "%s: %s is not emitted" w name
      in
      List.iter (check emitted)
        (List.map (fun (n, u) -> (w ^ "." ^ n, u)) per_layer);
      let wr = field w (field "workloads" results) in
      let exactly section names =
        let got = field section wr in
        List.iter (check got) names;
        if count got <> List.length names then fail "%s: extra %s metrics" w section
      in
      exactly "end_to_end" end_to_end;
      exactly "per_layer" per_layer;
      List.iter
        (fun s ->
          let get k = Option.get (Json.to_float_opt (field k s)) in
          let wall = get "wall_s" and attributed = get "attributed_s" in
          if Float.abs (wall -. attributed) > 0.10 *. wall then
            fail "%s: layers account for %.3f s of %.3f s" w attributed wall)
        (items (field "layer_sum" wr)))
    workloads;
  (* 2 *)
  let code, out =
    run ~quiet:true perf
      [ "--workload"; "compute"; "--seconds"; "0"; "--pin"; "compute.instructions=0" ]
  in
  if code <> 2 then fail "a wrong pinned value gave exit %d, not 2" code;
  if String.trim out <> "" then fail "a wrong pinned value still printed: %s" out;
  (* 3 *)
  let code, _ =
    run ~quiet:true ~env:(Array.append clean_env [| "LWVMM_JIT=0" |]) perf
      [ "--workload"; "compute" ]
  in
  if code <> 2 then fail "LWVMM_JIT=0 gave exit %d, not 2" code;
  print_endline "perf smoke: ok"
