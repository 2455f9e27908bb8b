(* lwvmm_dbg: the host-machine debugger front end.

   Boots the HiTactix-like guest under the lightweight monitor on a
   simulated target machine and gives you the remote-debugging command
   loop of the paper's Fig 2.1.  Reads commands from stdin (one per line);
   see `help`.  Extra commands beyond the debugger language:

     run <seconds>    -- advance the target by simulated wall time
     stats            -- full metrics registry (Prometheus text format)
     reconnect        -- revive a link declared dead (resync exchange)
     trace            -- recent monitor events
     trace on|off     -- start/stop cycle-attribution span recording
     trace dump FILE  -- write recorded spans as Chrome trace-event JSON
                         (open in Perfetto / about:tracing)
     quit

   Usage: dune exec bin/lwvmm_dbg.exe -- [--rate MBPS] [--fast-uart]
          [--lossy SEED] [--script 'cmd;cmd;...']

   Batch mode for CI:

     lwvmm_dbg lint [IMAGE] [--origin ADDR] [--entry ADDR]

   runs the static verifier (lib/analysis) over the shipped guest
   kernel — both kernel- and user-mode builds — or over a raw image
   file, under the monitor's default memory/port policy, and exits
   non-zero on any diagnostic. *)

module Machine = Vmm_hw.Machine
module Costs = Vmm_hw.Costs
module Monitor = Core.Monitor
module Kernel = Vmm_guest.Kernel
module Session = Vmm_debugger.Session
module Symbols = Vmm_debugger.Symbols
module Cli = Vmm_debugger.Cli
module Chaos = Vmm_fault.Chaos
module Verifier = Vmm_analysis.Verifier
module Vm_layout = Core.Vm_layout

(* LWVMM_PROFILE arms the continuous pc-sampling profiler: unset/empty/0
   leaves it off, a positive integer is the sampling period in guest
   cycles, anything else means the default period.  Sampling only reads
   pc/cpl, so arming it never perturbs guest-visible state — record and
   replay stay bit-exact with it on (the CI golden-trace job relies on
   this). *)
let profile_period ~default =
  match Sys.getenv_opt "LWVMM_PROFILE" with
  | None | Some "" -> default
  | Some "0" -> None
  | Some v ->
    (match Int64.of_string_opt v with
     | Some p when Int64.compare p 0L > 0 -> Some p
     | Some _ | None -> Some Vmm_profile.Profiler.default_period)

let arm_profiler machine ~default =
  match profile_period ~default with
  | Some period -> Machine.set_profiling machine ~period
  | None -> ()

let run rate fast_uart lossy script =
  let costs =
    if fast_uart then { Costs.default with Costs.uart_cycles_per_byte = 2000 }
    else Costs.default
  in
  let machine = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs () in
  let monitor = Monitor.install machine in
  (* Interactive sessions profile by default (the `profile` command then
     has something to show); LWVMM_PROFILE=0 switches it off. *)
  arm_profiler machine ~default:(Some Vmm_profile.Profiler.default_period);
  let program = Kernel.build (Kernel.default_config ~rate_mbps:rate) in
  Monitor.boot_guest monitor program ~entry:Kernel.entry;
  (* periodic checkpoints back the rs/rc reverse-execution verbs *)
  Monitor.checkpoint_start monitor;
  Machine.run_seconds machine 0.02;
  let session =
    match lossy with
    | None -> Session.attach machine
    | Some seed ->
      (* A mildly hostile wire in both directions; the reliable link
         repairs it and `stats` shows the repair work. *)
      let chaos =
        Chaos.create ~engine:(Machine.engine machine)
          ~rng:(Vmm_sim.Rng.create ~seed:(Int64.of_int seed))
          ()
      in
      Chaos.set_profile chaos
        { Chaos.quiet with Chaos.drop_p = 0.005; Chaos.corrupt_p = 0.005 };
      Chaos.set_active chaos true;
      Printf.printf
        "lossy wire enabled (seed %d): 0.5%% drop, 0.5%% corrupt; \
         'reconnect' revives a dead link\n"
        seed;
      Session.attach ~wrap_to_target:(Chaos.wrap chaos)
        ~wrap_to_host:(Chaos.wrap chaos) machine
  in
  Session.register_metrics session (Machine.registry machine);
  let symbols = Symbols.of_program program in
  let cli = Cli.create ~session ~symbols in
  Printf.printf
    "lwvmm_dbg: guest streaming at %.0f Mbps under the lightweight monitor\n\
     type 'help' for commands, 'quit' to exit\n"
    rate;
  let execute line =
    match String.trim line with
    | "" -> true
    | "quit" | "exit" -> false
    | "trace" ->
      let module Flight = Vmm_profile.Flight in
      let records = Flight.find (Machine.trace machine) ~kind:"monitor" in
      if records = [] then print_endline "(no monitor events recorded)"
      else
        List.iter
          (fun (e : Flight.entry) ->
            Printf.printf "[%Ld] %s %s: %s\n" e.cycle e.kind
              (Flight.severity_to_string e.severity)
              e.detail)
          records;
      true
    | "trace on" ->
      Vmm_obs.Tracer.set_enabled (Machine.tracer machine) true;
      print_endline "span recording on";
      true
    | "trace off" ->
      let tracer = Machine.tracer machine in
      Vmm_obs.Tracer.set_enabled tracer false;
      Printf.printf "span recording off (%d events held, %d dropped)\n"
        (Vmm_obs.Tracer.event_count tracer)
        (Vmm_obs.Tracer.dropped tracer);
      true
    | line
      when String.length line > 11 && String.sub line 0 11 = "trace dump " ->
      let path = String.trim (String.sub line 11 (String.length line - 11)) in
      if path = "" then print_endline "usage: trace dump FILE"
      else begin
        let json =
          Vmm_obs.Tracer.to_chrome_json (Machine.tracer machine)
        in
        let oc = open_out path in
        output_string oc (Vmm_obs.Json.to_string json);
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %d events to %s\n"
          (Vmm_obs.Tracer.event_count (Machine.tracer machine))
          path
      end;
      true
    | "reconnect" ->
      if Session.reconnect session then print_endline "link re-established"
      else print_endline "reconnect failed (wire still hostile?)";
      true
    | "stats" ->
      (* Everything — device counters, monitor exit reasons, shadow
         state, both ends of the debug link — lives in one registry. *)
      print_string (Vmm_obs.Registry.dump (Machine.registry machine));
      true
    | line when String.length line > 4 && String.sub line 0 4 = "run " ->
      (match float_of_string_opt (String.sub line 4 (String.length line - 4)) with
       | Some s when s > 0.0 && s <= 60.0 ->
         Machine.run_seconds machine s;
         let c = Kernel.read_counters (Machine.mem machine) program in
         Printf.printf "advanced %.3f s: %d ticks, %d frames sent\n" s
           c.Kernel.ticks c.Kernel.frames_sent
       | Some _ | None -> print_endline "usage: run <seconds in (0, 60]>");
      true
    | line ->
      print_endline (Cli.execute cli line);
      true
  in
  match script with
  | Some script ->
    List.iter
      (fun line ->
        let line = String.trim line in
        if line <> "" then begin
          Printf.printf "(dbg) %s\n" line;
          ignore (execute line)
        end)
      (String.split_on_char ';' script)
  | None ->
    let rec repl () =
      (* stdout is block-buffered even on a tty: flush or the prompt
         (and the previous command's output) never appears *)
      print_string "(dbg) ";
      flush stdout;
      match In_channel.input_line stdin with
      | Some line -> if execute line then repl ()
      | None -> ()
    in
    repl ()

(* -- lint: batch verification with an exit code, for CI -- *)

(* The monitor's policy on the default 16 MiB machine: guest memory
   below monitor_base, emulated PIC/PIT/UART plus passed-through
   SCSI/NIC ports. *)
let lint_config () =
  let layout = Vm_layout.default ~mem_size:(16 * 1024 * 1024) in
  {
    Verifier.guest_owns = Vm_layout.guest_owns layout;
    allowed_ports = Verifier.default_ports;
    entry_ring = 0;
  }

(* Machine-readable lint report: one object per image, with the race
   pass and interprocedural-summary results alongside the classic
   counters. *)
let lint_json reports =
  let module J = Vmm_obs.Json in
  J.List
    (List.map
       (fun (name, _symbols, (r : Verifier.report)) ->
         J.Obj
           [
             ("program", J.String name);
             ("clean", J.Bool r.Verifier.clean);
             ( "diagnostics",
               J.List
                 (List.map
                    (fun (d : Verifier.diagnostic) ->
                      J.Obj
                        [
                          ("class", J.String (Verifier.class_name d.Verifier.cls));
                          ("addr", J.Int d.Verifier.addr);
                          ("detail", J.String d.Verifier.detail);
                        ])
                    r.Verifier.diagnostics) );
             ("instructions", J.Int r.Verifier.instructions);
             ("blocks", J.Int r.Verifier.blocks);
             ("functions", J.Int r.Verifier.functions);
             ("roots", J.Int r.Verifier.roots);
             ("summaries", J.Int r.Verifier.summaries);
             ("summary_incomplete", J.Int r.Verifier.summary_incomplete);
             ( "race_sites",
               J.List
                 (List.map
                    (fun (s : Vmm_analysis.Races.site) ->
                      J.Obj
                        [
                          ("load", J.Int s.Vmm_analysis.Races.load_pc);
                          ("store", J.Int s.Vmm_analysis.Races.store_pc);
                          ("lo", J.Int s.Vmm_analysis.Races.lo);
                          ("hi", J.Int s.Vmm_analysis.Races.hi);
                          ("vector", J.Int s.Vmm_analysis.Races.vector);
                          ("handler", J.Int s.Vmm_analysis.Races.handler);
                          ( "handler_writes",
                            J.Bool s.Vmm_analysis.Races.handler_writes );
                        ])
                    r.Verifier.race_sites) );
           ])
       reports)

(* Exit codes: 0 clean, 1 diagnostics found, 2 the image could not be
   loaded or decoded — so CI can tell a dirty guest from a broken
   artifact path. *)
let lint image_file origin entry json =
  let cfg = lint_config () in
  match
    match image_file with
    | Some path -> (
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            Bytes.of_string (really_input_string ic (in_channel_length ic)))
      with
      | image ->
        let origin = Option.value origin ~default:0x1000 in
        Ok [ (path, None, Verifier.verify_image cfg ~origin ?entry image) ]
      | exception exn ->
        Error (Printf.sprintf "cannot load %s: %s" path (Printexc.to_string exn)))
    | None ->
      Ok
        (List.map
           (fun (name, kcfg) ->
             let p = Kernel.build kcfg in
             ( name,
               Some (Symbols.of_program p),
               Verifier.verify cfg ~entry:Kernel.entry p ))
           [
             ("guest kernel (kernel mode)", Kernel.default_config ~rate_mbps:50.0);
             ( "guest kernel (user mode)",
               { (Kernel.default_config ~rate_mbps:50.0) with Kernel.user_mode = true } );
           ])
  with
  | Error msg ->
    Printf.eprintf "lint: %s\n" msg;
    2
  | Ok reports ->
    if json then print_endline (Vmm_obs.Json.to_string (lint_json reports))
    else
      List.iter
        (fun (name, symbols, r) ->
          Printf.printf "%s: %s\n" name (Verifier.render ?symbols r))
        reports;
    if List.exists (fun (_, _, r) -> not r.Verifier.clean) reports then 1 else 0

(* -- record / replay: deterministic capture of a debug campaign --

   One shared driver boots the guest, arms periodic checkpoints, runs a
   seeded chaos window over the debug link and issues a fixed probe
   sequence.  `record` logs every nondeterministic event (timer fires,
   virtual-IRQ injections, UART/NIC ingress, DMA completions, chaos
   verdicts, checkpoints) to a versioned trace; `replay` re-runs the
   driver with the recorded events as the script — chaos verdicts come
   from the trace, every other event is checked for bit-exact
   convergence — and exits non-zero on the first divergence.  The final
   guest-state digest travels in the trace label, so replay also proves
   the end states match. *)

module Recorder = Vmm_replay.Recorder
module Trace = Vmm_replay.Trace
module Snapshot = Core.Snapshot

let drive ~mode ~seed ~seconds =
  let costs = { Costs.default with Costs.uart_cycles_per_byte = 2000 } in
  let machine = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs () in
  let monitor = Monitor.install machine in
  (* Off unless LWVMM_PROFILE asks for it: record/replay converge either
     way, and CI replays the golden trace once with profiling on to prove
     the profiler never perturbs the deterministic path. *)
  arm_profiler machine ~default:None;
  let recorder = Machine.recorder machine in
  (match mode with
   | `Record -> Recorder.start_record recorder
   | `Replay events -> Recorder.start_replay recorder events);
  let program = Kernel.build (Kernel.default_config ~rate_mbps:50.0) in
  Monitor.boot_guest monitor program ~entry:Kernel.entry;
  Monitor.checkpoint_start monitor
    ~period_cycles:(Costs.cycles_of_seconds costs 0.005);
  let chaos =
    Chaos.create ~engine:(Machine.engine machine)
      ~rng:(Vmm_sim.Rng.create ~seed) ()
  in
  Chaos.set_recorder chaos recorder;
  Chaos.set_profile chaos
    { Chaos.quiet with
      Chaos.drop_p = 0.01;
      Chaos.corrupt_p = 0.01;
      Chaos.delay_p = 0.02;
      Chaos.max_delay_cycles = 5000;
    };
  let session =
    Session.attach
      ~wrap_to_target:(Chaos.wrap ~source:"chaos.h2t" chaos)
      ~wrap_to_host:(Chaos.wrap ~source:"chaos.t2h" chaos)
      machine
  in
  Machine.run_seconds machine 0.02;
  ignore (Session.read_registers session);
  Chaos.set_active chaos true;
  Machine.run_seconds machine (seconds /. 2.0);
  ignore (Session.read_registers session);
  Chaos.set_active chaos false;
  ignore (Session.query_watchdog session);
  Machine.run_seconds machine (seconds /. 2.0);
  let final = Monitor.checkpoint_now monitor in
  (machine, recorder, Snapshot.Full.digest final)

let label_field label key =
  List.find_map
    (fun tok ->
      let prefix = key ^ "=" in
      let plen = String.length prefix in
      if String.length tok > plen && String.sub tok 0 plen = prefix then
        Some (String.sub tok plen (String.length tok - plen))
      else None)
    (String.split_on_char ';' label)

let record path seed seconds =
  let seed = Int64.of_int seed in
  let machine, recorder, digest = drive ~mode:`Record ~seed ~seconds in
  Recorder.stop recorder;
  let events = Recorder.recorded recorder in
  let header =
    Trace.make_header
      ~label:(Printf.sprintf "lwvmm_dbg;digest=%Lx;seconds=%g" digest seconds)
      ~seed ()
  in
  Trace.save ~path header events;
  Printf.printf "recorded %d events over %g s to %s\nfinal digest %Lx at cycle %Ld\n"
    (List.length events) seconds path digest (Machine.now machine);
  0

let replay path =
  match Trace.load ~path with
  | Error msg ->
    Printf.eprintf "replay: %s\n" msg;
    2
  | Ok (header, events) ->
    let seconds =
      match label_field header.Trace.label "seconds" with
      | Some s -> (try float_of_string s with _ -> 0.1)
      | None -> 0.1
    in
    let _machine, recorder, digest =
      drive ~mode:(`Replay events) ~seed:header.Trace.seed ~seconds
    in
    (match Recorder.finish_replay recorder with
     | Some d ->
       Format.printf "replay DIVERGED:@.%a@." Recorder.pp_divergence d;
       1
     | None ->
       (match label_field header.Trace.label "digest" with
        | Some want when want <> Printf.sprintf "%Lx" digest ->
          Printf.printf
            "replay DIVERGED: final digest %Lx, recorded run had %s\n" digest
            want;
          1
        | _ ->
          Printf.printf
            "replay converged: %d events bit-exact, final digest %Lx\n"
            (List.length events) digest;
          0))

open Cmdliner

let rate =
  let doc = "Guest streaming rate in Mbps." in
  Arg.(value & opt float 50.0 & info [ "rate" ] ~docv:"MBPS" ~doc)

let fast_uart =
  let doc =
    "Model a fast debug link instead of real 115200 baud (snappier \
     interactive use)."
  in
  Arg.(value & flag & info [ "fast-uart" ] ~doc)

let lossy =
  let doc =
    "Interpose a seeded lossy wire on the debug link (1% drop, 1% corrupt \
     per byte); the reliable link repairs it."
  in
  Arg.(value & opt (some int) None & info [ "lossy" ] ~docv:"SEED" ~doc)

let script =
  let doc = "Run a semicolon-separated command list instead of a REPL." in
  Arg.(value & opt (some string) None & info [ "script" ] ~docv:"CMDS" ~doc)

let image_file =
  let doc =
    "Raw LWM-32 image file to lint instead of the shipped guest kernel."
  in
  (* [string], not [file]: a missing path must exit 2 ("failed to
     load"), not die in option parsing. *)
  Arg.(value & pos 0 (some string) None & info [] ~docv:"IMAGE" ~doc)

let origin_arg =
  let doc = "Load address of the raw image (default 0x1000)." in
  Arg.(value & opt (some int) None & info [ "origin" ] ~docv:"ADDR" ~doc)

let entry_arg =
  let doc = "Entry point of the raw image (default: its origin)." in
  Arg.(value & opt (some int) None & info [ "entry" ] ~docv:"ADDR" ~doc)

let run' rate fast_uart lossy script =
  run rate fast_uart lossy script;
  0

let run_term = Term.(const run' $ rate $ fast_uart $ lossy $ script)

let json_flag =
  let doc = "Emit the report as JSON (one object per image) instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let lint_cmd =
  let doc =
    "statically verify a guest image (CFG + abstract interpretation + \
     interprocedural race pass); exit 1 on diagnostics, 2 when the image \
     fails to load"
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const lint $ image_file $ origin_arg $ entry_arg $ json_flag)

let run_cmd =
  let doc = "boot the guest under the monitor and open the debug REPL" in
  Cmd.v (Cmd.info "run" ~doc) run_term

let trace_path_new =
  let doc = "Trace file to write." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)

let trace_path_existing =
  let doc = "Trace file to replay." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)

let seed_arg =
  let doc = "Seed for the chaos-wire RNG (stored in the trace header)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let seconds_arg =
  let doc = "Simulated seconds of chaos campaign to record." in
  Arg.(value & opt float 0.1 & info [ "seconds" ] ~docv:"S" ~doc)

let record_cmd =
  let doc =
    "run a seeded chaos campaign and record every nondeterministic event \
     to a replayable trace"
  in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(const record $ trace_path_new $ seed_arg $ seconds_arg)

let replay_cmd =
  let doc =
    "re-run a recorded campaign from its trace, asserting bit-exact \
     convergence; exits non-zero on the first divergence"
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const replay $ trace_path_existing)

let cmd =
  let doc = "remote debugger for guests under the lightweight VMM" in
  let info = Cmd.info "lwvmm_dbg" ~doc in
  Cmd.group ~default:run_term info [ run_cmd; lint_cmd; record_cmd; replay_cmd ]

let () = exit (Cmd.eval' cmd)
