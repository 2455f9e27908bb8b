(* Continuous profiling of a live appliance.

   The machine's profiler samples the guest pc every few thousand cycles,
   with interrupts masked or not, so the host debugger can ask "where
   does the CPU go?" over [qP] without stopping the target — the kind of
   question the paper's environment is built to answer while the OS runs
   high-throughput I/O.

   This session profiles the streaming guest at a low and a high rate and
   shows the shift from idle time to the packetization path.  The
   high-rate run also records cycle-attribution spans and writes them as
   Chrome trace-event JSON (profiling_session_trace.json — open it in
   Perfetto or about:tracing for the timeline view of the same story).

   Run with: dune exec examples/profiling_session.exe *)

module Machine = Vmm_hw.Machine
module Costs = Vmm_hw.Costs
module Monitor = Core.Monitor
module Kernel = Vmm_guest.Kernel
module Session = Vmm_debugger.Session
module Symbols = Vmm_debugger.Symbols
module Cli = Vmm_debugger.Cli

module Tracer = Vmm_obs.Tracer
module Json = Vmm_obs.Json

let trace_file = "profiling_session_trace.json"

let profile_at ?(record_spans = false) rate =
  let costs = { Costs.default with Costs.uart_cycles_per_byte = 2000 } in
  let machine = Machine.create ~mem_size:(16 * 1024 * 1024) ~costs () in
  let monitor = Monitor.install machine in
  (* user-mode guest: the application packetizes in ring 3, so the
     profile separates application work from kernel handlers *)
  let program =
    Kernel.build
      { (Kernel.default_config ~rate_mbps:rate) with Kernel.user_mode = true }
  in
  Monitor.boot_guest monitor program ~entry:Kernel.entry;
  Machine.set_profiling machine ~period:Vmm_profile.Profiler.default_period;
  let tracer = Machine.tracer machine in
  if record_spans then Tracer.set_enabled tracer true;
  Machine.run_seconds machine 0.5 (* sampling window *);
  if record_spans then begin
    Tracer.set_enabled tracer false;
    let oc = open_out trace_file in
    output_string oc (Json.to_string (Tracer.to_chrome_json tracer));
    output_char oc '\n';
    close_out oc;
    (* Round-trip the file through the parser: a malformed export should
       fail here, not in the browser. *)
    let ic = open_in trace_file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Json.of_string text with
     | Ok doc ->
       let events =
         match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
         | Some l -> List.length l
         | None -> failwith "traceEvents missing from exported trace"
       in
       Printf.printf "wrote %s: %d events (Perfetto-loadable)\n" trace_file
         events
     | Error msg -> failwith ("exported trace does not parse: " ^ msg));
    Printf.printf "cycle breakdown over the window:\n";
    List.iter
      (fun (cat, cycles) ->
        Printf.printf "  %-12s %12Ld cycles\n" cat cycles)
      (Vmm_sim.Stats.busy_by_category (Machine.load machine))
  end;
  let session = Session.attach machine in
  let symbols = Symbols.of_program program in
  let cli = Cli.create ~session ~symbols in
  Printf.printf "\n--- profile at %.0f Mbps ---\n%s\n" rate
    (Cli.execute cli "profile 6")

let () =
  Printf.printf
    "Continuous pc sampling of the streaming appliance under the\n\
     lightweight monitor (the guest keeps running throughout).\n";
  profile_at 20.0;
  profile_at ~record_spans:true 150.0;
  Printf.printf
    "\nSamples fall only while the guest executes, so their count tracks\n\
     guest CPU time: at 150 Mbps about six times as many land as at 20\n\
     Mbps, on the same path -- the application's payload copy/checksum\n\
     loop, the send system call and the NIC handler -- live evidence of\n\
     where the transfer budget goes, gathered without stopping the guest.\n"
