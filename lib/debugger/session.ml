module Machine = Vmm_hw.Machine
module Uart = Vmm_hw.Uart
module Costs = Vmm_hw.Costs
module Packet = Vmm_proto.Packet
module Command = Vmm_proto.Command
module Reliable = Vmm_proto.Reliable

type t = {
  machine : Machine.t;
  endpoint : Reliable.t;
  replies : string Queue.t;  (** raw non-stop payloads *)
  stops : Command.stop_reason Queue.t;
  mutable sent : int;
  received : int ref;
  stale : int ref;
      (** replies still owed to commands whose wait was abandoned; they
          must be discarded on arrival, not matched to a later command *)
  awaiting : int ref;
      (** reply-bearing commands currently waiting; a non-stop payload
          arriving when this is zero was not asked for and must not
          enter the positional reply queue *)
  discards : int ref;
      (** acks owed to fire-and-forget sends: the stub answers [c]/[s]
          exactly once (OK or an error code), so each such send owns one
          reply slot that is consumed and dropped on arrival — error
          codes among them (a crashed target refusing resume with E03)
          are tallied in [unsolicited] *)
  unsolicited : int ref;
  mutable last_latency_s : float;
  mutable link_downs : int;
}

let default_timeout_s = 5.0

let is_stop_payload payload = String.length payload >= 3 && payload.[0] = 'T'

(* [wrap_to_target] / [wrap_to_host] interpose on the raw byte streams
   (host->UART and UART->host); the fault harness uses them to model a
   lossy transport.  The identity default is the historical perfect
   link. *)
let attach ?link_config ?(wrap_to_target = fun sink -> sink)
    ?(wrap_to_host = fun sink -> sink) machine =
  let uart = Machine.uart machine in
  let replies = Queue.create () in
  let stops = Queue.create () in
  let received = ref 0 in
  let stale = ref 0 in
  let awaiting = ref 0 in
  let discards = ref 0 in
  let unsolicited = ref 0 in
  let deliver payload =
    incr received;
    let stop =
      if is_stop_payload payload then
        match Command.reply_of_wire payload with
        | Some (Command.Stopped reason) -> Some reason
        | Some _ | None -> None
      else None
    in
    match stop with
    | Some reason -> Queue.add reason stops
    | None ->
      (* Replies pair with commands positionally, so a reply owed to an
         abandoned wait or to a fire-and-forget send must never satisfy
         a later command. *)
      if !stale > 0 then decr stale
      else if !discards > 0 then begin
        decr discards;
        if String.length payload = 3 && payload.[0] = 'E' then
          incr unsolicited
      end
      else if !awaiting = 0 then incr unsolicited
      else Queue.add payload replies
  in
  let link_config =
    match link_config with
    | Some c -> c
    | None ->
      { Reliable.default_config with
        Reliable.byte_cycles = (Machine.costs machine).Costs.uart_cycles_per_byte
      }
  in
  let endpoint =
    Reliable.create ~config:link_config ~engine:(Machine.engine machine)
      ~send_byte:(wrap_to_target (fun byte -> Uart.inject_rx uart byte))
      ~deliver ()
  in
  (* The host initiates, so it always speaks the sequenced protocol. *)
  Reliable.set_sequenced endpoint true;
  let t =
    {
      machine;
      endpoint;
      replies;
      stops;
      sent = 0;
      received;
      stale;
      awaiting;
      discards;
      unsolicited;
      last_latency_s = 0.0;
      link_downs = 0;
    }
  in
  Reliable.set_on_link_down endpoint (fun () -> t.link_downs <- t.link_downs + 1);
  Uart.set_on_tx uart (wrap_to_host (fun byte -> Reliable.on_rx_byte endpoint byte));
  t

let send t command =
  t.sent <- t.sent + 1;
  Reliable.send t.endpoint (Command.command_to_wire command)

(* Pump the shared simulation in slices until [ready] or timeout.  The
   slice bounds the latency-measurement quantization, not correctness.
   A link declared down also ends the wait: the caller gets None now
   instead of burning the whole timeout on a dead wire. *)
let pump_until t ~timeout_s ready =
  let slice = 0.0005 in
  let rec go budget =
    if ready () then true
    else if not (Reliable.link_up t.endpoint) then ready ()
    else if budget <= 0.0 then false
    else begin
      Machine.run_seconds t.machine slice;
      go (budget -. slice)
    end
  in
  go timeout_s

let transact ?(timeout_s = default_timeout_s) t command =
  let start = Machine.now t.machine in
  send t command;
  incr t.awaiting;
  let got = pump_until t ~timeout_s (fun () -> not (Queue.is_empty t.replies)) in
  decr t.awaiting;
  let costs = Machine.costs t.machine in
  t.last_latency_s <-
    Costs.seconds_of_cycles costs (Int64.sub (Machine.now t.machine) start);
  if got then Some (Queue.pop t.replies)
  else begin
    (* Abandoned: when the reply does land it belongs to this command,
       not the next one. *)
    incr t.stale;
    None
  end

let read_registers ?timeout_s t =
  match transact ?timeout_s t Command.Read_registers with
  | Some payload ->
    (match Command.reply_of_wire payload with
     | Some (Command.Registers regs) -> Some regs
     | Some _ | None -> None)
  | None -> None

let expect_ok ?timeout_s t command =
  match transact ?timeout_s t command with
  | Some "OK" -> true
  | Some _ | None -> false

let write_register ?timeout_s t idx v =
  expect_ok ?timeout_s t (Command.Write_register (idx, v))

let read_memory ?timeout_s t ~addr ~len =
  match transact ?timeout_s t (Command.Read_memory { addr; len }) with
  | Some payload ->
    if String.length payload = 3 && payload.[0] = 'E' then None
    else Packet.of_hex payload
  | None -> None

let write_memory ?timeout_s t ~addr ~data =
  expect_ok ?timeout_s t (Command.Write_memory { addr; data })

let insert_breakpoint ?timeout_s t addr =
  expect_ok ?timeout_s t (Command.Insert_breakpoint addr)

let remove_breakpoint ?timeout_s t addr =
  expect_ok ?timeout_s t (Command.Remove_breakpoint addr)

let read_console ?timeout_s t =
  match transact ?timeout_s t Command.Read_console with
  | Some payload -> Packet.of_hex payload
  | None -> None

(* The [qP] payload is the profiler's self-describing dump (a
   [samples=… period=… buckets=…] header plus one bucket line each);
   parse it back into (raw text, header fields, buckets). *)
let read_profile_dump ?timeout_s t =
  match transact ?timeout_s t Command.Read_profile with
  | Some payload ->
    (match Packet.of_hex payload with
     | Some text ->
       (match Vmm_profile.Profiler.parse_dump text with
        | Some (header, buckets) -> Some (text, header, buckets)
        | None -> None)
     | None -> None)
  | None -> None

(* The [qW] payload is textual [key=value] pairs, hex-encoded on the
   wire like the console; parse into an assoc list, raw text first. *)
let query_watchdog ?timeout_s t =
  match transact ?timeout_s t Command.Query_watchdog with
  | Some payload ->
    (match Packet.of_hex payload with
     | Some text ->
       let fields =
         List.filter_map
           (fun tok ->
             match String.index_opt tok '=' with
             | Some i ->
               Some
                 ( String.sub tok 0 i,
                   String.sub tok (i + 1) (String.length tok - i - 1) )
             | None -> None)
           (String.split_on_char ' ' text)
       in
       Some (text, fields)
     | None -> None)
  | None -> None

(* The [qV] payload (load-time static-verification report) has the same
   flat [key=value] shape as [qW]. *)
let query_verify ?timeout_s t =
  match transact ?timeout_s t Command.Query_verify with
  | Some payload ->
    (match Packet.of_hex payload with
     | Some text ->
       let fields =
         List.filter_map
           (fun tok ->
             match String.index_opt tok '=' with
             | Some i ->
               Some
                 ( String.sub tok 0 i,
                   String.sub tok (i + 1) (String.length tok - i - 1) )
             | None -> None)
           (String.split_on_char ' ' text)
       in
       Some (text, fields)
     | None -> None)
  | None -> None

(* The [qR] payload — the crash bundle when the target has crashed or
   wedged, the live flight-ring dump otherwise — is opaque
   self-describing text; no field parsing here. *)
let query_flight ?timeout_s t =
  match transact ?timeout_s t Command.Query_flight with
  | Some payload -> Packet.of_hex payload
  | None -> None

(* Warm restart: distinguish "restarted" from "refused" (E0F: the target
   has no boot snapshot) and "no answer". *)
type restart_result = Restarted | Refused | No_answer

let restart ?timeout_s t =
  match transact ?timeout_s t Command.Restart with
  | Some "OK" -> Restarted
  | Some payload when String.length payload = 3 && payload.[0] = 'E' ->
    Refused
  | Some _ -> No_answer
  | None -> No_answer

let insert_watchpoint ?timeout_s t ~addr ~len =
  expect_ok ?timeout_s t (Command.Insert_watchpoint { addr; len })

let remove_watchpoint ?timeout_s t ~addr ~len =
  expect_ok ?timeout_s t (Command.Remove_watchpoint { addr; len })

(* Stop replies to '?' land in the stop queue like asynchronous
   notifications.  A notification already pending answers the query
   without any wire traffic — sending '?' anyway would orphan its reply,
   and a stopped target answers '?' with a T payload that lands in the
   stop queue, not the positional reply queue, so marking the orphan
   stale would eat the next genuine reply instead. *)
let query_raw ?(timeout_s = default_timeout_s) t =
  match Queue.take_opt t.stops with
  | Some reason -> Some (Error reason)
  | None ->
    send t Command.Query_stop;
    incr t.awaiting;
    let ready () =
      (not (Queue.is_empty t.replies)) || not (Queue.is_empty t.stops)
    in
    let got = pump_until t ~timeout_s ready in
    decr t.awaiting;
    if got then
      (* The ['?'] reply itself: a running target's [R] lands in the
         reply queue, a stopped target's stop reason in the stop queue.
         Take [R] first: when the guest stops right after the stub
         answered, the [T] can arrive in the same pump slice, and it must
         stay pending rather than leave [R] to pair with the next
         command. *)
      match Queue.take_opt t.replies with
      | Some payload -> Some (Ok payload)
      | None -> Some (Error (Queue.pop t.stops))
    else begin
      incr t.stale;
      None
    end

let query ?timeout_s t =
  match query_raw ?timeout_s t with
  | Some (Error reason) -> Some reason
  | Some (Ok _) | None -> None

let is_running ?timeout_s t =
  match query_raw ?timeout_s t with
  | Some (Ok "R") -> Some true
  | Some (Error _) -> Some false
  | Some (Ok _) | None -> None

let wait_stop ?(timeout_s = default_timeout_s) t =
  let got = pump_until t ~timeout_s (fun () -> not (Queue.is_empty t.stops)) in
  if got then Some (Queue.pop t.stops) else None

(* [c] and [s] are fire-and-forget on this side, but the stub acks each
   exactly once (OK or an error code): reserve the discard slot so that
   ack never shifts the positional pairing of later commands. *)
let continue_ t =
  send t Command.Continue;
  incr t.discards

let step ?timeout_s t =
  send t Command.Step;
  incr t.discards;
  wait_stop ?timeout_s t

(* Reverse execution follows the [s] shape: one reserved ack (OK, or an
   error when there is no eligible checkpoint / the target is not
   stopped), then a stop notification once the replay lands. *)
let reverse_step ?timeout_s t =
  send t Command.Reverse_step;
  incr t.discards;
  wait_stop ?timeout_s t

let reverse_continue ?timeout_s t =
  send t Command.Reverse_continue;
  incr t.discards;
  wait_stop ?timeout_s t

let halt ?timeout_s t =
  send t Command.Halt;
  wait_stop ?timeout_s t

let detach ?timeout_s t = expect_ok ?timeout_s t Command.Detach

(* Reconnection after a Link_down: restart this side's ARQ state and
   tell the stub to do the same over a fresh exchange.  Stale replies
   from the dead incarnation are dropped; pending stop notifications are
   kept (they describe real target state). *)
let link_up t = Reliable.link_up t.endpoint

let reconnect ?(timeout_s = default_timeout_s) t =
  Reliable.reset t.endpoint;
  Queue.clear t.replies;
  t.stale := 0;
  (* Acks owed by the dead incarnation will never arrive; forgetting
     them keeps the discard filter from eating post-resync replies. *)
  t.discards := 0;
  (* Resync travels as a plain (unsequenced) frame: the stub delivers
     those without the duplicate filter, so it gets through even when the
     stale sequence spaces disagree about everything. *)
  t.sent <- t.sent + 1;
  Reliable.send_plain t.endpoint (Command.command_to_wire Command.Resync);
  (* Replies from the dead incarnation can still trickle in ahead of the
     resync ack; only the distinctive [sync] payload counts, everything
     earlier is discarded. *)
  let sync_wire = Command.reply_to_wire Command.Sync_ok in
  let synced = ref false in
  let ready () =
    while (not !synced) && not (Queue.is_empty t.replies) do
      if Queue.pop t.replies = sync_wire then synced := true
    done;
    !synced
  in
  incr t.awaiting;
  ignore (pump_until t ~timeout_s ready : bool);
  decr t.awaiting;
  !synced

let pending_stop t = Queue.take_opt t.stops
let unsolicited_errors t = !(t.unsolicited)
let link_stats t = Reliable.stats t.endpoint
let retransmissions t = (link_stats t).Reliable.retransmits
let link_downs t = t.link_downs
let packets_sent t = t.sent
let packets_received t = !(t.received)
let last_latency_s t = t.last_latency_s

(* Host-side link health, published next to the target-side metrics so
   `lwvmm_dbg stats` shows both ends of the wire in one dump. *)
let register_metrics t registry =
  let g name f = Vmm_obs.Registry.int_gauge registry name f in
  g "hostlink_packets_sent_total" (fun () -> packets_sent t);
  g "hostlink_packets_received_total" (fun () -> packets_received t);
  g "hostlink_retransmits_total" (fun () -> retransmissions t);
  g "hostlink_bad_checksums_total" (fun () ->
      (link_stats t).Reliable.bad_checksums);
  g "hostlink_resets_total" (fun () -> (link_stats t).Reliable.link_resets);
  g "hostlink_downs_total" (fun () -> link_downs t);
  Vmm_obs.Registry.gauge registry "hostlink_last_latency_seconds" (fun () ->
      last_latency_s t)
