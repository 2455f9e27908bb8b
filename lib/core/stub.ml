module Command = Vmm_proto.Command
module Reliable = Vmm_proto.Reliable
module Isa = Vmm_hw.Isa

type target = {
  read_registers : unit -> int array;
  write_register : int -> int -> bool;
  read_memory : addr:int -> len:int -> string option;
  write_memory : addr:int -> data:string -> bool;
  current_pc : unit -> int;
  stop : unit -> unit;
  resume : unit -> unit;
  set_step : bool -> unit;
  set_watch : addr:int -> len:int -> bool;
  clear_watch : addr:int -> len:int -> bool;
  read_console : unit -> string;
  read_profile : unit -> string;
  send_byte : int -> unit;
  charge : int -> unit;
  note_flight : string -> unit;
  query_watchdog : unit -> string;
  query_verify : unit -> string;
  query_flight : unit -> string;
  restart : unit -> bool;
  crashed : unit -> bool;
  (* reverse debugging: checkpoint + deterministic replay-to-N *)
  retired : unit -> int64;
  checkpoint_restore : max_retired:int64 -> int64 option;
  set_retire_stop : int64 option -> unit;
  set_replay_mute : bool -> unit;
  (* page-permission virtual breakpoints *)
  vbp_arm : page:int -> unit;
  vbp_disarm : page:int -> unit;
  vbp_pass : pc:int -> unit;
}

type run_state =
  | Running
  | Stopped of Command.stop_reason
  | Client_step  (** host-requested single step *)
  | Replaying of { as_step : bool }
      (** re-executing forward from a restored checkpoint toward a
          retirement target; [as_step] when driven by [rs] (breakpoints
          are stepped over silently), cleared for [rc] (breakpoints
          stop) *)

type t = {
  target : target;
  dispatch_cost : int;
  mutable endpoint : Reliable.t option;
      (** option only to tie the construction knot; always Some after create *)
  breakpoints : Breakpoints.t;
  mutable state : run_state;
  mutable commands : int;
  mutable notifications : int;
  mutable link_downs : int;
  mutable reverse_ops : int;
}

let get_endpoint t =
  match t.endpoint with Some e -> e | None -> assert false

(* Tear down an in-flight reverse execution (retire stop disarmed, the
   recorder un-muted) before any transition that ends it early. *)
let end_replay t =
  match t.state with
  | Replaying _ ->
    t.target.set_retire_stop None;
    t.target.set_replay_mute false
  | Running | Stopped _ | Client_step -> ()

let rec create ?link_config ~target ~dispatch_cost ~engine () =
  let t =
    {
      target;
      dispatch_cost;
      endpoint = None;
      breakpoints = Breakpoints.create ();
      state = Running;
      commands = 0;
      notifications = 0;
      link_downs = 0;
      reverse_ops = 0;
    }
  in
  let endpoint =
    Reliable.create ?config:link_config ~engine ~send_byte:target.send_byte
      ~deliver:(fun payload -> deliver t payload)
      ()
  in
  (* A dead link must not wedge the stub: drop the pending traffic, keep
     the debug state, and wait for the host's Resync.  The guest is
     stopped so nothing is lost while nobody is listening — the monitor
     stays quiescent in the paper's "attached, guest stopped" state. *)
  Reliable.set_on_link_down endpoint (fun () ->
      t.link_downs <- t.link_downs + 1;
      match t.state with
      | Stopped _ -> ()
      | Running | Client_step | Replaying _ ->
        end_replay t;
        let pc = t.target.current_pc () in
        t.target.set_step false;
        t.target.stop ();
        t.state <- Stopped (Command.Halt_requested pc));
  t.endpoint <- Some endpoint;
  t

and send_reply t reply =
  Reliable.send (get_endpoint t) (Command.reply_to_wire reply)

and notify t reason =
  t.notifications <- t.notifications + 1;
  send_reply t (Command.Stopped reason)

and stop_with t reason =
  t.target.stop ();
  t.state <- Stopped reason

(* Breakpoint arming never touches guest memory: the address goes in
   the table and the monitor is told to drop the page's shadow mapping,
   so the next fetch from it refills no-execute and every subsequent
   fetch traps ([vbp_arm]/[vbp_disarm] are that resync; the NX decision
   itself is recomputed from the table at fill time).  An unreadable
   address is refused so [Z0] still answers E0E there. *)

and arm_breakpoint t addr =
  match t.target.read_memory ~addr ~len:Isa.width with
  | None -> false
  | Some _ ->
    if Breakpoints.add t.breakpoints ~addr then t.target.vbp_arm ~page:addr;
    true (* re-arming an armed site is idempotent *)

and disarm_breakpoint t addr =
  if Breakpoints.remove t.breakpoints ~addr then
    t.target.vbp_disarm ~page:addr

(* Resuming off a breakpoint hit grants a one-shot pass: the monitor
   steps through the first exec fault at this pc instead of re-reporting
   the hit we resumed from.  The site stays armed the whole time. *)

and pass_breakpoint_at_pc t =
  let pc = t.target.current_pc () in
  if Breakpoints.mem t.breakpoints ~addr:pc then t.target.vbp_pass ~pc

and continue_guest t =
  pass_breakpoint_at_pc t;
  t.state <- Running;
  t.target.resume ()

and step_guest t =
  pass_breakpoint_at_pc t;
  t.target.set_step true;
  t.state <- Client_step;
  t.target.resume ()

(* Reverse execution = checkpoint restore + deterministic replay-to-N.
   The retirement counter is the time axis: [rs] targets one instruction
   before the current boundary, [rc] re-runs to the current boundary —
   stopping early at the first breakpoint planted along the way — which
   for a crashed guest is the exact pre-crash instruction (the faulting
   instruction never retired, so the stop lands with pc on it, poised
   but not yet executed).

   Breakpoints survive the restore by construction: the restore cleared
   the shadow tables and the table-driven refill re-arms every page
   lazily.  The recorder is muted while re-executing: replayed history
   must not re-enter the log. *)
and reverse_guest t ~as_step =
  match t.state with
  | Running | Client_step | Replaying _ ->
    send_reply t (Command.Error 0x02)
  | Stopped _ ->
    let retired = t.target.retired () in
    let target_retired = if as_step then Int64.sub retired 1L else retired in
    if Int64.compare target_retired 0L < 0 then
      send_reply t (Command.Error 0x04)
    else begin
      match t.target.checkpoint_restore ~max_retired:target_retired with
      | None -> send_reply t (Command.Error 0x04)
      | Some at ->
        t.reverse_ops <- t.reverse_ops + 1;
        send_reply t Command.Ok_reply;
        if Int64.compare at target_retired >= 0 then begin
          (* The checkpoint sits exactly on the target boundary: no
             re-execution needed, report the landing directly. *)
          let pc = t.target.current_pc () in
          stop_with t (Command.Step_done pc);
          notify t (Command.Step_done pc)
        end
        else begin
          t.target.set_replay_mute true;
          t.target.set_retire_stop (Some target_retired);
          t.state <- Replaying { as_step };
          t.target.resume ()
        end
    end

(* Command dispatch. *)

and handle_command t command =
  t.commands <- t.commands + 1;
  (* Protocol frames land in the flight ring at frame granularity (the
     UART taps only show per-byte ingress); long payloads truncate. *)
  (let wire = Command.command_to_wire command in
   t.target.note_flight
     (if String.length wire > 24 then String.sub wire 0 24 ^ "..." else wire));
  t.target.charge t.dispatch_cost;
  match command with
  | Command.Read_registers ->
    send_reply t (Command.Registers (t.target.read_registers ()))
  | Command.Write_register (idx, v) ->
    if t.target.write_register idx v then send_reply t Command.Ok_reply
    else send_reply t (Command.Error 0x01)
  | Command.Read_memory { addr; len } ->
    (match t.target.read_memory ~addr ~len with
     | Some data -> send_reply t (Command.Memory data)
     | None -> send_reply t (Command.Error 0x0E))
  | Command.Write_memory { addr; data } ->
    if t.target.write_memory ~addr ~data then send_reply t Command.Ok_reply
    else send_reply t (Command.Error 0x0E)
  | Command.Insert_breakpoint addr ->
    if arm_breakpoint t addr then send_reply t Command.Ok_reply
    else send_reply t (Command.Error 0x0E)
  | Command.Remove_breakpoint addr ->
    disarm_breakpoint t addr;
    send_reply t Command.Ok_reply
  | Command.Insert_watchpoint { addr; len } ->
    if t.target.set_watch ~addr ~len then send_reply t Command.Ok_reply
    else send_reply t (Command.Error 0x0E)
  | Command.Remove_watchpoint { addr; len } ->
    if t.target.clear_watch ~addr ~len then send_reply t Command.Ok_reply
    else send_reply t (Command.Error 0x0E)
  | Command.Continue ->
    (* [c] and [s] always answer exactly once, immediately: OK when the
       resume is accepted (stop reports still arrive separately as [T]
       notifications), an error code when refused.  The host sends them
       fire-and-forget, so without a guaranteed ack a refusal would land
       in the middle of some later command's reply window and shift the
       positional command/reply pairing. *)
    (match t.state with
     | Stopped _ ->
       (* A quarantined guest must not run again until restarted: its
          state is exactly what the crash left, and resuming it would
          only re-enter the fault.  E03 tells the host to restart. *)
       if t.target.crashed () then send_reply t (Command.Error 0x03)
       else begin
         send_reply t Command.Ok_reply;
         continue_guest t
       end
     | Running | Client_step | Replaying _ ->
       send_reply t Command.Ok_reply)
  | Command.Step ->
    (match t.state with
     | Stopped _ ->
       if t.target.crashed () then send_reply t (Command.Error 0x03)
       else begin
         send_reply t Command.Ok_reply;
         step_guest t
       end
     | Running | Client_step | Replaying _ ->
       send_reply t (Command.Error 0x02))
  | Command.Reverse_step -> reverse_guest t ~as_step:true
  | Command.Reverse_continue -> reverse_guest t ~as_step:false
  | Command.Halt ->
    (match t.state with
     | Stopped reason -> notify t reason
     | Running | Client_step | Replaying _ ->
       end_replay t;
       let pc = t.target.current_pc () in
       t.target.set_step false;
       stop_with t (Command.Halt_requested pc);
       notify t (Command.Halt_requested pc))
  | Command.Read_console ->
    send_reply t (Command.Memory (t.target.read_console ()))
  | Command.Query_watchdog ->
    send_reply t (Command.Memory (t.target.query_watchdog ()))
  | Command.Query_verify ->
    send_reply t (Command.Memory (t.target.query_verify ()))
  | Command.Query_flight ->
    send_reply t (Command.Memory (t.target.query_flight ()))
  | Command.Restart ->
    (* The monitor reloads the snapshot and calls [note_restart] below
       before returning, so by the time OK goes out the stop state is
       gone and the guest is running from its entry point. *)
    if t.target.restart () then send_reply t Command.Ok_reply
    else send_reply t (Command.Error 0x0F)
  | Command.Read_profile ->
    send_reply t (Command.Memory (t.target.read_profile ()))
  | Command.Query_stop ->
    (match t.state with
     | Stopped reason -> send_reply t (Command.Stopped reason)
     | Running | Client_step | Replaying _ ->
       send_reply t Command.Running)
  | Command.Resync ->
    (* The host is re-establishing a link it declared dead; restart the
       ARQ state on this side too, then confirm over the fresh link. *)
    Reliable.reset (get_endpoint t);
    Reliable.set_sequenced (get_endpoint t) true;
    send_reply t Command.Sync_ok
  | Command.Detach ->
    List.iter
      (fun addr -> t.target.vbp_disarm ~page:addr)
      (Breakpoints.clear t.breakpoints);
    (match t.state with
     | Stopped _ ->
       t.state <- Running;
       t.target.resume ()
     | Replaying _ ->
       end_replay t;
       t.state <- Running
     | Running | Client_step -> ());
    send_reply t Command.Ok_reply

and deliver t payload =
  match Command.command_of_wire payload with
  | Some command -> handle_command t command
  | None -> send_reply t Command.Unsupported

let on_rx_byte t byte = Reliable.on_rx_byte (get_endpoint t) byte

(* Events from the guest side. *)

let on_breakpoint t ~pc =
  match t.state with
  | Replaying { as_step = true } when Breakpoints.mem t.breakpoints ~addr:pc ->
    (* [rs] re-execution: breakpoints along the replayed path are not
       stops.  Grant a one-shot pass (the retried fetch faults again and
       the monitor steps through) — the site never leaves the table. *)
    t.target.vbp_pass ~pc;
    t.target.set_step true
  | Replaying { as_step = false } ->
    (* [rc] re-execution: first breakpoint after the checkpoint wins. *)
    end_replay t;
    t.target.set_step false;
    stop_with t (Command.Break pc);
    notify t (Command.Break pc)
  | _ ->
    end_replay t;
    t.target.set_step false;
    stop_with t (Command.Break pc);
    notify t (Command.Break pc)

let on_step_trap t ~pc =
  match t.state with
  | Client_step ->
    t.target.set_step false;
    stop_with t (Command.Step_done pc);
    notify t (Command.Step_done pc)
  | Replaying _ ->
    (* End of a silent step across a replayed breakpoint: keep
       re-executing toward the retirement target. *)
    t.target.set_step false
  | Running | Stopped _ ->
    (* The guest set its own trap flag; surface it like a breakpoint. *)
    t.target.set_step false;
    stop_with t (Command.Step_done pc);
    notify t (Command.Step_done pc)

(* The CPU landed on the requested retirement boundary: the reverse
   operation is over; report it like a completed step. *)
let on_retire_stop t ~pc =
  t.target.set_step false;
  t.target.set_replay_mute false;
  t.target.set_retire_stop None;
  stop_with t (Command.Step_done pc);
  notify t (Command.Step_done pc)

let on_watchpoint t ~pc ~addr =
  end_replay t;
  t.target.set_step false;
  stop_with t (Command.Watch_hit { pc; addr });
  notify t (Command.Watch_hit { pc; addr })

let on_guest_fault t ~vector ~pc =
  end_replay t;
  t.target.set_step false;
  stop_with t (Command.Faulted { vector; pc });
  notify t (Command.Faulted { vector; pc })

let on_wedge t ~pc =
  end_replay t;
  t.target.set_step false;
  stop_with t (Command.Wedged pc);
  notify t (Command.Wedged pc)

(* Called by the monitor from inside a warm restart: forget any stop
   state; the guest is running again.  Breakpoints need no re-plant: the
   restart cleared the shadow tables and the table-driven NX refill
   re-arms every page lazily. *)
let note_restart t =
  end_replay t;
  t.target.set_step false;
  t.state <- Running

let stopped t =
  match t.state with
  | Stopped _ -> true
  | Running | Client_step | Replaying _ -> false

let replaying t =
  match t.state with
  | Replaying _ -> true
  | Running | Stopped _ | Client_step -> false

let reverse_ops t = t.reverse_ops
let endpoint t = get_endpoint t
let link_stats t = Reliable.stats (get_endpoint t)
let retransmissions t = (link_stats t).Reliable.retransmits
let link_downs t = t.link_downs
let breakpoints t = t.breakpoints
let commands_handled t = t.commands
let notifications_sent t = t.notifications
