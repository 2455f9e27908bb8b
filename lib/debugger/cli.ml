module Command = Vmm_proto.Command
module Isa = Vmm_hw.Isa

type t = {
  session : Session.t;
  symbols : Symbols.t;
}

let create ~session ~symbols = { session; symbols }

let parse_int token =
  match int_of_string_opt token with
  | Some v when v >= 0 -> Some v
  | Some _ | None -> None

let parse_address t token =
  match Symbols.address t.symbols token with
  | Some addr -> Some addr
  | None ->
    (match String.index_opt token '+' with
     | Some i ->
       let name = String.sub token 0 i
       and off = String.sub token (i + 1) (String.length token - i - 1) in
       (match (Symbols.address t.symbols name, parse_int off) with
        | Some base, Some off -> Some (base + off)
        | _ -> None)
     | None -> parse_int token)

let reg_names =
  [| "r0"; "r1"; "r2"; "r3"; "r4"; "r5"; "r6"; "r7"; "r8"; "r9"; "r10";
     "r11"; "r12"; "r13"; "sp"; "r15"; "pc"; "flags" |]

let dump_registers t =
  match Session.read_registers t.session with
  | None -> "error: no response from target"
  | Some regs ->
    let buf = Buffer.create 256 in
    Array.iteri
      (fun i v ->
        Buffer.add_string buf (Printf.sprintf "%-5s = 0x%08x" reg_names.(i) v);
        if i = 16 then
          Buffer.add_string buf
            (Printf.sprintf "  %s" (Symbols.format_addr t.symbols v));
        Buffer.add_char buf (if (i + 1) mod 3 = 0 then '\n' else ' '))
      regs;
    String.trim (Buffer.contents buf)

let hex_dump ~addr data =
  let buf = Buffer.create 256 in
  String.iteri
    (fun i c ->
      if i mod 16 = 0 then
        Buffer.add_string buf (Printf.sprintf "%s%08x: " (if i = 0 then "" else "\n") (addr + i));
      Buffer.add_string buf (Printf.sprintf "%02x " (Char.code c)))
    data;
  Buffer.contents buf

let stop_to_string t reason =
  match reason with
  | Command.Break addr ->
    Printf.sprintf "breakpoint at %s" (Symbols.format_addr t.symbols addr)
  | Command.Step_done addr ->
    Printf.sprintf "stepped; now at %s" (Symbols.format_addr t.symbols addr)
  | Command.Faulted { vector; pc } ->
    Printf.sprintf "target fault (vector %d) at %s" vector
      (Symbols.format_addr t.symbols pc)
  | Command.Halt_requested addr ->
    Printf.sprintf "halted at %s" (Symbols.format_addr t.symbols addr)
  | Command.Watch_hit { pc; addr } ->
    Printf.sprintf "watchpoint on %s hit at %s"
      (Symbols.format_addr t.symbols addr)
      (Symbols.format_addr t.symbols pc)
  | Command.Wedged addr ->
    Printf.sprintf "watchdog break-in (no guest progress) at %s"
      (Symbols.format_addr t.symbols addr)

let disassemble t ~addr ~count =
  match Session.read_memory t.session ~addr ~len:(count * Isa.width) with
  | None -> "error: cannot read target memory"
  | Some data ->
    let buf = Buffer.create 256 in
    for i = 0 to count - 1 do
      let a = addr + (i * Isa.width) in
      let text =
        try Isa.to_string (Isa.decode ~addr:a (Bytes.of_string data) ~off:(i * Isa.width))
        with Isa.Decode_error _ -> "(bad opcode)"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%-28s %s" (if i = 0 then "" else "\n")
           (Symbols.format_addr t.symbols a) text)
    done;
    Buffer.contents buf

let usage =
  "commands: regs | reg <n> <value> | x <addr> <len> | w <addr> <hex> | \
   disas <addr> <n> | break <addr> | delete <addr> | watch <addr> [len] | \
   unwatch <addr> [len] | continue | step | rs | rc | halt | status | \
   wait | restart | watchdog | verify | console | profile [n] | flight | \
   symbols | help"

let with_addr t token f =
  match parse_address t token with
  | Some addr -> f addr
  | None -> Printf.sprintf "error: cannot resolve address '%s'" token

let execute t line =
  match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
  | [] -> ""
  | [ "help" ] -> usage
  | [ "regs" ] -> dump_registers t
  | [ "reg"; n; v ] ->
    (match (parse_int n, parse_address t v) with
     | Some idx, Some value ->
       if Session.write_register t.session idx value then "ok"
       else "error: write refused"
     | _ -> "error: usage: reg <index> <value>")
  | [ "x"; addr_s; len_s ] ->
    with_addr t addr_s (fun addr ->
        match parse_int len_s with
        | Some len ->
          (match Session.read_memory t.session ~addr ~len with
           | Some data -> hex_dump ~addr data
           | None -> "error: cannot read target memory")
        | None -> "error: bad length")
  | [ "w"; addr_s; hex_s ] ->
    with_addr t addr_s (fun addr ->
        match Vmm_proto.Packet.of_hex hex_s with
        | Some data ->
          if Session.write_memory t.session ~addr ~data then "ok"
          else "error: write refused"
        | None -> "error: bad hex")
  | [ "disas"; addr_s; count_s ] ->
    with_addr t addr_s (fun addr ->
        match parse_int count_s with
        | Some count when count > 0 && count <= 64 -> disassemble t ~addr ~count
        | Some _ | None -> "error: bad count")
  | [ "break"; addr_s ] ->
    with_addr t addr_s (fun addr ->
        if Session.insert_breakpoint t.session addr then
          Printf.sprintf "breakpoint set at %s" (Symbols.format_addr t.symbols addr)
        else "error: cannot set breakpoint")
  | [ "delete"; addr_s ] ->
    with_addr t addr_s (fun addr ->
        if Session.remove_breakpoint t.session addr then "deleted"
        else "error: cannot remove breakpoint")
  | [ "watch"; addr_s ] | [ "watch"; addr_s; _ ] as args ->
    let len =
      match args with
      | [ _; _; len_s ] -> Option.value ~default:4 (parse_int len_s)
      | _ -> 4
    in
    with_addr t addr_s (fun addr ->
        if Session.insert_watchpoint t.session ~addr ~len then
          Printf.sprintf "watchpoint set on %s (%d bytes)"
            (Symbols.format_addr t.symbols addr)
            len
        else "error: cannot set watchpoint")
  | [ "unwatch"; addr_s ] | [ "unwatch"; addr_s; _ ] as args ->
    let len =
      match args with
      | [ _; _; len_s ] -> Option.value ~default:4 (parse_int len_s)
      | _ -> 4
    in
    with_addr t addr_s (fun addr ->
        if Session.remove_watchpoint t.session ~addr ~len then "unwatched"
        else "error: no such watchpoint")
  | [ "continue" ] ->
    Session.continue_ t.session;
    "continuing"
  | [ "step" ] ->
    (match Session.step t.session with
     | Some reason -> stop_to_string t reason
     | None -> "error: no stop report")
  | [ "rs" ] | [ "reverse-step" ] ->
    (match Session.reverse_step t.session with
     | Some reason -> stop_to_string t reason
     | None -> "error: no stop report (no checkpoint?)")
  | [ "rc" ] | [ "reverse-continue" ] ->
    (match Session.reverse_continue t.session with
     | Some reason -> stop_to_string t reason
     | None -> "error: no stop report (no checkpoint?)")
  | [ "halt" ] ->
    (match Session.halt t.session with
     | Some reason -> stop_to_string t reason
     | None -> "error: no stop report")
  | [ "status" ] ->
    (match Session.is_running t.session with
     | Some true -> "target running"
     | Some false ->
       (match Session.query t.session with
        | Some reason -> stop_to_string t reason
        | None -> "target stopped")
     | None -> "error: no response")
  | [ "wait" ] ->
    (match Session.wait_stop t.session with
     | Some reason -> stop_to_string t reason
     | None -> "error: timeout waiting for stop")
  | [ "profile" ] | [ "profile"; _ ] as args ->
    let top =
      match args with
      | [ _; n ] -> Option.value ~default:10 (parse_int n)
      | _ -> 10
    in
    (match Session.read_profile_dump t.session with
     | None -> "error: no response"
     | Some (_, _, []) -> "(no samples yet -- arm the profiler)"
     | Some (_, header, buckets) ->
       let total = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
       let pct c = 100.0 *. float_of_int c /. float_of_int total in
       let buf = Buffer.create 512 in
       (* period=0: the profiler has been disarmed since sampling *)
       (match List.assoc_opt "period" header with
        | Some "0" | None ->
          Buffer.add_string buf
            (Printf.sprintf "%d samples (continuous pc sampling, disarmed)" total)
        | Some p ->
          Buffer.add_string buf
            (Printf.sprintf
               "%d samples (continuous pc sampling, every %s cycles)" total p));
       List.iteri
         (fun i (key, count) ->
           if i < top then
             Buffer.add_string buf
               (Printf.sprintf "\n%6.1f%% %6d  ring%d %-10s %s" (pct count)
                  count key.Vmm_profile.Profiler.k_ring
                  key.Vmm_profile.Profiler.k_cat
                  (Symbols.format_addr t.symbols
                     key.Vmm_profile.Profiler.k_pc)))
         buckets;
       (* per-ring / per-category splits, summed over all buckets *)
       let split name key_of =
         let totals = Hashtbl.create 8 in
         List.iter
           (fun (key, count) ->
             let k = key_of key in
             Hashtbl.replace totals k
               (count + Option.value ~default:0 (Hashtbl.find_opt totals k)))
           buckets;
         let entries =
           Hashtbl.fold (fun k c acc -> (k, c) :: acc) totals []
           |> List.sort compare
         in
         Buffer.add_string buf (Printf.sprintf "\nby %s:" name);
         List.iter
           (fun (k, c) ->
             Buffer.add_string buf
               (Printf.sprintf " %s=%d (%.1f%%)" k c (pct c)))
           entries
       in
       split "ring" (fun k ->
           Printf.sprintf "ring%d" k.Vmm_profile.Profiler.k_ring);
       split "category" (fun k -> k.Vmm_profile.Profiler.k_cat);
       Buffer.contents buf)
  | [ "restart" ] ->
    (match Session.restart t.session with
     | Session.Restarted -> "guest restarted from boot snapshot"
     | Session.Refused -> "error: target has no boot snapshot"
     | Session.No_answer -> "error: no response")
  | [ "watchdog" ] ->
    (match Session.query_watchdog t.session with
     | Some (text, _) -> text
     | None -> "error: no response")
  | [ "verify" ] ->
    (match Session.query_verify t.session with
     | Some (text, _) -> text
     | None -> "error: no response")
  | [ "flight" ] ->
    (* The crash bundle when the target crashed/wedged, else the live
       flight ring; both are self-describing text. *)
    (match Session.query_flight t.session with
     | Some text -> text
     | None -> "error: no response")
  | [ "console" ] ->
    (match Session.read_console t.session with
     | Some "" -> "(console empty)"
     | Some text -> text
     | None -> "error: no response")
  | [ "symbols" ] ->
    String.concat "\n"
      (List.map
         (fun (name, addr) -> Printf.sprintf "%08x %s" addr name)
         (Symbols.all t.symbols))
  | _ -> usage
