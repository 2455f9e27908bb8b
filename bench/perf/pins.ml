(* Simulated outputs of one [stream] job and one [compute] job.  Neither
   workload has random input, so every job of every run must reproduce
   them exactly; a host-time optimisation that moves one of them changed
   the simulation.  A mismatch reports the value measured, which is what
   to write here after a deliberate change to the simulated model. *)

let pinned =
  ref
    [
      ("stream.achieved_mbps", "154.082941");
      ("stream.cpu_load", "0.836346");
      ("stream.instructions", "3960340");
      ("stream.world_switches", "205713");
      ("stream.digest", "757c38319cfda5a4");
      ("compute.registers", "0,30fae6,0,0,4000,30fae6,862b80c5,c2606a4,85fa85df,0,0,0,0,0,8000,0,pc=1040");
      ("compute.instructions", "28889621");
    ]

(* [override "key=value"] replaces one pinned value for this process. *)
let override spec =
  match String.index_opt spec '=' with
  | Some i ->
    let key = String.sub spec 0 i in
    let value = String.sub spec (i + 1) (String.length spec - i - 1) in
    if not (List.mem_assoc key !pinned) then Error ("no pinned value named " ^ key)
    else begin
      pinned := (key, value) :: List.remove_assoc key !pinned;
      Ok ()
    end
  | None -> Error ("expected KEY=VALUE, got " ^ spec)

(* Mismatches between measured values and the pins, as messages. *)
let check measured =
  List.filter_map
    (fun (key, got) ->
      match List.assoc_opt key !pinned with
      | Some want when want = got -> None
      | Some want -> Some (Printf.sprintf "pin %s: expected %s, got %s" key want got)
      | None -> Some ("no pinned value named " ^ key))
    measured
