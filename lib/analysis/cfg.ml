(* Pass 1 of the guest-image verifier: decode the assembled image with
   {!Vmm_hw.Isa} and recover a control-flow graph over every instruction
   reachable from the registered roots.  Direct jump/branch/call targets
   are followed; [Jr] (indirect) is summarized conservatively with no
   successors, and [Iret] successors are discovered later by the abstract
   interpreter when the frame on the abstract stack is constant.

   The graph is growable: the verifier registers new roots as it
   discovers interrupt gates and iret targets, and exploration resumes
   from there. *)

module Isa = Vmm_hw.Isa

(* The flow classification lives with the decoder (Isa.flow) so the CPU's
   block translator and this verifier can never disagree about what
   terminates a basic block; re-export it under the historical name. *)
type flow = Isa.flow =
  | Fallthrough
  | Jump of int
  | Branch of int
  | Call_to of int
  | Indirect
  | Return
  | Int_return
  | Terminal

let flow_of = Isa.flow_of

(* Diagnostic class (e) raw material: malformed control flow found while
   building the graph. *)
type issue =
  | Bad_target of { at : int; target : int }
  | Fall_off of { at : int }
  | Undecodable of { at : int; opcode : int }

type block = { start : int; finish : int; block_succs : int list }

type t = {
  origin : int;
  limit : int;  (* origin + image length *)
  image : bytes;
  insns : (int, Isa.instr) Hashtbl.t;
  succs : (int, int list) Hashtbl.t;
  mutable roots : int list;
  jump_targets : (int, unit) Hashtbl.t;
  mutable calls : (int * int) list;
  mutable issues : issue list;
  issue_seen : (issue, unit) Hashtbl.t;
  mutable text_cache : int array option;
}

let create ~origin image =
  {
    origin;
    limit = origin + Bytes.length image;
    image;
    insns = Hashtbl.create 256;
    succs = Hashtbl.create 256;
    roots = [];
    jump_targets = Hashtbl.create 64;
    calls = [];
    issues = [];
    issue_seen = Hashtbl.create 16;
    text_cache = None;
  }

let issue t i =
  if not (Hashtbl.mem t.issue_seen i) then begin
    Hashtbl.add t.issue_seen i ();
    t.issues <- i :: t.issues
  end

(* A decodable instruction slot: in the image and 8-byte aligned relative
   to the origin. *)
let valid_slot t a =
  a >= t.origin && a + Isa.width <= t.limit && (a - t.origin) mod Isa.width = 0

let explore t start =
  let pending = Queue.create () in
  let push a = if not (Hashtbl.mem t.insns a) then Queue.add a pending in
  push start;
  while not (Queue.is_empty pending) do
    let a = Queue.pop pending in
    if not (Hashtbl.mem t.insns a) then begin
      match Isa.decode ~addr:a t.image ~off:(a - t.origin) with
      | exception Isa.Decode_error { addr; opcode } ->
        issue t (Undecodable { at = addr; opcode });
        t.text_cache <- None
      | i ->
        Hashtbl.replace t.insns a i;
        t.text_cache <- None;
        let out = ref [] in
        let edge_to target =
          if valid_slot t target then begin
            Hashtbl.replace t.jump_targets target ();
            out := target :: !out;
            push target
          end
          else issue t (Bad_target { at = a; target })
        in
        let fall () =
          let next = a + Isa.width in
          if next + Isa.width <= t.limit then begin
            out := next :: !out;
            push next
          end
          else issue t (Fall_off { at = a })
        in
        (match flow_of i with
        | Fallthrough -> fall ()
        | Jump target -> edge_to target
        | Branch target ->
          edge_to target;
          fall ()
        | Call_to target ->
          t.calls <- (a, target) :: t.calls;
          edge_to target;
          fall ()
        | Indirect | Return | Int_return | Terminal -> ());
        Hashtbl.replace t.succs a (List.rev !out)
    end
  done

let add_root t a =
  if valid_slot t a then begin
    if not (List.mem a t.roots) then t.roots <- a :: t.roots;
    explore t a
  end
  else issue t (Bad_target { at = a; target = a })

let instr_at t a = Hashtbl.find_opt t.insns a
let successors t a = match Hashtbl.find_opt t.succs a with Some l -> l | None -> []
let instruction_count t = Hashtbl.length t.insns
let issues t = List.rev t.issues
let calls t = t.calls
let roots t = t.roots

let text t =
  match t.text_cache with
  | Some a -> a
  | None ->
    let a = Array.of_seq (Hashtbl.to_seq_keys t.insns) in
    Array.sort compare a;
    t.text_cache <- Some a;
    a

(* Does the byte range [lo, hi] overlap any reachable instruction's
   8-byte encoding?  (Class (d) raw material.) *)
let overlaps_text t ~lo ~hi =
  let a = text t in
  let n = Array.length a in
  (* first instruction address >= lo - 7 *)
  let lo' = lo - (Isa.width - 1) in
  let rec search l r = if l >= r then l else
      let m = (l + r) / 2 in
      if a.(m) < lo' then search (m + 1) r else search l m
  in
  let i = search 0 n in
  i < n && a.(i) <= hi

let blocks t =
  let txt = text t in
  let n = Array.length txt in
  if n = 0 then []
  else begin
    let leader = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace leader r ()) t.roots;
    Hashtbl.iter (fun a () -> Hashtbl.replace leader a ()) t.jump_targets;
    Array.iter
      (fun a ->
        match instr_at t a with
        | Some i when flow_of i <> Fallthrough ->
          Hashtbl.replace leader (a + Isa.width) ()
        | _ -> ())
      txt;
    let out = ref [] in
    let start = ref txt.(0) in
    let flush finish =
      out := { start = !start; finish; block_succs = successors t finish } :: !out
    in
    for i = 0 to n - 1 do
      let a = txt.(i) in
      if a <> !start && Hashtbl.mem leader a then begin
        flush (a - Isa.width);
        start := a
      end;
      let ends =
        (match instr_at t a with
        | Some ins -> flow_of ins <> Fallthrough
        | None -> true)
        || i + 1 >= n
        || txt.(i + 1) <> a + Isa.width
      in
      if ends then begin
        flush a;
        if i + 1 < n then start := txt.(i + 1)
      end
    done;
    List.rev !out
  end
