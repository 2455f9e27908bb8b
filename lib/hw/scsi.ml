module Engine = Vmm_sim.Engine

let sector_size = 512

type target_state = {
  mutable busy : bool;
  mutable done_ : bool;
  sectors : (int, Bytes.t) Hashtbl.t; (* sector index -> sector_size block *)
  mutable staging : Bytes.t; (* reusable write-command latch buffer *)
}

(* An in-flight command, materialized so checkpoints can capture it and
   re-arm it after a restore (the completion event alone is a closure and
   cannot round-trip). *)
type op = {
  op_target : int;
  op_cmd : int; (* 1 = read, 2 = write *)
  op_lba : int;
  op_count : int;
  op_dma : int;
  op_done_at : int64;
}

type t = {
  engine : Engine.t;
  costs : Costs.t;
  mem : Phys_mem.t;
  target_states : target_state array;
  mutable inflight : op list; (* submission order *)
  mutable sel_target : int;
  mutable sel_lba : int;
  mutable sel_count : int;
  mutable sel_dma : int;
  mutable error : bool;
  mutable irq : unit -> unit;
  mutable reads_completed : int;
  mutable bytes_read : int64;
  mutable inject_read_errors : int;
      (* fault injection: the next N reads fail at the medium *)
  mutable read_errors : int;
  mutable writes_completed : int;
  mutable dma_limit : int; (* DMA may touch [0, dma_limit) only *)
  mutable tracer : Vmm_obs.Tracer.t option;
  mutable epoch : int;
      (* bumped by [restore]; in-flight completion events compare their
         captured epoch and become no-ops after a restore *)
}

let create ~engine ~costs ~mem ~targets () =
  if targets < 1 || targets > 8 then invalid_arg "Scsi.create: targets";
  {
    engine;
    costs;
    mem;
    target_states =
      Array.init targets (fun _ ->
          {
            busy = false;
            done_ = false;
            sectors = Hashtbl.create 64;
            staging = Bytes.create 0;
          });
    inflight = [];
    sel_target = 0;
    sel_lba = 0;
    sel_count = 0;
    sel_dma = 0;
    error = false;
    irq = (fun () -> ());
    reads_completed = 0;
    bytes_read = 0L;
    inject_read_errors = 0;
    read_errors = 0;
    writes_completed = 0;
    dma_limit = Phys_mem.size mem;
    tracer = None;
    epoch = 0;
  }

let targets t = Array.length t.target_states

let set_irq t f = t.irq <- f
let set_tracer t tracer = t.tracer <- Some tracer
let set_dma_limit t limit = t.dma_limit <- limit

let pattern_byte ~target ~offset = (offset + (7 * target) + 13) mod 251

(* The pattern has period 251, so any run of up to a sector is a contiguous
   slice of this table: byte [offset] of target [tg] is
   [pattern_table.((offset + 7*tg + 13) mod 251 + k)] for consecutive [k].
   That turns synthetic-medium reads into blits instead of per-byte math. *)
let pattern_table =
  Bytes.init (251 + sector_size) (fun j -> Char.chr (j mod 251))

let pattern_start ~target ~offset = (offset + (7 * target) + 13) mod 251

(* Backing block for one sector, created on first write and pre-filled with
   the synthetic pattern so partially written sectors read back exactly as
   the per-byte store did. *)
let sector_block ~target ts sector =
  match Hashtbl.find_opt ts.sectors sector with
  | Some b -> b
  | None ->
    let j0 = pattern_start ~target ~offset:(sector * sector_size) in
    let b = Bytes.sub pattern_table j0 sector_size in
    Hashtbl.add ts.sectors sector b;
    b

let transfer_cycles t bytes =
  let seconds =
    float_of_int (8 * bytes) /. (t.costs.Costs.disk_rate_mbps *. 1e6)
  in
  Int64.add
    (Int64.of_int t.costs.Costs.disk_setup_cycles)
    (Costs.cycles_of_seconds t.costs seconds)

let complete_read t target lba count dma =
  let ts = t.target_states.(target) in
  if t.inject_read_errors > 0 then begin
    (* A medium error: the command completes (so the driver's wait ends)
       but no data is transferred and the error flag is raised. *)
    t.inject_read_errors <- t.inject_read_errors - 1;
    t.read_errors <- t.read_errors + 1;
    ts.busy <- false;
    ts.done_ <- true;
    t.error <- true;
    t.irq ()
  end
  else begin
  let base = lba * sector_size in
  let pos = ref 0 in
  while !pos < count do
    let off = base + !pos in
    let sector = off / sector_size in
    let s_off = off land (sector_size - 1) in
    let chunk = Int.min (count - !pos) (sector_size - s_off) in
    (match Hashtbl.find_opt ts.sectors sector with
     | Some b -> Phys_mem.write_bytes t.mem ~addr:(dma + !pos) b ~off:s_off ~len:chunk
     | None ->
       let j0 = pattern_start ~target ~offset:off in
       Phys_mem.write_bytes t.mem ~addr:(dma + !pos) pattern_table ~off:j0
         ~len:chunk);
    pos := !pos + chunk
  done;
  ts.busy <- false;
  ts.done_ <- true;
  t.reads_completed <- t.reads_completed + 1;
  t.bytes_read <- Int64.add t.bytes_read (Int64.of_int count);
  t.irq ()
  end

(* Write data is latched when the command is issued (the controller DMAs
   it out immediately); completion only signals that the medium has it.
   This keeps a single staging buffer in the guest race-free. *)
let complete_write t target lba count =
  let ts = t.target_states.(target) in
  let base = lba * sector_size in
  let pos = ref 0 in
  while !pos < count do
    let off = base + !pos in
    let sector = off / sector_size in
    let s_off = off land (sector_size - 1) in
    let chunk = Int.min (count - !pos) (sector_size - s_off) in
    Bytes.blit ts.staging !pos (sector_block ~target ts sector) s_off chunk;
    pos := !pos + chunk
  done;
  ts.busy <- false;
  ts.done_ <- true;
  t.writes_completed <- t.writes_completed + 1;
  t.irq ()

let complete_op t op =
  match op.op_cmd with
  | 1 -> complete_read t op.op_target op.op_lba op.op_count op.op_dma
  | _ -> complete_write t op.op_target op.op_lba op.op_count

(* Schedule an op's completion.  The descriptor lives in [inflight] until
   the event fires, so checkpoints see exactly what is on the wire; the
   event itself is epoch-guarded so a restore abandons it. *)
let arm_op t op ~delay =
  t.inflight <- t.inflight @ [ op ];
  let epoch = t.epoch in
  ignore
    (Engine.after t.engine ~delay (fun () ->
         if t.epoch = epoch then begin
           t.inflight <- List.filter (fun o -> o != op) t.inflight;
           complete_op t op
         end))

let start_command t cmd =
  let target = t.sel_target in
  if target < 0 || target >= targets t then t.error <- true
  else begin
    let ts = t.target_states.(target) in
    let count = t.sel_count and dma = t.sel_dma in
    (* A transfer that would leave the DMA window is refused before it
       starts: nothing moves and no staging buffer is sized from the
       guest's count. *)
    if ts.busy || count <= 0 || dma < 0 || count > t.dma_limit - dma then
      t.error <- true
    else begin
      let lba = t.sel_lba in
      ts.busy <- true;
      if cmd <> 1 then begin
        (* Latch outgoing data into the target's staging buffer now; the
           [busy] guard keeps it exclusive until completion. *)
        if Bytes.length ts.staging < count then ts.staging <- Bytes.create count;
        Phys_mem.blit_to_bytes t.mem ~addr:dma ts.staging ~off:0 ~len:count
      end;
      let delay = transfer_cycles t count in
      (match t.tracer with
       | Some tracer ->
         let start = Engine.now t.engine in
         Vmm_obs.Tracer.add_complete tracer ~cat:"dma"
           ~name:(if cmd = 1 then "scsi_read" else "scsi_write")
           ~start ~stop:(Int64.add start delay) ()
       | None -> ());
      arm_op t
        {
          op_target = target;
          op_cmd = cmd;
          op_lba = lba;
          op_count = count;
          op_dma = dma;
          op_done_at = Int64.add (Engine.now t.engine) delay;
        }
        ~delay
    end
  end

let status t =
  let acc = ref (if t.error then 1 lsl 31 else 0) in
  Array.iteri
    (fun i ts ->
      if ts.done_ then acc := !acc lor (1 lsl i);
      if ts.busy then acc := !acc lor (1 lsl (16 + i)))
    t.target_states;
  !acc

let io_read t offset =
  match offset with
  | 5 -> status t
  | 0 -> t.sel_target
  | 1 -> t.sel_lba
  | 2 -> t.sel_count
  | 3 -> t.sel_dma
  | _ -> 0xFFFFFFFF

let io_write t offset v =
  match offset with
  | 0 -> t.sel_target <- v
  | 1 -> t.sel_lba <- v
  | 2 -> t.sel_count <- v
  | 3 -> t.sel_dma <- v
  | 4 ->
    (match v land 3 with
     | 1 | 2 -> start_command t (v land 3)
     | _ -> t.error <- true)
  | 6 ->
    if v >= 0 && v < targets t then begin
      t.target_states.(v).done_ <- false;
      t.error <- false
    end
  | _ -> ()

let attach t bus ~base =
  Io_bus.register bus ~name:"scsi" ~base ~count:7 ~read:(io_read t)
    ~write:(io_write t)

let reads_completed t = t.reads_completed
let bytes_read t = t.bytes_read
let writes_completed t = t.writes_completed

let busy_targets t =
  Array.fold_left (fun acc ts -> if ts.busy then acc + 1 else acc) 0
    t.target_states

(* Checkpoint support.  In-flight completion times are captured relative
   (cycles until completion) so a restore at a later absolute time
   re-arms with the same offsets; sector tables are deep-copied and
   sorted so two captures of the same state serialize identically. *)
type op_state = {
  os_target : int;
  os_cmd : int;
  os_lba : int;
  os_count : int;
  os_dma : int;
  os_remaining : int64;
}

type tgt_state = {
  ts_busy : bool;
  ts_done : bool;
  ts_sectors : (int * Bytes.t) list;
  ts_staging : Bytes.t;
}

type state = {
  s_targets : tgt_state array;
  s_sel_target : int;
  s_sel_lba : int;
  s_sel_count : int;
  s_sel_dma : int;
  s_error : bool;
  s_inflight : op_state list;
}

let capture t =
  let now = Engine.now t.engine in
  {
    s_targets =
      Array.map
        (fun ts ->
          {
            ts_busy = ts.busy;
            ts_done = ts.done_;
            ts_sectors =
              Hashtbl.fold (fun k v acc -> (k, Bytes.copy v) :: acc) ts.sectors []
              |> List.sort (fun (a, _) (b, _) -> compare a b);
            ts_staging = Bytes.copy ts.staging;
          })
        t.target_states;
    s_sel_target = t.sel_target;
    s_sel_lba = t.sel_lba;
    s_sel_count = t.sel_count;
    s_sel_dma = t.sel_dma;
    s_error = t.error;
    s_inflight =
      List.map
        (fun op ->
          let d = Int64.sub op.op_done_at now in
          {
            os_target = op.op_target;
            os_cmd = op.op_cmd;
            os_lba = op.op_lba;
            os_count = op.op_count;
            os_dma = op.op_dma;
            os_remaining = (if Int64.compare d 0L < 0 then 0L else d);
          })
        t.inflight;
  }

let restore t s =
  if Array.length s.s_targets <> targets t then
    invalid_arg "Scsi.restore: target count mismatch";
  t.epoch <- t.epoch + 1;
  t.inflight <- [];
  Array.iteri
    (fun i ts ->
      let st = s.s_targets.(i) in
      ts.busy <- st.ts_busy;
      ts.done_ <- st.ts_done;
      Hashtbl.reset ts.sectors;
      List.iter (fun (k, v) -> Hashtbl.replace ts.sectors k (Bytes.copy v))
        st.ts_sectors;
      ts.staging <- Bytes.copy st.ts_staging)
    t.target_states;
  t.sel_target <- s.s_sel_target;
  t.sel_lba <- s.s_sel_lba;
  t.sel_count <- s.s_sel_count;
  t.sel_dma <- s.s_sel_dma;
  t.error <- s.s_error;
  List.iter
    (fun os ->
      arm_op t
        {
          op_target = os.os_target;
          op_cmd = os.os_cmd;
          op_lba = os.os_lba;
          op_count = os.os_count;
          op_dma = os.os_dma;
          op_done_at = Int64.add (Engine.now t.engine) os.os_remaining;
        }
        ~delay:os.os_remaining)
    s.s_inflight

(* Fault injection: fail the next [n] reads at the medium. *)
let inject_read_errors t n =
  if n < 0 then invalid_arg "Scsi.inject_read_errors: negative";
  t.inject_read_errors <- t.inject_read_errors + n

let read_errors t = t.read_errors
