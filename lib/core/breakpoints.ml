type t = {
  table : (int, unit) Hashtbl.t;
  pages : (int, int) Hashtbl.t; (* page base -> armed-site count *)
  observe : (int, unit) Hashtbl.t;
      (* observe-only sites (race witnesses): they keep their page NX but
         never stop the guest — an exec fault there is noted and stepped
         through transparently *)
}

let page_mask = lnot (Vmm_hw.Mmu.page_size - 1)
let page_of addr = addr land page_mask

let create () =
  { table = Hashtbl.create 16; pages = Hashtbl.create 8; observe = Hashtbl.create 8 }

let page_incr t page =
  Hashtbl.replace t.pages page
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.pages page))

let page_decr t page =
  match Hashtbl.find_opt t.pages page with
  | Some 1 -> Hashtbl.remove t.pages page
  | Some n -> Hashtbl.replace t.pages page (n - 1)
  | None -> ()

(* The stub's sites and the observe sites are two address sets sharing
   the per-page refcounts. *)
let set_add t set addr =
  if Hashtbl.mem set addr then false
  else begin
    Hashtbl.add set addr ();
    page_incr t (page_of addr);
    true
  end

let set_remove t set addr =
  if Hashtbl.mem set addr then begin
    Hashtbl.remove set addr;
    page_decr t (page_of addr);
    true
  end
  else false

let sorted_keys set =
  List.sort compare (Hashtbl.fold (fun addr () acc -> addr :: acc) set [])

let add t ~addr = set_add t t.table addr
let remove t ~addr = set_remove t t.table addr
let mem t ~addr = Hashtbl.mem t.table addr
let count t = Hashtbl.length t.table

let page_armed t ~page =
  Hashtbl.length t.pages > 0 && Hashtbl.mem t.pages (page_of page)

let armed_pages t =
  List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) t.pages [])

let addresses t = sorted_keys t.table
let add_observe t ~addr = set_add t t.observe addr
let remove_observe t ~addr = set_remove t t.observe addr
let observe_mem t ~addr = Hashtbl.mem t.observe addr
let observed t = sorted_keys t.observe

(* Detach clears only the stub's breakpoints: observe sites belong to the
   monitor's race-witness machinery and keep their page refcounts. *)
let clear t =
  let addrs = addresses t in
  List.iter (fun addr -> page_decr t (page_of addr)) addrs;
  Hashtbl.reset t.table;
  addrs
