let page_size = Vmm_hw.Mmu.page_size

type t = { mutable ranges : (int * int) list }

let create () = { ranges = [] }

let add t ~addr ~len =
  if len <= 0 then invalid_arg "Watchpoints.add: len <= 0";
  if List.mem (addr, len) t.ranges then false
  else begin
    t.ranges <- (addr, len) :: t.ranges;
    true
  end

let remove t ~addr ~len =
  if List.mem (addr, len) t.ranges then begin
    t.ranges <- List.filter (( <> ) (addr, len)) t.ranges;
    true
  end
  else false

let hit t vaddr =
  List.find_opt (fun (addr, len) -> vaddr >= addr && vaddr < addr + len) t.ranges

let pages_of ~addr ~len =
  let first = addr land lnot (page_size - 1) in
  let last = (addr + len - 1) land lnot (page_size - 1) in
  let rec collect page acc =
    if page > last then List.rev acc else collect (page + page_size) (page :: acc)
  in
  collect first []

let page_watched t page_base =
  List.exists
    (fun (addr, len) -> List.mem page_base (pages_of ~addr ~len))
    t.ranges

let count t = List.length t.ranges
