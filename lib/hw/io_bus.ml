type handler = {
  name : string;
  read : int -> int;
  write : int -> int -> unit;
  base : int;
}

type t = { ports : handler option array }

exception Port_conflict of { port : int; owner : string }

let port_space = 65536

let create () = { ports = Array.make port_space None }

let check_range base count =
  if base < 0 || count <= 0 || base + count > port_space then
    invalid_arg "Io_bus.register: bad range"

let register t ~name ~base ~count ~read ~write =
  check_range base count;
  for p = base to base + count - 1 do
    match t.ports.(p) with
    | Some h -> raise (Port_conflict { port = p; owner = h.name })
    | None -> ()
  done;
  let h = { name; read; write; base } in
  for p = base to base + count - 1 do
    t.ports.(p) <- Some h
  done

let read t port =
  if port < 0 || port >= port_space then 0xFFFFFFFF
  else
    match t.ports.(port) with
    | Some h -> h.read (port - h.base)
    | None -> 0xFFFFFFFF

let write t port v =
  if port >= 0 && port < port_space then
    match t.ports.(port) with
    | Some h -> h.write (port - h.base) v
    | None -> ()

let owner t port =
  if port < 0 || port >= port_space then None
  else
    match t.ports.(port) with
    | Some h -> Some h.name
    | None -> None
