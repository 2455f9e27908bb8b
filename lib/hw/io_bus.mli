(** Port-mapped I/O bus.

    Devices claim contiguous port ranges; the CPU's IN/OUT instructions (and
    the monitor, directly) dispatch through here.  Ports carry 32-bit values
    in this machine.  Reads from unclaimed ports float high (0xFFFFFFFF);
    writes to unclaimed ports are dropped — like a real ISA bus. *)

type t

exception Port_conflict of { port : int; owner : string }

val port_space : int

val create : unit -> t

(** [register t ~name ~base ~count ~read ~write] claims ports
    [base, base+count).  Handlers receive the offset from [base].
    @raise Port_conflict when any port is already claimed. *)
val register :
  t ->
  name:string ->
  base:int ->
  count:int ->
  read:(int -> int) ->
  write:(int -> int -> unit) ->
  unit

(** [read t port] dispatches a port read. *)
val read : t -> int -> int

(** [write t port v] dispatches a port write. *)
val write : t -> int -> int -> unit

(** [owner t port] is the claiming device's name, if any. *)
val owner : t -> int -> string option
