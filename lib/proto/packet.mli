(** Wire framing for the remote-debug link (GDB remote-serial-protocol
    style).

    A packet is [$<payload>#<checksum>] where the checksum is the two-digit
    lowercase hex of the payload byte sum modulo 256.  The bytes ['$'],
    ['#'] and ['}'] are escaped inside the payload as ['}' (byte ^ 0x20)].
    The receiver answers each packet with ['+'] (good checksum) or ['-']
    (retransmit request). *)

(** {2 Framing} *)

(** [frame payload] is the complete escaped packet text. *)
val frame : string -> string

val ack : char
val nak : char

(** {2 Incremental decoding} *)

type decoder

val decoder : unit -> decoder

type event =
  | Packet of string  (** a well-formed packet's unescaped payload *)
  | Bad_checksum  (** a complete packet that failed verification *)
  | Ack
  | Nak

(** [feed d byte] consumes one wire byte; returns an event when one
    completes.  Noise between packets is discarded. *)
val feed : decoder -> int -> event option

(** [feed_string d s] convenience: feed every byte, collect events. *)
val feed_string : decoder -> string -> event list

(** [reset d] abandons any partial frame and returns to idle. *)
val reset : decoder -> unit

(** {2 Hex helpers} *)

(** [to_hex s] — lowercase hex, two digits per byte. *)
val to_hex : string -> string

(** [of_hex s] — inverse of [to_hex]; [None] on odd length or bad digit. *)
val of_hex : string -> string option

(** [hex_of_int v ~width] — fixed-width lowercase hex of a non-negative
    int. *)
val hex_of_int : int -> width:int -> string

(** [int_of_hex s] — [None] on empty or invalid input. *)
val int_of_hex : string -> int option
