(** A second guest appliance: the UDP logger.

    Receives UDP frames on the NIC, verifies each payload's checksum
    against the header field, and appends valid payloads to the first
    SCSI disk — the receive-side counterpart of the paper's transmit
    workload, used by the RX examples and tests.  Like the transmit
    kernel, the same binary runs on bare hardware, under the lightweight
    monitor and under the hosted full VMM. *)

type config = {
  log_to_disk : bool;  (** write valid payloads to SCSI target 0 *)
}

val default_config : config

val entry : int

(** Disk layout of the log: each logged payload occupies this many
    512-byte sectors starting at sector {!log_first_lba}. *)
val log_stride_sectors : int

val log_first_lba : int

val build : config -> Vmm_hw.Asm.program

type counters = {
  rx_frames : int;  (** frames DMA'd from the NIC *)
  rx_valid : int;  (** payload checksum matched the header *)
  rx_invalid : int;
  rx_bytes : int;
  logged : int;  (** payloads written to disk *)
  log_dropped : int;  (** disk was busy; payload not logged *)
}

val read_counters : Vmm_hw.Phys_mem.t -> Vmm_hw.Asm.program -> counters
