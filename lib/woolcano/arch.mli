(** The Woolcano reconfigurable ASIP architecture.

    Architectural constants of the platform the paper evaluates: a
    Xilinx Virtex-4 FX with the PowerPC 405 hard core, user-defined
    instruction (UDI) slots in the fabric attached through the APU, and
    partial reconfiguration over the ICAP port.  The core clock is
    {!Jitise_ir.Cost.clock_hz}, and a UDI's register operands are
    capped by {!Jitise_ise.Select.max_inputs}. *)

type t = {
  udi_slots : int;  (** concurrently loadable instructions *)
  slot_lut_capacity : int;  (** area ceiling of one slot *)
  icap_bytes_per_second : float;  (** partial-reconfiguration bandwidth *)
  reconfig_setup_seconds : float;  (** driver + ICAP setup per load *)
}

val default : t
(** Virtex-4 FX100, 300 MHz 405 core, APU-attached UDIs. *)

val reconfiguration_seconds : Jitise_cad.Bitstream.t -> float
(** Seconds to load one partial bitstream into a slot of {!default}:
    setup plus size over ICAP bandwidth. *)
