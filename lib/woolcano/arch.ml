(** The Woolcano reconfigurable ASIP architecture.

    Woolcano [Grad & Plessl, ERSA'09] couples the PowerPC 405 hard core
    of a Xilinx Virtex-4 FX with user-defined instruction (UDI) slots
    implemented in the FPGA fabric and connected through the Auxiliary
    Processor Unit (APU).  Slots are runtime-replaceable via partial
    reconfiguration over the ICAP port.  This module captures the
    architectural constants the simulation depends on.  The core clock
    is {!Jitise_ir.Cost.clock_hz}, and a UDI's register operands are
    capped by {!Jitise_ise.Select.max_inputs}. *)

type t = {
  udi_slots : int;              (** concurrently loadable instructions *)
  slot_lut_capacity : int;      (** area ceiling of one slot *)
  icap_bytes_per_second : float; (** partial-reconfiguration bandwidth *)
  reconfig_setup_seconds : float; (** driver + ICAP setup per load *)
}

(** The platform evaluated in the paper: Virtex-4 FX100, 300 MHz 405
    core, APU-attached UDIs. *)
let default =
  {
    udi_slots = 8;
    slot_lut_capacity = 8_192;
    icap_bytes_per_second = 66.0e6;  (* ICAP at 66 MHz, 8-bit on V4 *)
    reconfig_setup_seconds = 0.002;
  }

(** Seconds to load one partial bitstream into a slot of {!default}. *)
let reconfiguration_seconds (b : Jitise_cad.Bitstream.t) =
  default.reconfig_setup_seconds
  +. float_of_int b.Jitise_cad.Bitstream.size_bytes
     /. default.icap_bytes_per_second
