(** Per-component hardware metrics.

    The paper's PivPav tool [Grad & Plessl, ERSA'10] keeps a database of
    pre-synthesized IP cores with "more than 90 different metrics" per
    core, measured on the Virtex-4 target.  We model the metrics that
    the JIT-ISE flow actually consumes (timing, area, power, pipeline
    shape) as typed fields, and carry the remaining synthesis-report
    counters in [extra] so a database entry round-trips a realistic
    report. *)

type t = {
  (* Timing *)
  latency_ns : float;      (** combinational critical path through the core *)
  fmax_mhz : float;        (** maximum clock when registered *)
  pipeline_depth : int;    (** register stages in the pipelined variant *)
  (* Area *)
  luts : int;
  flip_flops : int;
  slices : int;
  dsp48 : int;
  bram : int;
  (* Power *)
  static_power_mw : float;
  dynamic_power_mw_per_mhz : float;
  (* Interface *)
  input_width_bits : int;
  output_width_bits : int;
  num_inputs : int;
  (* Synthesis-report counters (IO buffers, nets, fanout, ...) *)
  extra : (string * float) list;
}
