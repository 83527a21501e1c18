(** Per-component hardware metrics.

    The paper's PivPav tool [Grad & Plessl, ERSA'10] keeps a database of
    pre-synthesized IP cores with "more than 90 different metrics" per
    core, measured on the Virtex-4 target.  We model only the metrics
    the JIT-ISE flow consumes: the critical path the estimator
    schedules, the area that sizes a data path, and the port shape of a
    core's netlist. *)

type t = {
  latency_ns : float;  (** combinational critical path through the core *)
  (* Area *)
  luts : int;
  flip_flops : int;
  dsp48 : int;
  (* Interface *)
  output_width_bits : int;
  num_inputs : int;
}
