(** Software-vs-hardware performance estimation.

    For a candidate subgraph of a block DFG, the estimator computes:

    - the software cost: the sum of PowerPC cycle costs of its
      instructions (they execute sequentially on the core);
    - the hardware cost: the combinational critical path through the
      data-path built from database components (ASAP schedule), plus the
      fixed custom-instruction issue overhead, rounded up to CPU cycles.

    The difference, weighted by block execution frequency, is the
    selection metric of the Candidate Search phase. *)

module Ir = Jitise_ir

(** Cycles charged for issuing a custom instruction. *)
let ci_issue_overhead_cycles = 1

(** Operand-transfer model of the Virtex-4 APU interface: two register
    words move to the fabric per cycle, so candidates with more than
    two inputs pay extra transfer cycles instead of being rejected.
    This is how Woolcano supports the ~7-input candidates the paper
    reports despite the narrow processor-fabric interface. *)
let transfer_cycles ~num_inputs = (max 0 (num_inputs - 2) + 1) / 2

type estimate = {
  sw_cycles : int;        (** software execution cost per invocation *)
  hw_cycles : int;        (** hardware cost per invocation, incl. issue
                              and operand transfer *)
  luts : int;             (** data-path area *)
  speedup : float;        (** sw_cycles / hw_cycles *)
}

(** Estimate a candidate given as a set of node indices of [dfg].  Nodes
    not mappable to hardware make the estimate [None] (the caller never
    passes them — MAXMISO only grows over feasible nodes). *)
let estimate (db : Database.t) (dfg : Ir.Dfg.t) (nodes : int list) :
    estimate option =
  let node_set = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace node_set n ()) nodes;
  let exception Infeasible in
  try
    (* Distinct register inputs produced outside the candidate. *)
    let inputs = Hashtbl.create 8 in
    List.iter
      (fun n ->
        List.iter
          (function
            | Ir.Instr.Const _ -> ()
            | Ir.Instr.Reg r -> (
                match Hashtbl.find_opt dfg.Ir.Dfg.by_reg r with
                | Some p when Hashtbl.mem node_set p -> ()
                | _ -> Hashtbl.replace inputs r ()))
          (Ir.Instr.operands dfg.Ir.Dfg.nodes.(n).Ir.Dfg.instr.Ir.Instr.kind))
      nodes;
    let num_inputs = Hashtbl.length inputs in
    let sw = ref 0 in
    let luts = ref 0 in
    (* ASAP arrival times over the sub-DFG, in instruction order (which
       is topological). *)
    let arrival : (int, float) Hashtbl.t = Hashtbl.create 16 in
    let critical = ref 0.0 in
    List.iter
      (fun n ->
        let node = dfg.Ir.Dfg.nodes.(n) in
        let i = node.Ir.Dfg.instr in
        sw := !sw + Ir.Cost.cycles i.Ir.Instr.kind;
        let m =
          match Database.metrics_for_instr db i with
          | Some m -> m
          | None -> raise Infeasible
        in
        luts := !luts + m.Metrics.luts;
        let input_arrival =
          List.fold_left
            (fun acc p ->
              if Hashtbl.mem node_set p then
                max acc (Option.value ~default:0.0 (Hashtbl.find_opt arrival p))
              else acc)
            0.0 node.Ir.Dfg.preds
        in
        let out = input_arrival +. m.Metrics.latency_ns in
        Hashtbl.replace arrival n out;
        if out > !critical then critical := out)
      (List.sort compare nodes);
    let hw_cycles =
      ci_issue_overhead_cycles
      + transfer_cycles ~num_inputs
      + max 1 (int_of_float (ceil (!critical /. (Ir.Cost.cycle_time *. 1e9))))
    in
    Some
      {
        sw_cycles = !sw;
        hw_cycles;
        luts = !luts;
        speedup = float_of_int !sw /. float_of_int hw_cycles;
      }
  with Infeasible -> None
