(** Candidate selection: estimate every identified candidate with the
    PivPav database and keep the profitable ones.

    A candidate is worth implementing when its hardware form is faster
    than its software form and the enclosing block actually executes.
    Selected candidates are ranked by total saved cycles (per-invocation
    saving x block frequency), the metric the break-even analysis
    consumes. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module Pp = Jitise_pivpav

type scored = {
  candidate : Candidate.t;
  estimate : Pp.Estimator.estimate;
  saved_cycles : float;
      (** profiled executions of the home block x (sw - hw) *)
}

(** Register inputs a CI can take.  Woolcano moves operands over the
    APU two words per cycle, so the limit is high; MAXMISO still finds
    wider candidates, and those stay in software. *)
let max_inputs = 16

(** DFG of a candidate's home block (the candidate stores node indices
    into exactly this graph). *)
let dfg_of (m : Ir.Irmod.t) (c : Candidate.t) =
  match Ir.Irmod.find_func m c.Candidate.func with
  | None ->
      invalid_arg
        (Printf.sprintf "Select.dfg_of: unknown function %S (candidate %s)"
           c.Candidate.func c.Candidate.signature)
  | Some f -> Ir.Dfg.of_block f (Ir.Func.block f c.Candidate.block)

(** Score and filter candidates: every profitable candidate is kept,
    best first. *)
let select (db : Pp.Database.t) (m : Ir.Irmod.t) (profile : Vm.Profile.t)
    (candidates : Candidate.t list) : scored list =
  let scored =
    List.filter_map
      (fun c ->
        if c.Candidate.num_inputs > max_inputs then None
        else
          let dfg = dfg_of m c in
          match Pp.Estimator.estimate db dfg c.Candidate.nodes with
          | None -> None
          | Some est ->
              let frequency =
                Vm.Profile.count profile ~func:c.Candidate.func
                  ~label:c.Candidate.block
              in
              let per_exec =
                est.Pp.Estimator.sw_cycles - est.Pp.Estimator.hw_cycles
              in
              (* Candidates whose hardware form is estimated no slower
                 are kept even at zero gain — the paper implements them
                 too (its scientific rows pay hours of CAD time for
                 ~1.0x ratios), and the break-even analysis depends on
                 that behaviour. *)
              if per_exec < 0 || frequency = 0L then None
              else
                Some
                  {
                    candidate = c;
                    estimate = est;
                    saved_cycles =
                      Int64.to_float frequency *. float_of_int per_exec;
                  })
      candidates
  in
  List.sort (fun a b -> compare b.saved_cycles a.saved_cycles) scored
