(** Exact single-output convex-cut enumeration — the exponential
    state-of-the-art baseline.

    This is the Atasu/Pozzi-style exact search the paper contrasts
    MAXMISO against: enumerate every convex, hardware-feasible subgraph
    with at most [max_inputs] register inputs and one output, keeping
    the best by estimated hardware speedup.  Worst-case exponential in
    the block size, which is exactly why it is unusable for
    just-in-time customization, and why [step_budget] and [max_nodes]
    cap the search. *)

module Ir = Jitise_ir

type config = {
  max_inputs : int;
      (** register inputs per cut; 4 by default, the port-limited core
          the exact baseline is usually run against (Woolcano's APU
          takes up to {!Select.max_inputs}) *)
  max_nodes : int;    (** give up on blocks larger than this *)
  step_budget : int;  (** hard cap on explored subsets *)
}

let default_config = { max_inputs = 4; max_nodes = 24; step_budget = 2_000_000 }

type result = {
  best : Candidate.t option;
  explored : int;     (** number of subsets visited *)
  exhausted : bool;   (** search ended by budget, not completion *)
}

(* Enumerate by deciding include/exclude for feasible nodes in reverse
   topological order, growing connected sets downward from each seed. *)
let of_block ?(config = default_config) (db : Jitise_pivpav.Database.t)
    (dfg : Ir.Dfg.t) ~func : result =
  let n = Ir.Dfg.node_count dfg in
  let feasible = Array.init n (fun i -> Ir.Dfg.feasible dfg.Ir.Dfg.nodes.(i)) in
  let nfeasible = Array.fold_left (fun a b -> if b then a + 1 else a) 0 feasible in
  if nfeasible = 0 || nfeasible > config.max_nodes then
    { best = None; explored = 0; exhausted = nfeasible > config.max_nodes }
  else begin
    let explored = ref 0 in
    let exhausted = ref false in
    let best = ref None in
    let best_gain = ref 0.0 in
    let consider nodes =
      incr explored;
      if !explored >= config.step_budget then exhausted := true;
      if Candidate.is_convex dfg nodes then begin
        match Candidate.output_nodes dfg nodes with
        | [ _ ] when List.length (Candidate.external_input_regs dfg nodes)
                     <= config.max_inputs -> (
            match Jitise_pivpav.Estimator.estimate db dfg nodes with
            | Some est ->
                let gain =
                  float_of_int (est.Jitise_pivpav.Estimator.sw_cycles
                                - est.Jitise_pivpav.Estimator.hw_cycles)
                in
                if gain > !best_gain then begin
                  best_gain := gain;
                  best := Some (Candidate.make dfg ~func nodes)
                end
            | None -> ())
        | _ -> ()
      end
    in
    (* Depth-first enumeration of connected feasible subsets: each seed
       node starts a set; extension adds any feasible neighbour
       (pred or succ) of the current set with index greater than the
       seed to avoid duplicates. *)
    let neighbours nodes =
      let inset = Hashtbl.create 16 in
      List.iter (fun x -> Hashtbl.replace inset x ()) nodes;
      let out = ref [] in
      List.iter
        (fun x ->
          let node = dfg.Ir.Dfg.nodes.(x) in
          List.iter
            (fun y ->
              if feasible.(y) && (not (Hashtbl.mem inset y))
                 && not (List.mem y !out)
              then out := y :: !out)
            (node.Ir.Dfg.preds @ node.Ir.Dfg.succs))
        nodes;
      !out
    in
    (* Binary include/exclude branching over the connectivity frontier
       enumerates every connected subset exactly once (each set's
       smallest node is its seed; larger-index nodes join through the
       frontier). *)
    let rec extend seed nodes frontier forbidden =
      if (not !exhausted) && List.length nodes < config.max_nodes then
        match frontier with
        | [] -> ()
        | y :: rest ->
            (* Branch 1: y stays excluded below this branch. *)
            extend seed nodes rest (y :: forbidden);
            (* Branch 2: include y. *)
            if not !exhausted then begin
              let nodes' = y :: nodes in
              consider nodes';
              let fresh =
                List.filter
                  (fun z ->
                    z > seed
                    && (not (List.mem z nodes'))
                    && (not (List.mem z rest))
                    && not (List.mem z forbidden))
                  (neighbours [ y ])
              in
              extend seed nodes' (rest @ fresh) forbidden
            end
    in
    for seed = 0 to n - 1 do
      if feasible.(seed) && not !exhausted then begin
        consider [ seed ];
        let frontier = List.filter (fun z -> z > seed) (neighbours [ seed ]) in
        extend seed [ seed ] frontier []
      end
    done;
    { best = !best; explored = !explored; exhausted = !exhausted }
  end
