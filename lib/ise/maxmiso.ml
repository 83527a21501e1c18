(** The MAXMISO custom-instruction identification algorithm.

    A MISO is a connected subgraph with a single output; a MAXMISO is a
    maximal one.  MAXMISOs of a DFG are disjoint and can be enumerated
    in time linear in the graph size [Alippi et al.], which is why the
    paper chose the algorithm for just-in-time operation: the
    state-of-the-art exact algorithms are exponential (see
    {!Singlecut}).

    Enumeration: feasible nodes whose value escapes the candidate space
    (used outside the block, unconsumed, or consumed by an infeasible
    instruction) root the first cones; each cone greedily absorbs
    predecessors whose consumers all lie inside it, claiming them.
    Feasible nodes left unassigned — their consumers are split across
    different cones — then root cones of their own.  The result is a
    partition: no instruction belongs to two candidates, which the
    downstream savings accounting and binary adaptation rely on. *)

module Ir = Jitise_ir

(** Escape roots: feasible nodes whose value leaves the feasible
    candidate space. *)
let escape_roots (dfg : Ir.Dfg.t) =
  Array.to_list dfg.Ir.Dfg.nodes
  |> List.filter_map (fun (node : Ir.Dfg.node) ->
         if not (Ir.Dfg.feasible node) then None
         else
           let escapes =
             node.Ir.Dfg.external_uses
             || node.Ir.Dfg.succs = []
             || List.exists
                  (fun s -> not (Ir.Dfg.feasible dfg.Ir.Dfg.nodes.(s)))
                  node.Ir.Dfg.succs
           in
           if escapes then Some node.Ir.Dfg.index else None)

(* Grow the maximal cone above [root] over unassigned feasible nodes:
   fixpoint inclusion of predecessors whose consumers are all inside the
   cone.  Claims every included node in [assigned]. *)
let grow (dfg : Ir.Dfg.t) (assigned : bool array) root =
  let inset = Hashtbl.create 16 in
  Hashtbl.replace inset root ();
  assigned.(root) <- true;
  let queue = Queue.create () in
  Queue.add root queue;
  (* A rejected predecessor is reconsidered each time another of its
     consumers joins the cone (it is a predecessor of that consumer),
     so the worklist converges to the maximal cone. *)
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    List.iter
      (fun p ->
        if not (Hashtbl.mem inset p) then begin
          let pnode = dfg.Ir.Dfg.nodes.(p) in
          let absorbable =
            Ir.Dfg.feasible pnode
            && (not assigned.(p))
            && (not pnode.Ir.Dfg.external_uses)
            && pnode.Ir.Dfg.succs <> []
            && List.for_all (fun s -> Hashtbl.mem inset s) pnode.Ir.Dfg.succs
          in
          if absorbable then begin
            Hashtbl.replace inset p ();
            assigned.(p) <- true;
            Queue.add p queue
          end
        end)
      dfg.Ir.Dfg.nodes.(n).Ir.Dfg.preds
  done;
  Hashtbl.fold (fun n () acc -> n :: acc) inset []

(** The MAXMISO partition of one block's feasible nodes, as candidates,
    without the trivial single-instruction cones (the paper observes
    that one-op custom instructions never amortize the CI interface
    overhead). *)
let of_block (dfg : Ir.Dfg.t) ~func : Candidate.t list =
  let n = Ir.Dfg.node_count dfg in
  let assigned = Array.make n false in
  let cones = ref [] in
  List.iter
    (fun root -> cones := grow dfg assigned root :: !cones)
    (escape_roots dfg);
  (* Leftovers whose consumers were split across cones: highest index
     first, so downstream leftovers root before their producers. *)
  for i = n - 1 downto 0 do
    if (not assigned.(i)) && Ir.Dfg.feasible dfg.Ir.Dfg.nodes.(i) then
      cones := grow dfg assigned i :: !cones
  done;
  List.rev !cones
  |> List.filter (fun nodes -> List.length nodes >= 2)
  |> List.map (fun nodes -> Candidate.make dfg ~func nodes)
