(** The MAXMISO custom-instruction identification algorithm.

    A MISO is a connected subgraph with a single output; a MAXMISO is a
    maximal one.  MAXMISOs of a DFG are disjoint and can be enumerated
    in time linear in the graph size [Alippi et al.], which is why the
    paper chose the algorithm for just-in-time operation: the
    state-of-the-art exact algorithms are exponential (see
    {!Singlecut}).

    The result of every entry point is a {e partition}: no instruction
    belongs to two candidates, which the downstream savings accounting
    and binary adaptation rely on.  This interface pins the surface the
    staged pipeline engine's [maxmiso] stage depends on; the cone-growth
    worklist and its escape roots are internal. *)

val of_block : Jitise_ir.Dfg.t -> func:string -> Candidate.t list
(** The MAXMISO partition of one block's feasible nodes, as candidates,
    without the trivial one-instruction cones (the paper observes that
    one-op custom instructions never amortize the CI interface
    overhead). *)
