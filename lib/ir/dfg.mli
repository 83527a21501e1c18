(** Per-block data-flow graphs.

    The ISE algorithms operate on the DFG of a single basic block: nodes
    are the block's instructions, and there is an edge from the producer
    of a value to each consumer inside the same block.  Values defined
    outside the block (parameters, other blocks, constants) are the
    graph's {e inputs}; values consumed outside the block (or by the
    terminator) make their producer an {e output} node.

    This interface pins the public surface the staged pipeline engine
    (and the ISE/hwgen layers beneath it) depends on.  The records are
    exposed concretely — MAXMISO, single-cut, estimation and VHDL
    generation all traverse [nodes]/[preds]/[succs] directly — but the
    mutable fields are set by {!of_block} only; treat them as read-only
    afterwards. *)

type node = {
  index : int;  (** position within the block, 0-based *)
  instr : Instr.t;
  mutable preds : int list;  (** in-block producers this node reads *)
  mutable succs : int list;  (** in-block consumers of this node *)
  mutable external_uses : bool;
      (** value escapes the block (used by another block, the
          terminator, or a phi elsewhere) *)
}

type t = {
  block : Block.t;
  nodes : node array;
  by_reg : (Instr.reg, int) Hashtbl.t;  (** defining node of a register *)
}

val node_count : t -> int

val feasible : node -> bool
(** Does this node's instruction qualify for inclusion in a hardware
    custom instruction? *)

val of_block : Func.t -> Block.t -> t
(** Build the DFG of [block] within [func].  [external_uses] is
    computed by scanning every other block of the function. *)
