(** Per-block data-flow graphs.

    The ISE algorithms operate on the DFG of a single basic block: nodes
    are the block's instructions, and there is an edge from the producer
    of a value to each consumer inside the same block.  Values defined
    outside the block (parameters, other blocks, constants) are the
    graph's {e inputs}; values consumed outside the block (or by the
    terminator) make their producer an {e output} node. *)

type node = {
  index : int;            (** position within the block, 0-based *)
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

let node_count t = Array.length t.nodes

(** Does this node's instruction qualify for inclusion in a hardware
    custom instruction? *)
let feasible (n : node) = Instr.hw_feasible n.instr.Instr.kind

(** Build the DFG of [block] within [func].  [external_uses] is computed
    by scanning every other block of the function. *)
let of_block (func : Func.t) (block : Block.t) =
  let instrs = Array.of_list block.Block.instrs in
  let by_reg = Hashtbl.create 64 in
  Array.iteri
    (fun idx (i : Instr.t) ->
      if i.ty <> Ty.Void then Hashtbl.replace by_reg i.Instr.id idx)
    instrs;
  let nodes =
    Array.mapi
      (fun index instr ->
        { index; instr; preds = []; succs = []; external_uses = false })
      instrs
  in
  (* In-block edges. *)
  Array.iter
    (fun n ->
      let producers =
        List.filter_map
          (fun r -> Hashtbl.find_opt by_reg r)
          (Instr.used_regs n.instr.Instr.kind)
      in
      let producers = List.sort_uniq compare producers in
      n.preds <- producers;
      List.iter
        (fun p -> nodes.(p).succs <- n.index :: nodes.(p).succs)
        producers)
    nodes;
  Array.iter (fun n -> n.succs <- List.sort_uniq compare n.succs) nodes;
  (* External uses: any use of a register outside this block, or by this
     block's own terminator. *)
  let mark_reg r =
    match Hashtbl.find_opt by_reg r with
    | Some idx -> nodes.(idx).external_uses <- true
    | None -> ()
  in
  List.iter mark_reg (Instr.terminator_used_regs block.Block.term);
  Func.iter_blocks
    (fun other ->
      if other.Block.label <> block.Block.label then begin
        List.iter
          (fun (i : Instr.t) ->
            List.iter mark_reg (Instr.used_regs i.Instr.kind))
          other.Block.instrs;
        List.iter mark_reg (Instr.terminator_used_regs other.Block.term)
      end)
    func;
  { block; nodes; by_reg }
