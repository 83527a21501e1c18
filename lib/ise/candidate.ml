(** Custom-instruction candidates.

    A candidate is a set of hardware-feasible instructions inside one
    basic block, forming a connected, convex subgraph of the block DFG
    with a single output value.  Candidates carry a stable structural
    [signature] so that identical data paths can share one bitstream in
    the reconfiguration cache (Section VI-A of the paper). *)

module Ir = Jitise_ir

type t = {
  func : string;           (** enclosing function *)
  block : Ir.Instr.label;  (** enclosing basic block *)
  nodes : int list;        (** DFG node indices, sorted ascending *)
  root : int;              (** the single output node *)
  size : int;              (** number of instructions *)
  num_inputs : int;        (** distinct non-constant external inputs *)
  opcodes : string list;   (** mnemonics in node order *)
  signature : string;      (** structural identity, see {!signature_of} *)
}

(** Distinct register inputs of a node set: operands defined either
    outside the block or by in-block nodes not in the set.  Constants
    are free (they become hardwired logic). *)
let external_input_regs (dfg : Ir.Dfg.t) nodes =
  let inset = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace inset n ()) nodes;
  let inputs = ref [] in
  List.iter
    (fun n ->
      let node = dfg.Ir.Dfg.nodes.(n) in
      List.iter
        (function
          | Ir.Instr.Const _ -> ()
          | Ir.Instr.Reg r -> (
              match Hashtbl.find_opt dfg.Ir.Dfg.by_reg r with
              | Some producer when Hashtbl.mem inset producer -> ()
              | _ -> if not (List.mem r !inputs) then inputs := r :: !inputs))
        (Ir.Instr.operands node.Ir.Dfg.instr.Ir.Instr.kind))
    nodes;
  List.rev !inputs

(** Output nodes of a node set: nodes whose value is used outside the
    set (by other in-block instructions, other blocks, or the
    terminator). *)
let output_nodes (dfg : Ir.Dfg.t) nodes =
  let inset = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace inset n ()) nodes;
  List.filter
    (fun n ->
      let node = dfg.Ir.Dfg.nodes.(n) in
      node.Ir.Dfg.external_uses
      || List.exists (fun s -> not (Hashtbl.mem inset s)) node.Ir.Dfg.succs)
    nodes

(** Convexity: no data path from a node in the set to another node in
    the set passes through a node outside the set.  Checked by a
    forward reachability sweep in instruction order. *)
let is_convex (dfg : Ir.Dfg.t) nodes =
  let inset = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace inset n ()) nodes;
  (* reaches_out.(n) = some path from the set leaves and arrives at n
     while n is outside the set *)
  let n_nodes = Ir.Dfg.node_count dfg in
  let tainted = Array.make n_nodes false in
  let ok = ref true in
  for n = 0 to n_nodes - 1 do
    let node = dfg.Ir.Dfg.nodes.(n) in
    let has_tainted_pred = List.exists (fun p -> tainted.(p)) node.Ir.Dfg.preds in
    let has_inset_pred = List.exists (fun p -> Hashtbl.mem inset p) node.Ir.Dfg.preds in
    if Hashtbl.mem inset n then begin
      if has_tainted_pred then ok := false
    end
    else if has_inset_pred || has_tainted_pred then tainted.(n) <- true
  done;
  !ok

(** Canonical structural signature: opcode of each node plus its
    predecessor positions renumbered within the candidate.  Two
    occurrences of the same arithmetic shape — even in different
    applications — produce the same signature, which is the cache key
    for partial bitstreams. *)
let signature_of (dfg : Ir.Dfg.t) nodes =
  let sorted = List.sort compare nodes in
  let position = Hashtbl.create 16 in
  List.iteri (fun k n -> Hashtbl.replace position n k) sorted;
  let buf = Buffer.create 128 in
  List.iter
    (fun n ->
      let node = dfg.Ir.Dfg.nodes.(n) in
      let i = node.Ir.Dfg.instr in
      Buffer.add_string buf (Ir.Instr.opcode_name i.Ir.Instr.kind);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Ir.Ty.to_string i.Ir.Instr.ty);
      List.iter
        (fun op ->
          match op with
          | Ir.Instr.Const c ->
              Buffer.add_string buf
                (Format.asprintf "#%a" Ir.Instr.pp_const c)
          | Ir.Instr.Reg r -> (
              match Hashtbl.find_opt dfg.Ir.Dfg.by_reg r with
              | Some p when Hashtbl.mem position p ->
                  Buffer.add_string buf (Printf.sprintf "@%d" (Hashtbl.find position p))
              | _ -> Buffer.add_string buf "$in"))
        (Ir.Instr.operands i.Ir.Instr.kind);
      Buffer.add_char buf ';')
    sorted;
  Printf.sprintf "ci_%012x"
    (Jitise_util.Prng.hash_string (Buffer.contents buf) land 0xFFFFFFFFFFFF)

(** Build a candidate from a node set with a unique output.
    @raise Invalid_argument if the set is empty or has multiple
    outputs. *)
let make (dfg : Ir.Dfg.t) ~func nodes =
  if nodes = [] then
    invalid_arg
      (Printf.sprintf "Candidate.make: empty node set (function %S)" func);
  let nodes = List.sort_uniq compare nodes in
  let root =
    match output_nodes dfg nodes with
    | [ r ] -> r
    | [] ->
        (* A value consumed nowhere: treat the last node as root (can
           arise in synthetic tests). *)
        List.fold_left max 0 nodes
    | outs ->
        invalid_arg
          (Printf.sprintf
             "Candidate.make: multiple output nodes (got %d in function %S)"
             (List.length outs) func)
  in
  let opcodes =
    List.map
      (fun n ->
        Ir.Instr.opcode_name dfg.Ir.Dfg.nodes.(n).Ir.Dfg.instr.Ir.Instr.kind)
      nodes
  in
  {
    func;
    block = dfg.Ir.Dfg.block.Ir.Block.label;
    nodes;
    root;
    size = List.length nodes;
    num_inputs = List.length (external_input_regs dfg nodes);
    opcodes;
    signature = signature_of dfg nodes;
  }
