(** Binary adaptation: rewriting the running application to use the
    newly generated custom instructions.

    For every implemented candidate, the instructions of its subgraph
    are removed from the home block and replaced by a single [Ci_call]
    carrying the candidate's external inputs; the call defines the same
    register the candidate's root defined, so all downstream uses are
    untouched.  The companion {!Jitise_vm.Machine.ci_registry} gives the
    VM each custom instruction's extracted subgraph ([ci_body]), its
    functional semantics ([ci_eval], interpreting that subgraph) and
    its hardware latency. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module Ise = Jitise_ise
module Pp = Jitise_pivpav

(* Deep copy of a function (blocks and instruction lists are mutable). *)
let copy_func (f : Ir.Func.t) : Ir.Func.t =
  {
    f with
    Ir.Func.blocks =
      Array.map
        (fun (b : Ir.Block.t) -> { b with Ir.Block.instrs = b.Ir.Block.instrs })
        f.Ir.Func.blocks;
  }

(** Deep copy of a module; the adapted binary must not alias the
    original (the paper's VM keeps both during hot swapping). *)
let copy_module (m : Ir.Irmod.t) : Ir.Irmod.t =
  {
    m with
    Ir.Irmod.funcs = List.map copy_func m.Ir.Irmod.funcs;
    globals = m.Ir.Irmod.globals;
  }

(** The structure of one candidate as a custom-instruction body: its
    external inputs (typed by the declaring function, [I32] when
    undeclared), its nodes in node order, and its root. *)
let body_of (f : Ir.Func.t) (dfg : Ir.Dfg.t) (c : Ise.Candidate.t) :
    Vm.Machine.ci_body =
  let inputs = Ise.Candidate.external_input_regs dfg c.Ise.Candidate.nodes in
  {
    Vm.Machine.cb_inputs =
      Array.of_list
        (List.map
           (fun r ->
             match Ir.Func.reg_ty f r with
             | ty -> (r, ty)
             | exception Not_found -> (r, Ir.Ty.I32))
           inputs);
    cb_nodes =
      Array.of_list
        (List.map
           (fun n -> dfg.Ir.Dfg.nodes.(n).Ir.Dfg.instr)
           c.Ise.Candidate.nodes);
    cb_root = dfg.Ir.Dfg.nodes.(c.Ise.Candidate.root).Ir.Dfg.instr.Ir.Instr.id;
  }

(** Interpret a custom-instruction body over its argument values: the
    CI's functional semantics ([ci_eval]), which the threaded engine's
    spliced bodies are checked against.  Inputs bind by position (a
    register listed twice takes the later argument; a missing argument
    leaves its input unbound), nodes evaluate in order, and an unbound
    register reads as [VInt 0L].  A cast's source type is the declared
    input type, else the node type, else [I32]. *)
let eval_body (b : Vm.Machine.ci_body) (args : Ir.Eval.value array) :
    Ir.Eval.value =
  let env : (Ir.Instr.reg, Ir.Eval.value) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun pos (r, _) ->
      if pos < Array.length args then Hashtbl.replace env r args.(pos))
    b.Vm.Machine.cb_inputs;
  let value_of = function
    | Ir.Instr.Const cst -> Ir.Eval.of_const cst
    | Ir.Instr.Reg r -> (
        match Hashtbl.find_opt env r with
        | Some v -> v
        | None -> Ir.Eval.VInt 0L)
  in
  let ty_of = function
    | Ir.Instr.Const cst -> Ir.Instr.const_ty cst
    | Ir.Instr.Reg r -> (
        match Array.find_opt (fun (x, _) -> x = r) b.Vm.Machine.cb_inputs with
        | Some (_, ty) -> ty
        | None -> (
            match
              Array.find_opt
                (fun (i : Ir.Instr.t) -> i.Ir.Instr.id = r)
                b.Vm.Machine.cb_nodes
            with
            | Some i -> i.Ir.Instr.ty
            | None -> Ir.Ty.I32))
  in
  Array.iter
    (fun (i : Ir.Instr.t) ->
      let result =
        match i.Ir.Instr.kind with
        | Ir.Instr.Binop (op, a, b) ->
            Ir.Eval.eval_binop i.Ir.Instr.ty op (value_of a) (value_of b)
        | Ir.Instr.Icmp (p, a, b) ->
            Ir.Eval.eval_icmp p (value_of a) (value_of b)
        | Ir.Instr.Fcmp (p, a, b) ->
            Ir.Eval.eval_fcmp p (value_of a) (value_of b)
        | Ir.Instr.Cast (cast, a) ->
            Ir.Eval.eval_cast cast ~from_:(ty_of a) ~to_:i.Ir.Instr.ty
              (value_of a)
        | Ir.Instr.Select (cc, a, b) ->
            Ir.Eval.eval_select (value_of cc) (value_of a) (value_of b)
        | _ ->
            invalid_arg
              "Adapt: infeasible instruction inside a custom instruction"
      in
      Hashtbl.replace env i.Ir.Instr.id result)
    b.Vm.Machine.cb_nodes;
  match Hashtbl.find_opt env b.Vm.Machine.cb_root with
  | Some v -> v
  | None -> Ir.Eval.VInt 0L

type t = {
  modul : Ir.Irmod.t;              (** the adapted binary *)
  registry : Vm.Machine.ci_registry;  (** CI semantics + latencies *)
}

(** Rewrite [m] to invoke the selected candidates as custom
    instructions numbered from 0 in selection order. *)
let apply (m : Ir.Irmod.t) (selection : Ise.Select.scored list) : t =
  let adapted = copy_module m in
  let registry = Vm.Machine.empty_cis () in
  List.iteri
    (fun ci_id (s : Ise.Select.scored) ->
      let c = s.Ise.Select.candidate in
      let f =
        match Ir.Irmod.find_func adapted c.Ise.Candidate.func with
        | Some f -> f
        | None -> invalid_arg "Adapt.apply: candidate names unknown function"
      in
      let block = Ir.Func.block f c.Ise.Candidate.block in
      (* DFG over the *original* module for the closure (original
         instruction ids are stable across the copy). *)
      let orig_f =
        match Ir.Irmod.find_func m c.Ise.Candidate.func with
        | Some f -> f
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Adapt.apply: function %S (candidate %s) missing from the \
                  original module"
                 c.Ise.Candidate.func c.Ise.Candidate.signature)
      in
      let orig_block = Ir.Func.block orig_f c.Ise.Candidate.block in
      let dfg = Ir.Dfg.of_block orig_f orig_block in
      let body = body_of orig_f dfg c in
      let is_node (i : Ir.Instr.t) =
        Array.exists
          (fun (n : Ir.Instr.t) -> n.Ir.Instr.id = i.Ir.Instr.id)
          body.Vm.Machine.cb_nodes
      in
      let new_instrs =
        List.filter_map
          (fun (i : Ir.Instr.t) ->
            if i.Ir.Instr.id = body.Vm.Machine.cb_root then
              Some
                {
                  i with
                  Ir.Instr.kind =
                    Ir.Instr.Ci_call
                      ( ci_id,
                        Array.to_list
                          (Array.map
                             (fun (r, _) -> Ir.Instr.Reg r)
                             body.Vm.Machine.cb_inputs) );
                }
            else if is_node i then None
            else Some i)
          block.Ir.Block.instrs
      in
      Ir.Block.set_instrs block new_instrs;
      Hashtbl.replace registry ci_id
        {
          Vm.Machine.ci_eval = eval_body body;
          ci_cycles = s.Ise.Select.estimate.Pp.Estimator.hw_cycles;
          ci_body = Some body;
        })
    selection;
  { modul = adapted; registry }
