(** Promotion of scalar allocas to SSA registers (mem2reg).

    The classic Cytron et al. construction: phi nodes are placed at the
    iterated dominance frontier of each alloca's store blocks, then a
    dominator-tree walk renames loads to the reaching definition.  This
    pass is what turns the frontend's load/store soup into the register
    data-flow the ISE algorithms mine for candidates.

    Expects an IR function without unreachable blocks
    (run {!Opt.remove_unreachable} first). *)

module Ir = Jitise_ir

(* An alloca is promotable when it is a single cell and its address is
   only ever used directly as the address of loads and stores (never
   stored itself, passed to a call, offset by gep, ...).  Maps the
   register holding each promotable alloca's address to its element
   type. *)
let promotable_allocas (f : Ir.Func.t) =
  let candidates = Hashtbl.create 16 in
  Ir.Func.iter_instrs
    (fun _ (i : Ir.Instr.t) ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Alloca (ty, 1) ->
          Hashtbl.replace candidates i.Ir.Instr.id ty
      | _ -> ())
    f;
  let disqualify r = Hashtbl.remove candidates r in
  Ir.Func.iter_instrs
    (fun _ (i : Ir.Instr.t) ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Load _ -> ()
      | Ir.Instr.Store (v, _) -> (
          (* storing the address itself escapes it *)
          match v with Ir.Instr.Reg r -> disqualify r | _ -> ())
      | kind ->
          List.iter
            (function Ir.Instr.Reg r -> disqualify r | _ -> ())
            (Ir.Instr.operands kind))
    f;
  (* Terminator uses of the address also disqualify. *)
  Ir.Func.iter_blocks
    (fun b ->
      List.iter disqualify (Ir.Instr.terminator_used_regs b.Ir.Block.term))
    f;
  candidates

let zero_const (ty : Ir.Ty.t) =
  if Ir.Ty.is_float ty then Ir.Instr.Const (Ir.Instr.Cfloat (0.0, ty))
  else Ir.Instr.Const (Ir.Instr.Cint (0L, ty))

(** Run mem2reg on [f] in place. *)
let run (f : Ir.Func.t) =
  let allocas = promotable_allocas f in
  if Hashtbl.length allocas > 0 then begin
    let cfg = Ir.Cfg.of_func f in
    let dom = Ir.Dom.compute cfg in
    let frontier = Ir.Dom.frontiers dom cfg in
    let nblocks = Ir.Func.num_blocks f in
    (* Blocks containing a store to each alloca. *)
    let def_blocks = Hashtbl.create 16 in
    Ir.Func.iter_blocks
      (fun b ->
        List.iter
          (fun (i : Ir.Instr.t) ->
            match i.Ir.Instr.kind with
            | Ir.Instr.Store (_, Ir.Instr.Reg addr)
              when Hashtbl.mem allocas addr ->
                let existing =
                  Option.value ~default:[] (Hashtbl.find_opt def_blocks addr)
                in
                if not (List.mem b.Ir.Block.label existing) then
                  Hashtbl.replace def_blocks addr (b.Ir.Block.label :: existing)
            | _ -> ())
          b.Ir.Block.instrs)
      f;
    (* Phi placement at iterated dominance frontiers.
       phi_for.(block) : (alloca reg -> phi instr) *)
    let phi_for = Array.init nblocks (fun _ -> Hashtbl.create 4) in
    Hashtbl.iter
      (fun areg aty ->
        let placed = Array.make nblocks false in
        let work = Queue.create () in
        List.iter
          (fun b -> Queue.add b work)
          (Option.value ~default:[] (Hashtbl.find_opt def_blocks areg));
        while not (Queue.is_empty work) do
          let b = Queue.pop work in
          List.iter
            (fun fb ->
              if not placed.(fb) then begin
                placed.(fb) <- true;
                let phi_reg = Ir.Func.fresh_reg f in
                let phi =
                  {
                    Ir.Instr.id = phi_reg;
                    ty = aty;
                    kind = Ir.Instr.Phi [];
                  }
                in
                Hashtbl.replace phi_for.(fb) areg phi;
                Queue.add fb work
              end)
            frontier.(b)
        done)
      allocas;
    (* Renaming walk over the dominator tree. *)
    let children = Array.make nblocks [] in
    Array.iteri
      (fun b idom ->
        if idom >= 0 && b <> Ir.Func.entry_label then
          children.(idom) <- b :: children.(idom))
      dom.Ir.Dom.idom;
    (* Substitution for load results, resolved transitively at the end. *)
    let subst : (Ir.Instr.reg, Ir.Instr.operand) Hashtbl.t =
      Hashtbl.create 64
    in
    (* Incoming value per alloca, per renaming path: persistent map
       threaded through the DFS. *)
    let module Rmap = Map.Make (Int) in
    let initial =
      Hashtbl.fold
        (fun areg aty acc -> Rmap.add areg (zero_const aty) acc)
        allocas Rmap.empty
    in
    let rec walk label reaching =
      let blk = Ir.Func.block f label in
      (* Phis placed in this block define new reaching values. *)
      let reaching = ref reaching in
      Hashtbl.iter
        (fun areg (phi : Ir.Instr.t) ->
          reaching := Rmap.add areg (Ir.Instr.Reg phi.Ir.Instr.id) !reaching)
        phi_for.(label);
      (* Rewrite the straight-line body. *)
      let kept =
        List.filter
          (fun (i : Ir.Instr.t) ->
            match i.Ir.Instr.kind with
            | Ir.Instr.Alloca _ when Hashtbl.mem allocas i.Ir.Instr.id -> false
            | Ir.Instr.Load (Ir.Instr.Reg addr) when Hashtbl.mem allocas addr ->
                Hashtbl.replace subst i.Ir.Instr.id (Rmap.find addr !reaching);
                false
            | Ir.Instr.Store (v, Ir.Instr.Reg addr)
              when Hashtbl.mem allocas addr ->
                reaching := Rmap.add addr v !reaching;
                false
            | _ -> true)
          blk.Ir.Block.instrs
      in
      Ir.Block.set_instrs blk kept;
      (* Feed phi inputs of successors. *)
      List.iter
        (fun succ ->
          Hashtbl.iter
            (fun areg (phi : Ir.Instr.t) ->
              let v = Rmap.find areg !reaching in
              match phi.Ir.Instr.kind with
              | Ir.Instr.Phi incoming ->
                  Hashtbl.replace phi_for.(succ) areg
                    {
                      phi with
                      Ir.Instr.kind = Ir.Instr.Phi ((label, v) :: incoming);
                    }
              | _ -> assert false)
            phi_for.(succ))
        (Ir.Cfg.succs cfg label);
      List.iter (fun c -> walk c !reaching) children.(label)
    in
    if nblocks > 0 then walk Ir.Func.entry_label initial;
    (* Install phis as block prefixes. *)
    Ir.Func.iter_blocks
      (fun b ->
        let phis =
          Hashtbl.fold (fun _ phi acc -> phi :: acc) phi_for.(b.Ir.Block.label) []
        in
        (* Stable order: by defining register, for determinism. *)
        let phis =
          List.sort
            (fun (a : Ir.Instr.t) b -> compare a.Ir.Instr.id b.Ir.Instr.id)
            phis
        in
        if phis <> [] then Ir.Block.set_instrs b (phis @ b.Ir.Block.instrs))
      f;
    (* Apply the load substitution everywhere. *)
    Ir.Func.substitute f subst ~drop:false
  end

(** Promote every function of a module. *)
let run_module (m : Ir.Irmod.t) = List.iter run m.Ir.Irmod.funcs
