(** IR well-formedness checks.

    The verifier enforces the structural invariants the rest of the
    system assumes: unique SSA definitions, no use of undefined
    registers, type agreement on operands, phi/predecessor consistency,
    and in-range branch targets.  It is run by tests after every
    frontend compilation and after every optimizer pass. *)

type error = { func : string; block : int option; message : string }

let pp_error ppf e =
  match e.block with
  | None -> Format.fprintf ppf "%s: %s" e.func e.message
  | Some b -> Format.fprintf ppf "%s/bb%d: %s" e.func b e.message

(* Collect the type environment: register -> type for params and all
   instruction results.  Duplicate definitions are reported. *)
let type_env (f : Func.t) errors =
  let env = Hashtbl.create 64 in
  List.iter (fun (r, ty) -> Hashtbl.replace env r ty) f.Func.params;
  Func.iter_instrs
    (fun b (i : Instr.t) ->
      if i.ty <> Ty.Void then begin
        if Hashtbl.mem env i.id then
          errors :=
            {
              func = f.Func.name;
              block = Some b.Block.label;
              message = Printf.sprintf "register %%%d defined twice" i.id;
            }
            :: !errors;
        Hashtbl.replace env i.id i.ty
      end)
    f;
  env

let operand_ty env = function
  | Instr.Const c -> Some (Instr.const_ty c)
  | Instr.Reg r -> Hashtbl.find_opt env r

let check_func (f : Func.t) =
  let errors = ref [] in
  let err block fmt =
    Printf.ksprintf
      (fun message ->
        errors := { func = f.Func.name; block; message } :: !errors)
      fmt
  in
  let nblocks = Func.num_blocks f in
  if nblocks = 0 then err None "function has no blocks";
  let env = type_env f errors in
  let check_label b l =
    if l < 0 || l >= nblocks then err (Some b) "branch to missing block bb%d" l
  in
  let cfg = if nblocks > 0 then Some (Cfg.of_func f) else None in
  Func.iter_blocks
    (fun blk ->
      let bl = Some blk.Block.label in
      let check_operand ctx op =
        match operand_ty env op with
        | Some _ -> ()
        | None -> (
            match op with
            | Instr.Reg r -> err bl "%s uses undefined register %%%d" ctx r
            | Instr.Const _ -> ())
      in
      let expect_ty ctx op ty =
        match operand_ty env op with
        | Some ty' when not (Ty.equal ty ty') ->
            err bl "%s: operand has type %s, expected %s" ctx
              (Ty.to_string ty') (Ty.to_string ty)
        | _ -> ()
      in
      (* Phis must be a prefix of the block. *)
      let seen_non_phi = ref false in
      List.iter
        (fun (i : Instr.t) ->
          let ctx = Instr.opcode_name i.kind in
          List.iter (check_operand ctx) (Instr.operands i.kind);
          (match i.kind with
          | Instr.Phi incoming ->
              if !seen_non_phi then err bl "phi %%%d after non-phi" i.id;
              (match cfg with
              | Some cfg ->
                  let preds =
                    List.sort_uniq compare (Cfg.preds cfg blk.Block.label)
                  in
                  let froms =
                    List.sort_uniq compare (List.map fst incoming)
                  in
                  if preds <> froms then
                    err bl "phi %%%d incoming labels do not match predecessors"
                      i.id
              | None -> ());
              List.iter (fun (_, op) -> expect_ty ctx op i.ty) incoming
          | Instr.Binop (op, a, b) ->
              seen_non_phi := true;
              let is_float_op =
                match op with
                | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv -> true
                | _ -> false
              in
              if is_float_op && not (Ty.is_float i.ty) then
                err bl "float binop %%%d has integer result type" i.id;
              if (not is_float_op) && not (Ty.is_int i.ty) then
                err bl "integer binop %%%d has non-integer result type" i.id;
              expect_ty ctx a i.ty;
              expect_ty ctx b i.ty
          | Instr.Icmp (_, a, b) | Instr.Fcmp (_, a, b) ->
              seen_non_phi := true;
              if i.ty <> Ty.I1 then err bl "comparison %%%d must produce i1" i.id;
              (match (operand_ty env a, operand_ty env b) with
              | Some ta, Some tb when not (Ty.equal ta tb) ->
                  err bl "%s: operand types %s vs %s differ" ctx
                    (Ty.to_string ta) (Ty.to_string tb)
              | _ -> ())
          | Instr.Select (c, a, b) ->
              seen_non_phi := true;
              expect_ty ctx c Ty.I1;
              expect_ty ctx a i.ty;
              expect_ty ctx b i.ty
          | Instr.Store (_, addr) | Instr.Load addr ->
              seen_non_phi := true;
              expect_ty ctx addr Ty.Ptr;
              if (match i.kind with Instr.Store _ -> false | _ -> true)
                 && i.ty = Ty.Void
              then err bl "load %%%d has void type" i.id
          | Instr.Gep (base, _) ->
              seen_non_phi := true;
              expect_ty ctx base Ty.Ptr;
              if i.ty <> Ty.Ptr then err bl "gep %%%d must produce ptr" i.id
          | Instr.Alloca (_, n) ->
              seen_non_phi := true;
              if n <= 0 then err bl "alloca %%%d with non-positive size" i.id;
              if i.ty <> Ty.Ptr then err bl "alloca %%%d must produce ptr" i.id
          | Instr.Gaddr _ ->
              seen_non_phi := true;
              if i.ty <> Ty.Ptr then err bl "gaddr %%%d must produce ptr" i.id
          | Instr.Cast (_, _) | Instr.Call (_, _) | Instr.Ci_call (_, _) ->
              seen_non_phi := true))
        blk.Block.instrs;
      (* Terminator *)
      (match blk.Block.term with
      | Instr.Ret None ->
          if f.Func.ret_ty <> Ty.Void then
            err bl "ret void in non-void function"
      | Instr.Ret (Some op) ->
          if f.Func.ret_ty = Ty.Void then err bl "ret value in void function"
          else expect_ty "ret" op f.Func.ret_ty
      | Instr.Br l -> check_label blk.Block.label l
      | Instr.Cond_br (c, a, b) ->
          expect_ty "condbr" c Ty.I1;
          check_label blk.Block.label a;
          check_label blk.Block.label b
      | Instr.Switch (s, d, cases) ->
          check_operand "switch" s;
          check_label blk.Block.label d;
          List.iter (fun (_, l) -> check_label blk.Block.label l) cases))
    f;
  List.rev !errors

let check_module (m : Irmod.t) =
  List.concat_map check_func m.Irmod.funcs

let errors_to_string errors =
  String.concat "\n" (List.map (Format.asprintf "%a" pp_error) errors)
