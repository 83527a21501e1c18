(** The -O3-style optimizer pipeline.

    Passes: unreachable-block elimination (with label renumbering),
    constant folding + branch simplification, jump threading through
    empty forwarding blocks, local common-subexpression elimination, and
    dead-code elimination.  [optimize_module] iterates them to a bounded
    fixpoint, mirroring the role of llvm-gcc's [-O3] in the paper's
    compilation-to-bitcode stage. *)

module Ir = Jitise_ir

(* ------------------------------------------------------------------ *)
(* Label remapping                                                     *)
(* ------------------------------------------------------------------ *)

let remap_term map = function
  | Ir.Instr.Ret _ as t -> t
  | Ir.Instr.Br l -> Ir.Instr.Br (map l)
  | Ir.Instr.Cond_br (c, a, b) -> Ir.Instr.Cond_br (c, map a, map b)
  | Ir.Instr.Switch (s, d, cases) ->
      Ir.Instr.Switch (s, map d, List.map (fun (v, l) -> (v, map l)) cases)

let remap_phis_in_block map (b : Ir.Block.t) =
  Ir.Block.set_instrs b
    (List.map
       (fun (i : Ir.Instr.t) ->
         match i.Ir.Instr.kind with
         | Ir.Instr.Phi incoming ->
             {
               i with
               Ir.Instr.kind =
                 Ir.Instr.Phi (List.map (fun (l, v) -> (map l, v)) incoming);
             }
         | _ -> i)
       b.Ir.Block.instrs)

(* ------------------------------------------------------------------ *)
(* Unreachable block elimination                                       *)
(* ------------------------------------------------------------------ *)

(** Drop blocks not reachable from the entry and renumber the remainder
    densely.  Phi entries referring to removed predecessors are pruned.
    Returns the number of removed blocks. *)
let remove_unreachable (f : Ir.Func.t) =
  let cfg = Ir.Cfg.of_func f in
  let reach = Ir.Cfg.reachable cfg in
  let n = Array.length reach in
  let removed = ref 0 in
  let new_label = Array.make n (-1) in
  let next = ref 0 in
  for l = 0 to n - 1 do
    if reach.(l) then begin
      new_label.(l) <- !next;
      incr next
    end
    else incr removed
  done;
  if !removed > 0 then begin
    let keep =
      Array.to_list f.Ir.Func.blocks
      |> List.filter (fun (b : Ir.Block.t) -> reach.(b.Ir.Block.label))
    in
    let map l = new_label.(l) in
    let blocks =
      List.map
        (fun (b : Ir.Block.t) ->
          (* prune phi entries from unreachable preds, then remap *)
          Ir.Block.set_instrs b
            (List.map
               (fun (i : Ir.Instr.t) ->
                 match i.Ir.Instr.kind with
                 | Ir.Instr.Phi incoming ->
                     {
                       i with
                       Ir.Instr.kind =
                         Ir.Instr.Phi
                           (List.filter (fun (l, _) -> reach.(l)) incoming);
                     }
                 | _ -> i)
               b.Ir.Block.instrs);
          remap_phis_in_block map b;
          b.Ir.Block.term <- remap_term map b.Ir.Block.term;
          { b with Ir.Block.label = map b.Ir.Block.label })
        keep
    in
    f.Ir.Func.blocks <- Array.of_list blocks
  end;
  !removed

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let const_of_value ty (v : Ir.Eval.value) =
  match v with
  | Ir.Eval.VInt x -> Some (Ir.Instr.Cint (x, ty))
  | Ir.Eval.VFloat x -> Some (Ir.Instr.Cfloat (x, ty))
  | Ir.Eval.VPtr _ -> None

(** Fold instructions whose operands are all constants, and propagate
    single-entry phis and trivial selects.  Folded instructions become
    substitutions applied throughout the function.  Conditional branches
    on constants are rewritten to unconditional ones.  Returns the
    number of simplifications performed. *)
let fold_constants (f : Ir.Func.t) =
  let changed = ref 0 in
  let subst : (Ir.Instr.reg, Ir.Instr.operand) Hashtbl.t = Hashtbl.create 32 in
  let rec resolve op =
    match op with
    | Ir.Instr.Reg r -> (
        match Hashtbl.find_opt subst r with
        | Some op' -> resolve op'
        | None -> op)
    | _ -> op
  in
  let const_operand op =
    match resolve op with Ir.Instr.Const c -> Some c | _ -> None
  in
  let try_fold (i : Ir.Instr.t) : Ir.Instr.operand option =
    let open Ir.Instr in
    try
      match i.kind with
      | Binop (op, a, b) -> (
          match (const_operand a, const_operand b) with
          | Some ca, Some cb ->
              let v =
                Ir.Eval.eval_binop i.ty op (Ir.Eval.of_const ca)
                  (Ir.Eval.of_const cb)
              in
              Option.map (fun c -> Const c) (const_of_value i.ty v)
          | _ -> None)
      | Icmp (p, a, b) -> (
          match (const_operand a, const_operand b) with
          | Some ca, Some cb ->
              let v =
                Ir.Eval.eval_icmp p (Ir.Eval.of_const ca) (Ir.Eval.of_const cb)
              in
              Option.map (fun c -> Const c) (const_of_value Ir.Ty.I1 v)
          | _ -> None)
      | Fcmp (p, a, b) -> (
          match (const_operand a, const_operand b) with
          | Some ca, Some cb ->
              let v =
                Ir.Eval.eval_fcmp p (Ir.Eval.of_const ca) (Ir.Eval.of_const cb)
              in
              Option.map (fun c -> Const c) (const_of_value Ir.Ty.I1 v)
          | _ -> None)
      | Cast (c, a) -> (
          match const_operand a with
          | Some ca ->
              let v =
                Ir.Eval.eval_cast c
                  ~from_:(Ir.Instr.const_ty ca)
                  ~to_:i.ty (Ir.Eval.of_const ca)
              in
              Option.map (fun cst -> Const cst) (const_of_value i.ty v)
          | None -> None)
      | Select (c, a, b) -> (
          match const_operand c with
          | Some cc ->
              if Ir.Eval.is_true (Ir.Eval.of_const cc) then Some (resolve a)
              else Some (resolve b)
          | None -> None)
      | Phi [ (_, v) ] -> Some (resolve v)
      | Phi incoming ->
          (* All inputs equal (and not self-referential): forward. *)
          let vs = List.map (fun (_, v) -> resolve v) incoming in
          let self = Reg i.id in
          let non_self = List.filter (fun v -> v <> self) vs in
          (match non_self with
          | v :: rest when List.for_all (fun v' -> v' = v) rest -> Some v
          | _ -> None)
      | _ -> None
    with Ir.Eval.Division_by_zero | Ir.Eval.Type_error _ -> None
  in
  (* Iterate within the function until no new folds appear (substitution
     chains can enable further folds). *)
  let progress = ref true in
  while !progress do
    progress := false;
    Ir.Func.iter_blocks
      (fun b ->
        List.iter
          (fun (i : Ir.Instr.t) ->
            if (not (Hashtbl.mem subst i.Ir.Instr.id)) && i.Ir.Instr.ty <> Ir.Ty.Void
            then
              match try_fold i with
              | Some op when op <> Ir.Instr.Reg i.Ir.Instr.id ->
                  Hashtbl.replace subst i.Ir.Instr.id op;
                  incr changed;
                  progress := true
              | _ -> ())
          b.Ir.Block.instrs)
      f
  done;
  (* Apply substitutions, drop folded instructions. *)
  if Hashtbl.length subst > 0 then begin
    let rw_kind kind =
      let rw = resolve in
      let open Ir.Instr in
      match kind with
      | Binop (op, a, b) -> Binop (op, rw a, rw b)
      | Icmp (p, a, b) -> Icmp (p, rw a, rw b)
      | Fcmp (p, a, b) -> Fcmp (p, rw a, rw b)
      | Cast (c, a) -> Cast (c, rw a)
      | Select (c, a, b) -> Select (rw c, rw a, rw b)
      | Alloca _ as k -> k
      | Load a -> Load (rw a)
      | Store (v, a) -> Store (rw v, rw a)
      | Gep (b, i) -> Gep (rw b, rw i)
      | Gaddr _ as k -> k
      | Call (f, args) -> Call (f, List.map rw args)
      | Phi incoming -> Phi (List.map (fun (l, v) -> (l, rw v)) incoming)
      | Ci_call (ci, args) -> Ci_call (ci, List.map rw args)
    in
    Ir.Func.iter_blocks
      (fun b ->
        Ir.Block.set_instrs b
          (List.filter_map
             (fun (i : Ir.Instr.t) ->
               if Hashtbl.mem subst i.Ir.Instr.id then None
               else Some { i with Ir.Instr.kind = rw_kind i.Ir.Instr.kind })
             b.Ir.Block.instrs);
        b.Ir.Block.term <-
          (match b.Ir.Block.term with
          | Ir.Instr.Ret (Some op) -> Ir.Instr.Ret (Some (resolve op))
          | Ir.Instr.Ret None as t -> t
          | Ir.Instr.Br _ as t -> t
          | Ir.Instr.Cond_br (c, x, y) -> Ir.Instr.Cond_br (resolve c, x, y)
          | Ir.Instr.Switch (s, d, cases) ->
              Ir.Instr.Switch (resolve s, d, cases)))
      f
  end;
  (* Branch simplification on constant conditions. *)
  Ir.Func.iter_blocks
    (fun b ->
      match b.Ir.Block.term with
      | Ir.Instr.Cond_br (Ir.Instr.Const c, x, y) ->
          let taken, dropped =
            if Ir.Eval.is_true (Ir.Eval.of_const c) then (x, y) else (y, x)
          in
          b.Ir.Block.term <- Ir.Instr.Br taken;
          incr changed;
          (* prune the dead phi edge in the dropped successor *)
          if dropped <> taken then begin
            let db = Ir.Func.block f dropped in
            Ir.Block.set_instrs db
              (List.map
                 (fun (i : Ir.Instr.t) ->
                   match i.Ir.Instr.kind with
                   | Ir.Instr.Phi incoming ->
                       {
                         i with
                         Ir.Instr.kind =
                           Ir.Instr.Phi
                             (List.filter
                                (fun (l, _) -> l <> b.Ir.Block.label)
                                incoming);
                       }
                   | _ -> i)
                 db.Ir.Block.instrs)
          end
      | Ir.Instr.Cond_br (c, x, y) when x = y ->
          ignore c;
          b.Ir.Block.term <- Ir.Instr.Br x;
          incr changed
      | _ -> ())
    f;
  !changed

(* ------------------------------------------------------------------ *)
(* Algebraic simplification                                            *)
(* ------------------------------------------------------------------ *)

(* Generic operand substitution over a function, shared by several
   passes. *)
let apply_subst (f : Ir.Func.t) (subst : (Ir.Instr.reg, Ir.Instr.operand) Hashtbl.t)
    ~drop =
  let rec resolve op =
    match op with
    | Ir.Instr.Reg r -> (
        match Hashtbl.find_opt subst r with
        | Some op' -> resolve op'
        | None -> op)
    | _ -> op
  in
  let rw_kind kind =
    let rw = resolve in
    let open Ir.Instr in
    match kind with
    | Binop (op, a, b) -> Binop (op, rw a, rw b)
    | Icmp (p, a, b) -> Icmp (p, rw a, rw b)
    | Fcmp (p, a, b) -> Fcmp (p, rw a, rw b)
    | Cast (c, a) -> Cast (c, rw a)
    | Select (c, a, b) -> Select (rw c, rw a, rw b)
    | Alloca _ as k -> k
    | Load a -> Load (rw a)
    | Store (v, a) -> Store (rw v, rw a)
    | Gep (b, i) -> Gep (rw b, rw i)
    | Gaddr _ as k -> k
    | Call (f, args) -> Call (f, List.map rw args)
    | Phi incoming -> Phi (List.map (fun (l, v) -> (l, rw v)) incoming)
    | Ci_call (ci, args) -> Ci_call (ci, List.map rw args)
  in
  Ir.Func.iter_blocks
    (fun b ->
      Ir.Block.set_instrs b
        (List.filter_map
           (fun (i : Ir.Instr.t) ->
             if drop && Hashtbl.mem subst i.Ir.Instr.id then None
             else Some { i with Ir.Instr.kind = rw_kind i.Ir.Instr.kind })
           b.Ir.Block.instrs);
      b.Ir.Block.term <-
        (match b.Ir.Block.term with
        | Ir.Instr.Ret (Some op) -> Ir.Instr.Ret (Some (resolve op))
        | Ir.Instr.Ret None as t -> t
        | Ir.Instr.Br _ as t -> t
        | Ir.Instr.Cond_br (c, x, y) -> Ir.Instr.Cond_br (resolve c, x, y)
        | Ir.Instr.Switch (s, d, cases) -> Ir.Instr.Switch (resolve s, d, cases)))
    f

let is_int_const v = function
  | Ir.Instr.Const (Ir.Instr.Cint (x, ty)) when Ir.Ty.is_int ty -> x = v
  | _ -> false

let is_float_const v = function
  | Ir.Instr.Const (Ir.Instr.Cfloat (x, _)) -> x = v
  | _ -> false

(* power of two -> shift amount *)
let log2_opt v =
  let rec go k x = if x = 1L then Some k else if Int64.rem x 2L <> 0L then None
    else go (k + 1) (Int64.div x 2L)
  in
  if v <= 0L then None else go 0 v

(** Identity/annihilator rewrites and strength reduction: [x+0], [x*1],
    [x*0], [x-x], [x^x], [x&x], [x|x], [x/1], shifts by 0, float
    [x*1.0]/[x+0.0] (fast-math style), and [x * 2^k -> x << k].
    Returns the number of rewrites. *)
let algebraic_simplify (f : Ir.Func.t) =
  let changed = ref 0 in
  let subst : (Ir.Instr.reg, Ir.Instr.operand) Hashtbl.t = Hashtbl.create 16 in
  let forward id op =
    Hashtbl.replace subst id op;
    incr changed
  in
  Ir.Func.iter_blocks
    (fun b ->
      Ir.Block.set_instrs b
        (List.map
           (fun (i : Ir.Instr.t) ->
             let open Ir.Instr in
             match i.kind with
             | Binop (Add, x, z) when is_int_const 0L z -> forward i.id x; i
             | Binop (Add, z, x) when is_int_const 0L z -> forward i.id x; i
             | Binop (Sub, x, z) when is_int_const 0L z -> forward i.id x; i
             | Binop (Sub, Reg a, Reg b) when a = b ->
                 forward i.id (Const (Cint (0L, i.ty))); i
             | Binop (Xor, Reg a, Reg b) when a = b ->
                 forward i.id (Const (Cint (0L, i.ty))); i
             | Binop ((And | Or), Reg a, Reg b) when a = b ->
                 forward i.id (Reg a); i
             | Binop (Mul, x, o) when is_int_const 1L o -> forward i.id x; i
             | Binop (Mul, o, x) when is_int_const 1L o -> forward i.id x; i
             | Binop (Mul, _, z) when is_int_const 0L z ->
                 forward i.id (Const (Cint (0L, i.ty))); i
             | Binop (Mul, z, _) when is_int_const 0L z ->
                 forward i.id (Const (Cint (0L, i.ty))); i
             | Binop (Sdiv, x, o) when is_int_const 1L o -> forward i.id x; i
             | Binop ((Shl | Lshr | Ashr), x, z) when is_int_const 0L z ->
                 forward i.id x; i
             | Binop (And, x, m) when is_int_const (-1L) m -> forward i.id x; i
             | Binop (And, m, x) when is_int_const (-1L) m -> forward i.id x; i
             | Binop (Or, x, z) when is_int_const 0L z -> forward i.id x; i
             | Binop (Or, z, x) when is_int_const 0L z -> forward i.id x; i
             | Binop (Xor, x, z) when is_int_const 0L z -> forward i.id x; i
             | Binop (Fmul, x, o) when is_float_const 1.0 o -> forward i.id x; i
             | Binop (Fmul, o, x) when is_float_const 1.0 o -> forward i.id x; i
             | Binop (Fadd, x, z) when is_float_const 0.0 z -> forward i.id x; i
             | Binop (Fadd, z, x) when is_float_const 0.0 z -> forward i.id x; i
             | Binop (Mul, x, Const (Cint (v, _)))
               when Ir.Ty.is_int i.ty && v > 1L -> (
                 (* strength reduction, kept as an instruction rewrite;
                    a single [match] so the power-of-two test and the
                    exponent come from the same [log2_opt] call *)
                 match log2_opt v with
                 | Some k ->
                     incr changed;
                     {
                       i with
                       kind =
                         Binop (Shl, x, Const (Cint (Int64.of_int k, i.ty)));
                     }
                 | None -> i)
             | _ -> i)
           b.Ir.Block.instrs))
    f;
  if Hashtbl.length subst > 0 then apply_subst f subst ~drop:true;
  !changed

(* ------------------------------------------------------------------ *)
(* Local load forwarding                                               *)
(* ------------------------------------------------------------------ *)

(** Within each block, forward memory values: a load from an address
    that was just stored to (or loaded from) with no intervening
    potentially-aliasing write reuses the known value.  Calls and any
    store to a *different* address conservatively invalidate the whole
    table (two register addresses may alias).  Returns the number of
    loads removed. *)
let load_forwarding (f : Ir.Func.t) =
  let removed = ref 0 in
  let subst : (Ir.Instr.reg, Ir.Instr.operand) Hashtbl.t = Hashtbl.create 16 in
  Ir.Func.iter_blocks
    (fun b ->
      let known : (Ir.Instr.operand, Ir.Instr.operand) Hashtbl.t =
        Hashtbl.create 8
      in
      let kept =
        List.filter
          (fun (i : Ir.Instr.t) ->
            match i.Ir.Instr.kind with
            | Ir.Instr.Load addr -> (
                match Hashtbl.find_opt known addr with
                | Some v ->
                    Hashtbl.replace subst i.Ir.Instr.id v;
                    incr removed;
                    false
                | None ->
                    Hashtbl.replace known addr (Ir.Instr.Reg i.Ir.Instr.id);
                    true)
            | Ir.Instr.Store (v, addr) ->
                Hashtbl.reset known;
                Hashtbl.replace known addr v;
                true
            | Ir.Instr.Call _ | Ir.Instr.Ci_call _ ->
                Hashtbl.reset known;
                true
            | _ -> true)
          b.Ir.Block.instrs
      in
      Ir.Block.set_instrs b kept)
    f;
  if Hashtbl.length subst > 0 then apply_subst f subst ~drop:false;
  !removed

(* ------------------------------------------------------------------ *)
(* Block merging                                                       *)
(* ------------------------------------------------------------------ *)

(** Splice single-predecessor blocks into their predecessor: when block
    [B] ends with an unconditional branch to [T], [T]'s only
    predecessor is [B], and [T] starts with no phi, [T]'s body is
    appended to [B].  Combined with unrolling this is what produces the
    large straight-line blocks of an -O3 bitcode.  Returns the number
    of merges. *)
let merge_blocks (f : Ir.Func.t) =
  let merged = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    let cfg = Ir.Cfg.of_func f in
    let n = Ir.Func.num_blocks f in
    (try
       for b = 0 to n - 1 do
         let blk = Ir.Func.block f b in
         match blk.Ir.Block.term with
         | Ir.Instr.Br t
           when t <> b
                && t <> Ir.Func.entry_label
                && Ir.Cfg.preds cfg t = [ b ]
                && Ir.Block.phis (Ir.Func.block f t) = [] ->
             let tb = Ir.Func.block f t in
             Ir.Block.set_instrs blk
               (blk.Ir.Block.instrs @ tb.Ir.Block.instrs);
             blk.Ir.Block.term <- tb.Ir.Block.term;
             (* successors of [t] now see [b] as their predecessor *)
             List.iter
               (fun s ->
                 let sb = Ir.Func.block f s in
                 Ir.Block.set_instrs sb
                   (List.map
                      (fun (i : Ir.Instr.t) ->
                        match i.Ir.Instr.kind with
                        | Ir.Instr.Phi incoming ->
                            {
                              i with
                              Ir.Instr.kind =
                                Ir.Instr.Phi
                                  (List.map
                                     (fun (l, v) ->
                                       ((if l = t then b else l), v))
                                     incoming);
                            }
                        | _ -> i)
                      sb.Ir.Block.instrs))
               (Ir.Cfg.succs cfg t);
             (* [t] becomes unreachable; drop it and restart (labels
                shift) *)
             Ir.Block.set_instrs tb [];
             tb.Ir.Block.term <- Ir.Instr.Ret None;
             incr merged;
             progress := true;
             raise Exit
         | _ -> ()
       done
     with Exit -> ());
    if !progress then ignore (remove_unreachable f)
  done;
  !merged

(* ------------------------------------------------------------------ *)
(* Local common subexpression elimination                              *)
(* ------------------------------------------------------------------ *)

(** Within each block, reuse the result of an earlier pure instruction
    with identical opcode and operands.  Loads are not CSE'd (stores may
    intervene).  Returns the number of eliminated instructions. *)
let local_cse (f : Ir.Func.t) =
  let changed = ref 0 in
  Ir.Func.iter_blocks
    (fun b ->
      let seen : (Ir.Instr.kind, Ir.Instr.reg) Hashtbl.t = Hashtbl.create 16 in
      let subst : (Ir.Instr.reg, Ir.Instr.reg) Hashtbl.t = Hashtbl.create 16 in
      let rec canon r =
        match Hashtbl.find_opt subst r with Some r' -> canon r' | None -> r
      in
      let rw_op = function
        | Ir.Instr.Reg r -> Ir.Instr.Reg (canon r)
        | c -> c
      in
      let rw_kind kind =
        let open Ir.Instr in
        match kind with
        | Binop (op, a, b) -> Binop (op, rw_op a, rw_op b)
        | Icmp (p, a, b) -> Icmp (p, rw_op a, rw_op b)
        | Fcmp (p, a, b) -> Fcmp (p, rw_op a, rw_op b)
        | Cast (c, a) -> Cast (c, rw_op a)
        | Select (c, a, b) -> Select (rw_op c, rw_op a, rw_op b)
        | Alloca _ as k -> k
        | Load a -> Load (rw_op a)
        | Store (v, a) -> Store (rw_op v, rw_op a)
        | Gep (base, i) -> Gep (rw_op base, rw_op i)
        | Gaddr _ as k -> k
        | Call (f, args) -> Call (f, List.map rw_op args)
        | Phi incoming -> Phi (List.map (fun (l, v) -> (l, rw_op v)) incoming)
        | Ci_call (ci, args) -> Ci_call (ci, List.map rw_op args)
      in
      let pure kind =
        match kind with
        | Ir.Instr.Binop _ | Ir.Instr.Icmp _ | Ir.Instr.Fcmp _
        | Ir.Instr.Cast _ | Ir.Instr.Select _ | Ir.Instr.Gep _
        | Ir.Instr.Gaddr _ ->
            true
        | _ -> false
      in
      let kept =
        List.filter_map
          (fun (i : Ir.Instr.t) ->
            let kind = rw_kind i.Ir.Instr.kind in
            if pure kind then
              match Hashtbl.find_opt seen kind with
              | Some earlier ->
                  Hashtbl.replace subst i.Ir.Instr.id earlier;
                  incr changed;
                  None
              | None ->
                  Hashtbl.replace seen kind i.Ir.Instr.id;
                  Some { i with Ir.Instr.kind = kind }
            else Some { i with Ir.Instr.kind = kind })
          b.Ir.Block.instrs
      in
      Ir.Block.set_instrs b kept;
      b.Ir.Block.term <-
        (match b.Ir.Block.term with
        | Ir.Instr.Ret (Some op) -> Ir.Instr.Ret (Some (rw_op op))
        | Ir.Instr.Ret None as t -> t
        | Ir.Instr.Br _ as t -> t
        | Ir.Instr.Cond_br (c, x, y) -> Ir.Instr.Cond_br (rw_op c, x, y)
        | Ir.Instr.Switch (s, d, cases) -> Ir.Instr.Switch (rw_op s, d, cases));
      (* CSE substitutions are block-local in creation but must be
         applied to later blocks too (dominance holds trivially since
         the definition precedes in the same block; uses in later blocks
         refer to the eliminated register). *)
      if Hashtbl.length subst > 0 then
        Ir.Func.iter_blocks
          (fun b' ->
            if b'.Ir.Block.label <> b.Ir.Block.label then begin
              Ir.Block.set_instrs b'
                (List.map
                   (fun (i : Ir.Instr.t) ->
                     { i with Ir.Instr.kind = rw_kind i.Ir.Instr.kind })
                   b'.Ir.Block.instrs);
              b'.Ir.Block.term <-
                (match b'.Ir.Block.term with
                | Ir.Instr.Ret (Some op) -> Ir.Instr.Ret (Some (rw_op op))
                | Ir.Instr.Ret None as t -> t
                | Ir.Instr.Br _ as t -> t
                | Ir.Instr.Cond_br (c, x, y) -> Ir.Instr.Cond_br (rw_op c, x, y)
                | Ir.Instr.Switch (s, d, cases) ->
                    Ir.Instr.Switch (rw_op s, d, cases))
            end)
          f)
    f;
  !changed

(* ------------------------------------------------------------------ *)
(* Dead code elimination                                               *)
(* ------------------------------------------------------------------ *)

(* Liveness of a single instruction given the use table. *)
let instr_is_live (i : Ir.Instr.t) used =
  Ir.Instr.has_side_effect i.Ir.Instr.kind
  || i.Ir.Instr.ty = Ir.Ty.Void
  || Hashtbl.mem used i.Ir.Instr.id

(** Remove side-effect-free instructions whose results are never used,
    iterating until stable within the function.  Returns the number of
    removed instructions. *)
let dead_code_elim (f : Ir.Func.t) =
  let removed = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    let used = Hashtbl.create 64 in
    let mark op =
      match op with Ir.Instr.Reg r -> Hashtbl.replace used r () | _ -> ()
    in
    Ir.Func.iter_blocks
      (fun b ->
        List.iter
          (fun (i : Ir.Instr.t) ->
            List.iter mark (Ir.Instr.operands i.Ir.Instr.kind))
          b.Ir.Block.instrs;
        List.iter mark (Ir.Instr.terminator_operands b.Ir.Block.term))
      f;
    Ir.Func.iter_blocks
      (fun b ->
        let kept =
          List.filter
            (fun (i : Ir.Instr.t) ->
              let dead = not (instr_is_live i used) in
              if dead then begin
                incr removed;
                progress := true
              end;
              not dead)
            b.Ir.Block.instrs
        in
        Ir.Block.set_instrs b kept)
      f
  done;
  !removed

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

(** Run the full -O3-style pipeline on a module, in place: each
    function repeats the passes until none changes anything (at most 8
    rounds). *)
let optimize_module (m : Ir.Irmod.t) =
  List.iter (fun f -> ignore (remove_unreachable f)) m.Ir.Irmod.funcs;
  Mem2reg.run_module m;
  List.iter
    (fun f ->
      let rounds = ref 0 in
      let progress = ref true in
      while !progress && !rounds < 8 do
        incr rounds;
        let c1 = fold_constants f in
        let c2 = remove_unreachable f in
        let c5 = merge_blocks f in
        let c6 = algebraic_simplify f in
        let c3 = local_cse f in
        let c7 = load_forwarding f in
        let c4 = dead_code_elim f in
        progress := c1 + c2 + c3 + c4 + c5 + c6 + c7 > 0
      done)
    m.Ir.Irmod.funcs
