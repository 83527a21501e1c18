(** The -O3-style optimizer pipeline.

    Passes, in [optimize_module]'s order: unreachable-block elimination
    (with label renumbering) and {!Mem2reg} once, then rounds of
    constant folding with branch simplification, unreachable-block
    elimination, block merging, algebraic simplification, local
    common-subexpression elimination, local load forwarding and
    dead-code elimination, repeated to a bounded fixpoint.  This
    mirrors the role of llvm-gcc's [-O3] in the paper's
    compilation-to-bitcode stage.  Every operand rewrite goes through
    {!Ir.Func.substitute}, and every phi-edge edit through
    {!Ir.Block.map_phis}. *)

module Ir = Jitise_ir

(* ------------------------------------------------------------------ *)
(* Unreachable block elimination                                       *)
(* ------------------------------------------------------------------ *)

let remap_term map = function
  | Ir.Instr.Ret _ as t -> t
  | Ir.Instr.Br l -> Ir.Instr.Br (map l)
  | Ir.Instr.Cond_br (c, a, b) -> Ir.Instr.Cond_br (c, map a, map b)
  | Ir.Instr.Switch (s, d, cases) ->
      Ir.Instr.Switch (s, map d, List.map (fun (v, l) -> (v, map l)) cases)

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
          Ir.Block.map_phis
            (List.filter_map (fun (l, v) ->
                 if reach.(l) then Some (map l, v) else None))
            b;
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
  let resolve = Ir.Func.resolve subst in
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
  if Hashtbl.length subst > 0 then Ir.Func.substitute f subst ~drop:true;
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
          if dropped <> taken then
            Ir.Block.map_phis
              (List.filter (fun (l, _) -> l <> b.Ir.Block.label))
              (Ir.Func.block f dropped)
      | Ir.Instr.Cond_br (_, x, y) when x = y ->
          b.Ir.Block.term <- Ir.Instr.Br x;
          incr changed
      | _ -> ())
    f;
  !changed

(* ------------------------------------------------------------------ *)
(* Algebraic simplification                                            *)
(* ------------------------------------------------------------------ *)

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
  if Hashtbl.length subst > 0 then Ir.Func.substitute f subst ~drop:true;
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
  if Hashtbl.length subst > 0 then Ir.Func.substitute f subst ~drop:false;
  !removed

(* ------------------------------------------------------------------ *)
(* Block merging                                                       *)
(* ------------------------------------------------------------------ *)

(** Splice single-predecessor blocks into their predecessor: when block
    [B] ends with an unconditional branch to [T], [T]'s only
    predecessor is [B], and [T] starts with no phi, [T]'s body is
    appended to [B].  Combined with unrolling this is what produces the
    large straight-line blocks of an -O3 bitcode.  Returns the number
    of merges.

    One CFG serves the whole call.  Blocks are visited in label order
    and each absorbs its whole chain; a merge only moves the absorbed
    block's terminator to the head, so no block's predecessor count and
    no phi list changes.  [owner.(b)] names the block whose original
    terminator [b] ends with, the predecessor the CFG lists for [b]'s
    branch target.  The absorbed blocks become unreachable and one
    {!remove_unreachable} at the end drops them. *)
let merge_blocks (f : Ir.Func.t) =
  let cfg = Ir.Cfg.of_func f in
  let owner = Array.init (Ir.Func.num_blocks f) Fun.id in
  let merged = ref 0 in
  let rec absorb b =
    let blk = Ir.Func.block f b in
    match blk.Ir.Block.term with
    | Ir.Instr.Br t
      when t <> b
           && t <> Ir.Func.entry_label
           && Ir.Cfg.preds cfg t = [ owner.(b) ]
           && Ir.Block.phis (Ir.Func.block f t) = [] ->
        let tb = Ir.Func.block f t in
        Ir.Block.set_instrs blk (blk.Ir.Block.instrs @ tb.Ir.Block.instrs);
        blk.Ir.Block.term <- tb.Ir.Block.term;
        owner.(b) <- owner.(t);
        (* successors of [t] now see [b] as their predecessor *)
        List.iter
          (fun s ->
            Ir.Block.map_phis
              (List.map (fun (l, v) -> ((if l = t then b else l), v)))
              (Ir.Func.block f s))
          (Ir.Cfg.succs cfg owner.(t));
        Ir.Block.set_instrs tb [];
        tb.Ir.Block.term <- Ir.Instr.Ret None;
        incr merged;
        absorb b
    | _ -> ()
  in
  for b = 0 to Ir.Func.num_blocks f - 1 do
    absorb b
  done;
  if !merged > 0 then ignore (remove_unreachable f);
  !merged

(* ------------------------------------------------------------------ *)
(* Local common subexpression elimination                              *)
(* ------------------------------------------------------------------ *)

(** Within each block, reuse the result of an earlier pure instruction
    with identical opcode and operands.  Loads are not CSE'd (stores may
    intervene).  One substitution serves the whole function: each
    block's operands go through it as the block is scanned, and it is
    applied to the whole function once at the end, because a
    loop-header phi reads its latch's registers from a block with a
    higher label.  Returns the number of eliminated instructions. *)
let local_cse (f : Ir.Func.t) =
  let changed = ref 0 in
  let subst : (Ir.Instr.reg, Ir.Instr.operand) Hashtbl.t = Hashtbl.create 16 in
  let resolve = Ir.Func.resolve subst in
  let pure = function
    | Ir.Instr.Binop _ | Ir.Instr.Icmp _ | Ir.Instr.Fcmp _ | Ir.Instr.Cast _
    | Ir.Instr.Select _ | Ir.Instr.Gep _ | Ir.Instr.Gaddr _ ->
        true
    | _ -> false
  in
  Ir.Func.iter_blocks
    (fun b ->
      let seen : (Ir.Instr.kind, Ir.Instr.reg) Hashtbl.t = Hashtbl.create 16 in
      Ir.Block.set_instrs b
        (List.filter_map
           (fun (i : Ir.Instr.t) ->
             let kind = Ir.Instr.map_operands resolve i.Ir.Instr.kind in
             if not (pure kind) then Some { i with Ir.Instr.kind = kind }
             else
               match Hashtbl.find_opt seen kind with
               | Some earlier ->
                   Hashtbl.replace subst i.Ir.Instr.id (Ir.Instr.Reg earlier);
                   incr changed;
                   None
               | None ->
                   Hashtbl.replace seen kind i.Ir.Instr.id;
                   Some { i with Ir.Instr.kind = kind })
           b.Ir.Block.instrs))
    f;
  if !changed > 0 then Ir.Func.substitute f subst ~drop:false;
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
