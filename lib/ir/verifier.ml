(** IR well-formedness: the precondition of the VM.

    Beyond well-typed operands, a module must have: instruction ids and
    register operands in [[0, next_reg)], parameter [k] as register [k]
    (never [Void]) and no id defined twice; every use dominated by its
    definition, a phi's value available at the end of its predecessor
    (uses in unreachable blocks are exempt from dominance only); phis
    leading their block, outside the entry block, naming exactly its
    predecessors; branch targets inside the function; constants of their
    type's class; every [Gaddr] naming a global of the module (so the VM
    resolves global addresses when it compiles); and calls to module
    functions that match the callee's arity, parameter types and return
    type (intrinsic and CI operands are checked when they run).
    [Compiler.compile] checks every module it produces and
    [Vm.Machine.run] every module it runs, so the check
    allocates per register and block (arrays, the CFG and its dominator
    tree) and per phi or call, nothing for other instructions. *)

type error = { func : string; block : int option; message : string }

let pp_error ppf e =
  match e.block with
  | None -> Format.fprintf ppf "%s: %s" e.func e.message
  | Some b -> Format.fprintf ppf "%s/bb%d: %s" e.func b e.message

(* One function's checking state.  Per register: its type ([Void] for an
   id that defines no value), its defining block ([-1] while undefined)
   and its position there ([-1] for a parameter).  The checks are
   top-level functions over this record, so they build no closures. *)
type cx = {
  m : Irmod.t;
  f : Func.t;
  errors : error list ref;
  tys : Ty.t array;
  def_block : int array;
  def_pos : int array;
  cfg : Cfg.t;
  idom : int array;  (** [-1] for an unreachable block *)
}

let err cx block fmt =
  Printf.ksprintf
    (fun message ->
      cx.errors := { func = cx.f.Func.name; block; message } :: !(cx.errors))
    fmt

let in_range cx r = r >= 0 && r < Array.length cx.tys

(* [d] dominates the reachable block [b]. *)
let rec dominates cx d b =
  b = d || (b <> Func.entry_label && dominates cx d cx.idom.(b))

(* An operand's type; [Void] for a register that defines no value. *)
let ty_of cx = function
  | Instr.Const c -> Instr.const_ty c
  | Instr.Reg r -> if in_range cx r then cx.tys.(r) else Ty.Void

(* The name of the instruction at position [k] of block [b] ([k] = the
   block's size: its terminator), looked up only to word an error. *)
let ctx cx b k =
  match List.nth_opt cx.f.Func.blocks.(b).Block.instrs k with
  | Some i -> Instr.opcode_name i.Instr.kind
  | None -> "terminator"

(* A read of [op] at position [k] of block [b], of type [ty] unless
   [ty] is [Void].  A phi reads at the end of its predecessor [pred]; a
   label naming no reachable block is exempt (the label check reports a
   bad one). *)
let use cx b k ?pred op ty =
  (match op with
  | Instr.Const c ->
      let fits =
        match c with
        | Instr.Cint (_, t) -> Ty.is_int t || t = Ty.Ptr
        | Instr.Cfloat (_, t) -> Ty.is_float t
      in
      if not fits then
        err cx (Some b) "%s: constant %s does not fit its type" (ctx cx b k)
          (Format.asprintf "%a" Instr.pp_const c)
  | Instr.Reg r ->
      if (not (in_range cx r)) || cx.tys.(r) = Ty.Void then
        err cx (Some b) "%s uses undefined register %%%d" (ctx cx b k) r
      else if cx.idom.(b) >= 0 then
        let d = cx.def_block.(r) in
        let ok =
          match pred with
          | None -> if d = b then cx.def_pos.(r) < k else dominates cx d b
          | Some p ->
              p < 0
              || p >= Array.length cx.idom
              || cx.idom.(p) < 0
              || dominates cx d p
        in
        if not ok then
          err cx (Some b)
            "%s: the definition of %%%d does not dominate this use"
            (ctx cx b k) r);
  let t = ty_of cx op in
  if ty <> Ty.Void && t <> Ty.Void && not (Ty.equal t ty) then
    err cx (Some b) "%s: operand has type %s, expected %s" (ctx cx b k)
      (Ty.to_string t) (Ty.to_string ty)

let check_label cx b l =
  if l < 0 || l >= Array.length cx.idom then
    err cx (Some b) "branch to missing block bb%d" l

let result cx b k (i : Instr.t) want =
  if i.Instr.ty <> want then
    err cx (Some b) "%s %%%d must produce %s" (ctx cx b k) i.Instr.id
      (Ty.to_string want)

let rec has_global g = function
  | [] -> false
  | (gl : Irmod.global) :: rest ->
      String.equal gl.Irmod.gname g || has_global g rest

let check_instr cx b k (i : Instr.t) =
  let ty = i.Instr.ty and id = i.Instr.id in
  match i.Instr.kind with
  | Instr.Phi incoming ->
      let preds = Cfg.preds cx.cfg b in
      if b = Func.entry_label then
        err cx (Some b) "phi %%%d in the entry block" id;
      if
        not
          (List.for_all (fun (l, _) -> List.mem l preds) incoming
          && List.for_all (fun p -> List.mem_assoc p incoming) preds)
      then
        err cx (Some b) "phi %%%d incoming labels do not match predecessors" id;
      List.iter (fun (pred, op) -> use cx b k ~pred op ty) incoming
  | Instr.Binop (op, x, y) ->
      let float_op =
        match op with
        | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv -> true
        | _ -> false
      in
      if not (if float_op then Ty.is_float ty else Ty.is_int ty) then
        err cx (Some b) "%s %%%d has result type %s" (ctx cx b k) id
          (Ty.to_string ty);
      use cx b k x ty;
      use cx b k y ty
  | Instr.Icmp (_, x, y) | Instr.Fcmp (_, x, y) ->
      result cx b k i Ty.I1;
      use cx b k x Ty.Void;
      use cx b k y (ty_of cx x)
  | Instr.Select (c, x, y) ->
      use cx b k c Ty.I1;
      use cx b k x ty;
      use cx b k y ty
  | Instr.Store (v, addr) ->
      use cx b k v Ty.Void;
      use cx b k addr Ty.Ptr
  | Instr.Load addr ->
      use cx b k addr Ty.Ptr;
      if ty = Ty.Void then err cx (Some b) "load %%%d has void type" id
  | Instr.Gep (base, idx) ->
      use cx b k base Ty.Ptr;
      use cx b k idx Ty.Void;
      result cx b k i Ty.Ptr
  | Instr.Alloca (_, n) ->
      if n <= 0 then err cx (Some b) "alloca %%%d with non-positive size" id;
      result cx b k i Ty.Ptr
  | Instr.Gaddr g ->
      result cx b k i Ty.Ptr;
      if not (has_global g cx.m.Irmod.globals) then
        err cx (Some b) "gaddr %%%d names unknown global @%s" id g
  | Instr.Cast (_, x) -> use cx b k x Ty.Void
  | Instr.Ci_call (_, args) -> List.iter (fun op -> use cx b k op Ty.Void) args
  | Instr.Call (name, args) -> (
      match Irmod.find_func cx.m name with
      | None -> List.iter (fun op -> use cx b k op Ty.Void) args
      | Some callee ->
          let params = callee.Func.params in
          if List.compare_lengths args params <> 0 then begin
            err cx (Some b) "call to @%s with %d arguments, expected %d" name
              (List.length args) (List.length params);
            List.iter (fun op -> use cx b k op Ty.Void) args
          end
          else List.iter2 (fun op (_, t) -> use cx b k op t) args params;
          if ty <> callee.Func.ret_ty then
            err cx (Some b) "call to @%s has type %s, the callee returns %s"
              name (Ty.to_string ty)
              (Ty.to_string callee.Func.ret_ty))

(* Check block [b]'s instructions from position [k]; returns the
   block's size. *)
let rec check_instrs cx b k seen_non_phi = function
  | [] -> k
  | (i : Instr.t) :: rest ->
      let is_phi = match i.Instr.kind with Instr.Phi _ -> true | _ -> false in
      if is_phi && seen_non_phi then
        err cx (Some b) "phi %%%d after non-phi" i.Instr.id;
      check_instr cx b k i;
      check_instrs cx b (k + 1) (seen_non_phi || not is_phi) rest

let check_block cx b =
  let blk = cx.f.Func.blocks.(b) in
  let n = check_instrs cx b 0 false blk.Block.instrs in
  let ret_ty = cx.f.Func.ret_ty in
  match blk.Block.term with
  | Instr.Ret None ->
      if ret_ty <> Ty.Void then err cx (Some b) "ret void in non-void function"
  | Instr.Ret (Some op) ->
      if ret_ty = Ty.Void then err cx (Some b) "ret value in void function";
      use cx b n op ret_ty
  | Instr.Br l -> check_label cx b l
  | Instr.Cond_br (c, x, y) ->
      use cx b n c Ty.I1;
      check_label cx b x;
      check_label cx b y
  | Instr.Switch (s, d, cases) ->
      use cx b n s Ty.Void;
      check_label cx b d;
      List.iter (fun (_, l) -> check_label cx b l) cases

(* Record block [b]'s definitions from position [k]. *)
let rec define cx b k = function
  | [] -> ()
  | (i : Instr.t) :: rest ->
      let r = i.Instr.id in
      if not (in_range cx r) then err cx (Some b) "register %%%d out of range" r
      else if cx.def_block.(r) >= 0 then
        err cx (Some b) "register %%%d defined twice" r
      else begin
        cx.tys.(r) <- i.Instr.ty;
        cx.def_block.(r) <- b;
        cx.def_pos.(r) <- k
      end;
      define cx b (k + 1) rest

let check_func m (f : Func.t) errors =
  let nblocks = Func.num_blocks f and nregs = max 0 f.Func.next_reg in
  let cfg = Cfg.of_func f in
  let cx =
    {
      m;
      f;
      errors;
      tys = Array.make nregs Ty.Void;
      def_block = Array.make nregs (-1);
      def_pos = Array.make nregs 0;
      cfg;
      idom = (Dom.compute cfg).Dom.idom;
    }
  in
  List.iteri
    (fun k (r, ty) ->
      if r <> k || not (in_range cx r) then
        err cx None "parameter %d is register %%%d, not %%%d" k r k
      else if ty = Ty.Void then err cx None "parameter %d has type void" k
      else begin
        cx.tys.(r) <- ty;
        cx.def_block.(r) <- Func.entry_label;
        cx.def_pos.(r) <- -1
      end)
    f.Func.params;
  for b = 0 to nblocks - 1 do
    define cx b 0 f.Func.blocks.(b).Block.instrs
  done;
  if nblocks = 0 then err cx None "function has no blocks";
  for b = 0 to nblocks - 1 do
    check_block cx b
  done

let check_module (m : Irmod.t) =
  let errors = ref [] in
  List.iter (fun f -> check_func m f errors) m.Irmod.funcs;
  List.rev !errors

let errors_to_string errors =
  String.concat "\n" (List.map (Format.asprintf "%a" pp_error) errors)
