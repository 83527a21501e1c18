(** Textual rendering of IR modules, LLVM-flavoured, for humans: the
    [inspect] and [compile] commands print it.  Nothing reads it back;
    stores and digests use the binary [Codecs.irmod] encoding. *)

open Format

let pp_operand = Instr.pp_operand

let pp_args ppf args =
  pp_print_list
    ~pp_sep:(fun ppf () -> fprintf ppf ", ")
    pp_operand ppf args

let pp_kind ppf (i : Instr.t) =
  match i.kind with
  | Instr.Binop (op, a, b) ->
      fprintf ppf "%s %a %a, %a" (Instr.binop_name op) Ty.pp i.ty pp_operand a
        pp_operand b
  | Instr.Icmp (p, a, b) ->
      fprintf ppf "icmp %s %a, %a" (Instr.icmp_name p) pp_operand a pp_operand b
  | Instr.Fcmp (p, a, b) ->
      fprintf ppf "fcmp %s %a, %a" (Instr.fcmp_name p) pp_operand a pp_operand b
  | Instr.Cast (c, a) ->
      fprintf ppf "%s %a to %a" (Instr.cast_name c) pp_operand a Ty.pp i.ty
  | Instr.Select (c, a, b) ->
      fprintf ppf "select %a %a, %a, %a" Ty.pp i.ty pp_operand c pp_operand a
        pp_operand b
  | Instr.Alloca (ty, n) -> fprintf ppf "alloca %a, %d" Ty.pp ty n
  | Instr.Load a -> fprintf ppf "load %a %a" Ty.pp i.ty pp_operand a
  | Instr.Store (v, a) -> fprintf ppf "store %a, %a" pp_operand v pp_operand a
  | Instr.Gep (b, idx) -> fprintf ppf "gep %a, %a" pp_operand b pp_operand idx
  | Instr.Gaddr g -> fprintf ppf "gaddr @%s" g
  | Instr.Call (f, args) ->
      fprintf ppf "call %a @%s(%a)" Ty.pp i.ty f pp_args args
  | Instr.Phi incoming ->
      fprintf ppf "phi %a %a" Ty.pp i.ty
        (pp_print_list
           ~pp_sep:(fun ppf () -> fprintf ppf ", ")
           (fun ppf (l, op) -> fprintf ppf "[bb%d: %a]" l pp_operand op))
        incoming
  | Instr.Ci_call (ci, args) -> fprintf ppf "ci %d (%a)" ci pp_args args

let pp_instr ppf (i : Instr.t) =
  if i.ty = Ty.Void then fprintf ppf "  %a" pp_kind i
  else fprintf ppf "  %%%d = %a" i.id pp_kind i

let pp_term ppf = function
  | Instr.Ret None -> fprintf ppf "  ret void"
  | Instr.Ret (Some op) -> fprintf ppf "  ret %a" pp_operand op
  | Instr.Br l -> fprintf ppf "  br bb%d" l
  | Instr.Cond_br (c, a, b) ->
      fprintf ppf "  condbr %a, bb%d, bb%d" pp_operand c a b
  | Instr.Switch (s, d, cases) ->
      fprintf ppf "  switch %a, bb%d [%a]" pp_operand s d
        (pp_print_list
           ~pp_sep:(fun ppf () -> fprintf ppf ", ")
           (fun ppf (v, l) -> fprintf ppf "%Ld: bb%d" v l))
        cases

let pp_block ppf (b : Block.t) =
  fprintf ppf "bb%d: ; %s@\n" b.Block.label b.Block.name;
  List.iter (fun i -> fprintf ppf "%a@\n" pp_instr i) b.Block.instrs;
  fprintf ppf "%a@\n" pp_term b.Block.term

let pp_func ppf (f : Func.t) =
  fprintf ppf "func %a @%s(%a) {@\n" Ty.pp f.Func.ret_ty f.Func.name
    (pp_print_list
       ~pp_sep:(fun ppf () -> fprintf ppf ", ")
       (fun ppf (r, ty) -> fprintf ppf "%%%d: %a" r Ty.pp ty))
    f.Func.params;
  Func.iter_blocks (fun b -> pp_block ppf b) f;
  fprintf ppf "}@\n"

let pp_global ppf (g : Irmod.global) =
  match g.Irmod.ginit with
  | Irmod.Zero ->
      fprintf ppf "global @%s : %a[%d] = zero@\n" g.Irmod.gname Ty.pp
        g.Irmod.gty g.Irmod.gsize
  | Irmod.Ints a ->
      fprintf ppf "global @%s : %a[%d] = ints {%a}@\n" g.Irmod.gname Ty.pp
        g.Irmod.gty g.Irmod.gsize
        (pp_print_list
           ~pp_sep:(fun ppf () -> fprintf ppf ", ")
           (fun ppf v -> fprintf ppf "%Ld" v))
        (Array.to_list a)
  | Irmod.Floats a ->
      fprintf ppf "global @%s : %a[%d] = floats {%a}@\n" g.Irmod.gname Ty.pp
        g.Irmod.gty g.Irmod.gsize
        (pp_print_list
           ~pp_sep:(fun ppf () -> fprintf ppf ", ")
           (fun ppf v -> fprintf ppf "%h" v))
        (Array.to_list a)

let pp_module ppf (m : Irmod.t) =
  fprintf ppf "module %s@\n" m.Irmod.mname;
  List.iter (pp_global ppf) m.Irmod.globals;
  List.iter (fun f -> fprintf ppf "@\n%a" pp_func f) m.Irmod.funcs

let module_to_string m = Format.asprintf "%a" pp_module m
