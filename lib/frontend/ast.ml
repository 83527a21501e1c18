(** Abstract syntax of MiniC.

    MiniC is the C subset the benchmark kernels are written in: [int],
    [long], [float], [double] scalars; fixed-size global arrays (1-D and
    2-D); functions; [if]/[while]/[for] control flow; the usual C
    operators with short-circuit [&&]/[||].  Pointers, structs and
    local arrays are intentionally absent. *)

module Ty = Jitise_ir.Ty

type base_ty = Tint | Tlong | Tfloat | Tdouble

type unop = Neg | Not | Bnot

type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor  (** short-circuit *)

type expr = { desc : expr_desc; line : int }

and expr_desc =
  | Int_lit of int64
  | Float_lit of float
  | Var of string
  | Index of string * expr list  (** [a\[i\]] or [m\[i\]\[j\]] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list

type lvalue =
  | Lvar of string
  | Lindex of string * expr list

type stmt = { sdesc : stmt_desc; sline : int }

and stmt_desc =
  | Decl of base_ty * string * expr option
  | Assign of lvalue * expr
  | Expr of expr  (** expression for side effects, e.g. a bare call *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt option * expr option * stmt option * stmt list
  | Return of expr option
  | Break
  | Continue

type param = { pty : base_ty; pname : string }

type func = {
  fname : string;
  fret : base_ty option;  (** [None] = void *)
  fparams : param list;
  fbody : stmt list;
  fline : int;
}

(** A global scalar or array declaration.  [dims = []] for scalars. *)
type global = {
  gname : string;
  gty : base_ty;
  dims : int list;  (** at most two dimensions *)
  ginit : init option;
  gline : int;
}

and init = Scalar_init of expr | Array_init of expr list

type decl = Dglobal of global | Dfunc of func

type program = decl list

(** IR type of a MiniC base type. *)
let ir_ty = function
  | Tint -> Ty.I32
  | Tlong -> Ty.I64
  | Tfloat -> Ty.F32
  | Tdouble -> Ty.F64
