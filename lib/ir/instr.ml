(** Bitcode instructions.

    Instructions are in SSA form: each instruction with a non-[Void]
    type defines exactly one virtual register, named by its [id].
    Operands are registers or immediate constants.  Control flow lives
    in block terminators, not in the instruction list. *)

type reg = int
(** SSA value id.  Function parameters and instructions share one id
    space per function. *)

type label = int
(** Basic-block index within its function. *)

(** Immediate constants.  Integer constants carry their type so width
    semantics (wrapping, comparisons) are unambiguous. *)
type const =
  | Cint of int64 * Ty.t
  | Cfloat of float * Ty.t

type operand =
  | Reg of reg
  | Const of const

(** Integer and floating binary operators. *)
type binop =
  | Add | Sub | Mul | Sdiv | Udiv | Srem | Urem
  | And | Or | Xor | Shl | Lshr | Ashr
  | Fadd | Fsub | Fmul | Fdiv

(** Integer comparison predicates (signed and unsigned). *)
type icmp_pred = Ieq | Ine | Islt | Isle | Isgt | Isge | Iult | Iule | Iugt | Iuge

(** Ordered floating comparison predicates. *)
type fcmp_pred = Foeq | Fone | Folt | Fole | Fogt | Foge

(** Value conversions. *)
type cast =
  | Trunc   (** int -> narrower int *)
  | Zext    (** int -> wider int, zero-extended *)
  | Sext    (** int -> wider int, sign-extended *)
  | Fptosi  (** float -> signed int *)
  | Sitofp  (** signed int -> float *)
  | Fpext   (** f32 -> f64 *)
  | Fptrunc (** f64 -> f32 *)
  | Bitcast (** same-width reinterpretation *)

type kind =
  | Binop of binop * operand * operand
  | Icmp of icmp_pred * operand * operand
  | Fcmp of fcmp_pred * operand * operand
  | Cast of cast * operand
  | Select of operand * operand * operand
      (** [Select (cond, if_true, if_false)] *)
  | Alloca of Ty.t * int
      (** [Alloca (elem_ty, count)] reserves [count] cells in the frame
          and yields their base address. *)
  | Load of operand  (** [Load addr]; result type is the instr type *)
  | Store of operand * operand  (** [Store (value, addr)]; type [Void] *)
  | Gep of operand * operand
      (** [Gep (base, index)]: cell-addressed pointer arithmetic,
          [base + index]. *)
  | Gaddr of string
      (** Address of a module global; resolved by the VM loader. *)
  | Call of string * operand list
      (** Direct call by symbol name (IR function or VM intrinsic). *)
  | Phi of (label * operand) list
      (** SSA merge; one entry per predecessor block. *)
  | Ci_call of int * operand list
      (** Invocation of custom instruction [#id] after binary
          adaptation; the JIT rewriter introduces these, the frontend
          never emits them. *)

type t = {
  id : reg;       (** register defined by this instruction *)
  ty : Ty.t;      (** type of the defined value; [Void] for stores *)
  kind : kind;
}

type terminator =
  | Ret of operand option
  | Br of label
  | Cond_br of operand * label * label
      (** [Cond_br (cond, if_true, if_false)] *)
  | Switch of operand * label * (int64 * label) list
      (** [Switch (scrutinee, default, cases)] *)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(** [has_side_effect k] holds for instructions that may not be removed
    even when their result is unused. *)
let has_side_effect = function
  | Store _ | Call _ | Ci_call _ | Alloca _ -> true
  | _ -> false

(** [hw_feasible k] decides whether an instruction may be absorbed into
    a hardware custom instruction.  Memory accesses, address
    arithmetic, calls and SSA merges are infeasible — the same
    restriction the paper identifies as the root cause of small
    candidates in imperative code. *)
let hw_feasible = function
  | Binop _ | Icmp _ | Fcmp _ | Cast _ | Select _ -> true
  | Alloca _ | Load _ | Store _ | Gep _ | Gaddr _ | Call _ | Phi _
  | Ci_call _ ->
      false

(** Operands read by an instruction, in syntactic order. *)
let operands = function
  | Binop (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b) | Gep (a, b) -> [ a; b ]
  | Cast (_, a) | Load a -> [ a ]
  | Select (c, a, b) -> [ c; a; b ]
  | Store (v, addr) -> [ v; addr ]
  | Alloca _ | Gaddr _ -> []
  | Call (_, args) | Ci_call (_, args) -> args
  | Phi incoming -> List.map snd incoming

(** Registers read by an instruction (constants filtered out). *)
let used_regs kind =
  List.filter_map (function Reg r -> Some r | Const _ -> None) (operands kind)

let terminator_operands = function
  | Ret (Some op) -> [ op ]
  | Ret None | Br _ -> []
  | Cond_br (c, _, _) -> [ c ]
  | Switch (s, _, _) -> [ s ]

let terminator_used_regs t =
  List.filter_map
    (function Reg r -> Some r | Const _ -> None)
    (terminator_operands t)

(** Successor labels of a terminator, in syntactic order, without
    duplicates removed. *)
let successors = function
  | Ret _ -> []
  | Br l -> [ l ]
  | Cond_br (_, a, b) -> [ a; b ]
  | Switch (_, d, cases) -> d :: List.map snd cases

(* ------------------------------------------------------------------ *)
(* Names (printer, DFG dumps, PivPav lookups)                         *)
(* ------------------------------------------------------------------ *)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv"
  | Udiv -> "udiv" | Srem -> "srem" | Urem -> "urem" | And -> "and"
  | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Lshr -> "lshr"
  | Ashr -> "ashr" | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul"
  | Fdiv -> "fdiv"

let icmp_name = function
  | Ieq -> "eq" | Ine -> "ne" | Islt -> "slt" | Isle -> "sle"
  | Isgt -> "sgt" | Isge -> "sge" | Iult -> "ult" | Iule -> "ule"
  | Iugt -> "ugt" | Iuge -> "uge"

let fcmp_name = function
  | Foeq -> "oeq" | Fone -> "one" | Folt -> "olt" | Fole -> "ole"
  | Fogt -> "ogt" | Foge -> "oge"

let cast_name = function
  | Trunc -> "trunc" | Zext -> "zext" | Sext -> "sext"
  | Fptosi -> "fptosi" | Sitofp -> "sitofp" | Fpext -> "fpext"
  | Fptrunc -> "fptrunc" | Bitcast -> "bitcast"

(** Short mnemonic used in DFG dumps and PivPav component lookups. *)
let opcode_name = function
  | Binop (op, _, _) -> binop_name op
  | Icmp (p, _, _) -> "icmp." ^ icmp_name p
  | Fcmp (p, _, _) -> "fcmp." ^ fcmp_name p
  | Cast (c, _) -> cast_name c
  | Select _ -> "select"
  | Alloca _ -> "alloca"
  | Load _ -> "load"
  | Store _ -> "store"
  | Gep _ -> "gep"
  | Gaddr g -> "gaddr." ^ g
  | Call (f, _) -> "call." ^ f
  | Phi _ -> "phi"
  | Ci_call (i, _) -> Printf.sprintf "ci.%d" i

let const_ty = function Cint (_, ty) -> ty | Cfloat (_, ty) -> ty

let pp_const ppf = function
  | Cint (v, ty) -> Format.fprintf ppf "%Ld:%s" v (Ty.to_string ty)
  | Cfloat (v, ty) -> Format.fprintf ppf "%h:%s" v (Ty.to_string ty)

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "%%%d" r
  | Const c -> pp_const ppf c
