(** Bitcode types.

    The IR is a compact LLVM-like typed SSA language.  Pointer types are
    untyped addresses into the VM's cell-addressed memory (one cell per
    scalar, see {!Jitise_vm.Memory}); this keeps address arithmetic
    simple without changing anything the ISE algorithms observe. *)

type t =
  | I1   (** booleans, produced by comparisons *)
  | I8
  | I16
  | I32
  | I64
  | F32
  | F64
  | Ptr  (** address of a memory cell *)
  | Void (** only valid as a function return type *)

let equal (a : t) (b : t) = a = b

(** Nominal width in bits; [Ptr] counts as the machine word (32, as on
    the PowerPC 405), [Void] as 0. *)
let bits = function
  | I1 -> 1
  | I8 -> 8
  | I16 -> 16
  | I32 -> 32
  | I64 -> 64
  | F32 -> 32
  | F64 -> 64
  | Ptr -> 32
  | Void -> 0

let is_int = function I1 | I8 | I16 | I32 | I64 -> true | _ -> false
let is_float = function F32 | F64 -> true | _ -> false

let to_string = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "f32"
  | F64 -> "f64"
  | Ptr -> "ptr"
  | Void -> "void"

let pp ppf t = Format.pp_print_string ppf (to_string t)
