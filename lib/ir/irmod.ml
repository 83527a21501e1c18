(** Modules: the unit of compilation and execution.

    A module bundles global arrays/scalars and functions.  Globals are
    cell-addressed: each global occupies [size] contiguous memory cells
    laid out by the VM loader in declaration order. *)

type initializer_ =
  | Zero
  | Ints of int64 array    (** cell-by-cell integer image *)
  | Floats of float array  (** cell-by-cell float image *)

type global = {
  gname : string;
  gty : Ty.t;        (** element type *)
  gsize : int;       (** number of cells; 1 for scalars *)
  ginit : initializer_;
}

type t = {
  mname : string;
  mutable globals : global list;  (** in declaration order *)
  mutable funcs : Func.t list;
}

let create ~name = { mname = name; globals = []; funcs = [] }

let add_global t g =
  if List.exists (fun g' -> g'.gname = g.gname) t.globals then
    invalid_arg (Printf.sprintf "Irmod.add_global: duplicate %s" g.gname);
  t.globals <- t.globals @ [ g ]

let add_func t f =
  if List.exists (fun (f' : Func.t) -> f'.Func.name = f.Func.name) t.funcs then
    invalid_arg (Printf.sprintf "Irmod.add_func: duplicate %s" f.Func.name);
  t.funcs <- t.funcs @ [ f ]

let find_func t name =
  List.find_opt (fun (f : Func.t) -> f.Func.name = name) t.funcs

(** Total non-terminator instructions across all functions — the paper's
    "ins" column of Table I. *)
let num_instrs t =
  List.fold_left (fun acc f -> acc + Func.num_instrs f) 0 t.funcs

(** Total basic blocks across all functions — the paper's "blk" column. *)
let num_blocks t =
  List.fold_left (fun acc f -> acc + Func.num_blocks f) 0 t.funcs
