(** Imperative IR construction.

    The builder keeps a current function and insertion block and hands
    out fresh registers, in the style of LLVM's IRBuilder.  Used by the
    MiniC lowering pass and by tests that synthesize IR directly. *)

type t = {
  func : Func.t;
  mutable blocks : Block.t list;  (** reversed *)
  mutable cur : Block.t option;
  mutable nlabels : int;
}

let create func = { func; blocks = []; cur = None; nlabels = 0 }

(** Create (but do not select) a new block; terminator defaults to
    [Ret None] until [set_term] replaces it. *)
let new_block t ~name =
  let label = t.nlabels in
  t.nlabels <- label + 1;
  let b = Block.create ~label ~name ~term:(Instr.Ret None) in
  t.blocks <- b :: t.blocks;
  b

(** Select the insertion block. *)
let position_at t b = t.cur <- Some b

let current t =
  match t.cur with
  | Some b -> b
  | None -> invalid_arg "Builder: no insertion block selected"

(* Until [finish], a block's [instrs] hold its instructions in reverse,
   so appending is a cons. *)
let push t instr =
  let b = current t in
  b.Block.instrs <- instr :: b.Block.instrs

(** Append a raw instruction with a fresh result register; returns the
    register. *)
let add t ty kind =
  let id = Func.fresh_reg t.func in
  push t { Instr.id; ty; kind };
  id

(** Append a void instruction (store). *)
let add_void t kind =
  let id = Func.fresh_reg t.func in
  push t { Instr.id; ty = Ty.Void; kind }

let set_term t term = (current t).Block.term <- term

(* Convenience wrappers ------------------------------------------------ *)

let binop t op ty a b = add t ty (Instr.Binop (op, a, b))
let icmp t p a b = add t Ty.I1 (Instr.Icmp (p, a, b))
let fcmp t p a b = add t Ty.I1 (Instr.Fcmp (p, a, b))
let cast t c ty a = add t ty (Instr.Cast (c, a))
let alloca t ty n = add t Ty.Ptr (Instr.Alloca (ty, n))
let load t ty addr = add t ty (Instr.Load addr)
let store t v addr = add_void t (Instr.Store (v, addr))
let gep t base index = add t Ty.Ptr (Instr.Gep (base, index))
let call t ty name args = add t ty (Instr.Call (name, args))

let ret t op = set_term t (Instr.Ret op)
let br t l = set_term t (Instr.Br l)
let cond_br t c l1 l2 = set_term t (Instr.Cond_br (c, l1, l2))

(** Finalize: put each block's instructions in execution order and
    install the blocks into the function in creation order; returns the
    function.  Call it once, before reading any block's [instrs].
    @raise Invalid_argument if no block was created. *)
let finish t =
  if t.nlabels = 0 then invalid_arg "Builder.finish: function has no blocks";
  List.iter (fun b -> b.Block.instrs <- List.rev b.Block.instrs) t.blocks;
  t.func.Func.blocks <- Array.of_list (List.rev t.blocks);
  t.func

(* Constant helpers ----------------------------------------------------- *)

let ci32 v = Instr.Const (Instr.Cint (Int64.of_int v, Ty.I32))
let ci64 v = Instr.Const (Instr.Cint (v, Ty.I64))
let cf64 v = Instr.Const (Instr.Cfloat (v, Ty.F64))
let cf32 v = Instr.Const (Instr.Cfloat (v, Ty.F32))
let reg r = Instr.Reg r
