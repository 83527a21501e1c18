(** Cell-addressed VM memory.

    Memory is a flat, growable array of scalar cells.  The loader lays
    out module globals from address 1 upward (address 0 is reserved so
    that a null pointer never aliases a global); the stack for allocas
    grows above the globals.  One cell holds one scalar regardless of
    width — address arithmetic in the IR is in cells, which keeps the
    model simple without affecting anything the ISE study measures.

    A cell is stored unboxed: a tag byte in [tags] says which
    {!Jitise_ir.Eval.value} constructor it holds, an int or an address
    lives as 8 native-endian bytes in [ints], a float in the flat
    [floats] array.  The boxed {!load}/{!store} rebuild or take apart
    the constructor; the typed accessors move the scalar directly. *)

module Ir = Jitise_ir

type t = {
  mutable tags : Bytes.t;
  mutable ints : Bytes.t;
  mutable floats : float array;
  mutable stack_pointer : int;  (** next free cell *)
  globals : (string, int) Hashtbl.t;  (** global name -> base address *)
  limit : int;  (** hard cap on memory growth, in cells *)
}

exception Out_of_memory
exception Bad_address of int

let tag_int = '\000'
let tag_float = '\001'
let tag_ptr = '\002'

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let default_limit = 1 lsl 24  (* 16 M cells *)

(* Zeroed backing of [n] cells: every cell reads as [VInt 0L]. *)
let backing n =
  (Bytes.make n tag_int, Bytes.make (8 * n) '\000', Array.make n 0.0)

let create ?(limit = default_limit) () =
  let tags, ints, floats = backing 1024 in
  { tags; ints; floats; stack_pointer = 1; globals = Hashtbl.create 16; limit }

(* Grow the backing to hold cell [addr]; only {!alloc} grows. *)
let ensure t addr =
  let len = Bytes.length t.tags in
  if addr >= len then begin
    if addr >= t.limit then raise Out_of_memory;
    let tags, ints, floats = backing (min t.limit (max (addr + 1) (2 * len))) in
    Bytes.blit t.tags 0 tags 0 len;
    Bytes.blit t.ints 0 ints 0 (8 * len);
    Array.blit t.floats 0 floats 0 len;
    t.tags <- tags;
    t.ints <- ints;
    t.floats <- floats
  end

(* Raw cell access, no live-range check ([0 <= addr < Bytes.length t.tags]). *)

let cell t addr =
  let tag = Bytes.get t.tags addr in
  if tag = tag_float then Ir.Eval.VFloat (Array.unsafe_get t.floats addr)
  else
    let v = get64 t.ints (8 * addr) in
    if tag = tag_ptr then Ir.Eval.VPtr (Int64.to_int v) else Ir.Eval.VInt v

let set_int t addr x =
  Bytes.unsafe_set t.tags addr tag_int;
  set64 t.ints (8 * addr) x

let set_float t addr x =
  Bytes.unsafe_set t.tags addr tag_float;
  Array.unsafe_set t.floats addr x

let set_ptr t addr p =
  Bytes.unsafe_set t.tags addr tag_ptr;
  set64 t.ints (8 * addr) (Int64.of_int p)

let set_cell t addr (v : Ir.Eval.value) =
  match v with
  | Ir.Eval.VInt x -> set_int t addr x
  | Ir.Eval.VFloat x -> set_float t addr x
  | Ir.Eval.VPtr p -> set_ptr t addr p

(* Every access checks the live range [(0, stack_pointer)] first, so a
   bad address is reported before any type mismatch; a live cell is
   inside the backing (memory.mli). *)

let[@inline] check t addr =
  if addr <= 0 || addr >= t.stack_pointer then raise (Bad_address addr)

let load t addr =
  check t addr;
  cell t addr

let store t addr v =
  check t addr;
  set_cell t addr v

let store_int t addr x =
  check t addr;
  set_int t addr x

let store_float t addr x =
  check t addr;
  set_float t addr x

let store_ptr t addr p =
  check t addr;
  set_ptr t addr p

(** Reserve [n] cells and return their base address.  Grow first, so a
    failed [alloc] leaves the live range as it was. *)
let alloc t n =
  if n <= 0 then invalid_arg "Memory.alloc: non-positive size";
  let base = t.stack_pointer in
  ensure t (base + n - 1);
  t.stack_pointer <- base + n;
  base

(** Current stack mark, for frame save/restore. *)
let mark t = t.stack_pointer

(** Pop the stack back to a previous {!mark}. *)
let release t m = t.stack_pointer <- m

(** Lay out and initialize all globals of a module. *)
let load_globals t (m : Ir.Irmod.t) =
  List.iter
    (fun (g : Ir.Irmod.global) ->
      let base = alloc t g.Ir.Irmod.gsize in
      Hashtbl.replace t.globals g.Ir.Irmod.gname base;
      match g.Ir.Irmod.ginit with
      | Ir.Irmod.Zero ->
          for i = 0 to g.Ir.Irmod.gsize - 1 do
            if Ir.Ty.is_float g.Ir.Irmod.gty then set_float t (base + i) 0.0
            else set_int t (base + i) 0L
          done
      | Ir.Irmod.Ints a ->
          for i = 0 to g.Ir.Irmod.gsize - 1 do
            let v = if i < Array.length a then a.(i) else 0L in
            set_int t (base + i) (Ir.Eval.normalize g.Ir.Irmod.gty v)
          done
      | Ir.Irmod.Floats a ->
          for i = 0 to g.Ir.Irmod.gsize - 1 do
            let v = if i < Array.length a then a.(i) else 0.0 in
            set_float t (base + i) (Ir.Eval.round_float g.Ir.Irmod.gty v)
          done)
    m.Ir.Irmod.globals

let global_base t name =
  match Hashtbl.find_opt t.globals name with
  | Some base -> base
  | None -> invalid_arg (Printf.sprintf "Memory.global_base: unknown global %s" name)
