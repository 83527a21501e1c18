(** Cell-addressed VM memory.

    Memory is a flat, growable array of scalar cells.  The loader lays
    out module globals from address 1 upward (address 0 is reserved so
    that a null pointer never aliases a global); the stack for allocas
    grows above the globals.  One cell holds one scalar regardless of
    width — address arithmetic in the IR is in cells, which keeps the
    model simple without affecting anything the ISE study measures.

    Every error is a named exception (or a named [Invalid_argument]
    message for programming errors), never a bare [failwith]:

    - {!Bad_address} — a load or store outside the live range
      [(0, stack_pointer)];
    - {!Out_of_memory} — growth past the [limit] cap;
    - [Invalid_argument _] — {!alloc} of a non-positive size, or
      {!global_base} of an unknown global. *)

(** The memory state.  The representation is concrete on purpose: the
    compiled VM engine reads and writes cells through these fields
    directly (a cross-module call on its hot path would box every int64
    and float it moves).

    Cell layout, one cell per address [a < Bytes.length tags]:
    - [tags.[a]] is the constructor tag: ['\000'] {!Jitise_ir.Eval.VInt},
      ['\001'] {!Jitise_ir.Eval.VFloat}, ['\002']
      {!Jitise_ir.Eval.VPtr};
    - an int, or an address as [Int64.of_int], is the native-endian
      int64 at byte offset [8 * a] of [ints];
    - a float is [floats.(a)], bit for bit (NaN payloads and -0.0
      survive).

    The payload lane a tag does not name is stale and never read.  A
    fresh cell is [VInt 0L].  Invariant: [stack_pointer <= Bytes.length
    tags] ({!alloc} alone grows the backing, before it moves the stack
    pointer), so a live cell needs no length test. *)
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

(** Fresh memory with an empty global table and the stack at address 1.
    The backing starts at 1024 cells and grows on demand.
    @param limit growth cap in cells (default 16 M) *)
val create : ?limit:int -> unit -> t

(** {2 Boxed access}

    The Reference engine's view: one {!Jitise_ir.Eval.value} per cell. *)

(** Read one cell.
    @raise Bad_address outside [(0, stack_pointer)]. *)
val load : t -> int -> Jitise_ir.Eval.value

(** Write one cell.
    @raise Bad_address outside [(0, stack_pointer)]. *)
val store : t -> int -> Jitise_ir.Eval.value -> unit

(** {2 Typed stores}

    Each equals {!store} of [VInt] / [VFloat] / [VPtr], with no boxed
    value built.  The compiled engine inlines the typed loads over the
    fields above. *)

val store_int : t -> int -> int64 -> unit
val store_float : t -> int -> float -> unit
val store_ptr : t -> int -> int -> unit

(** Reserve [n] cells and return their base address.
    @raise Invalid_argument if [n <= 0].
    @raise Out_of_memory past the growth cap (the stack stays put). *)
val alloc : t -> int -> int

(** Current stack mark, for frame save/restore. *)
val mark : t -> int

(** Pop the stack back to a previous {!mark}. *)
val release : t -> int -> unit

(** Lay out and initialize all globals of a module. *)
val load_globals : t -> Jitise_ir.Irmod.t -> unit

(** Base address of a named global.
    @raise Invalid_argument for an unknown global. *)
val global_base : t -> string -> int
