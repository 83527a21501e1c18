(** Execution profiles.

    The VM records how often every basic block executes.  Profiles
    drive everything downstream: the pruning filter ranks blocks by
    dynamic cost, the coverage analysis classifies code as
    live/dead/constant across datasets, and the break-even model weighs
    candidate savings by block frequency. *)

module Ir = Jitise_ir

type key = string * Ir.Instr.label  (** function name, block label *)

type t = {
  counts : (key, int64) Hashtbl.t;
  mutable executed_instrs : int64;  (** dynamic IR instruction count *)
}

val create : unit -> t

(** Add [count] executions of block [label] of [func], containing
    [instrs] instructions (bulk import from the VM's run-local
    counters); counts of one block sum. *)
val record :
  t -> func:string -> label:Ir.Instr.label -> count:int64 -> instrs:int -> unit

val count : t -> func:string -> label:Ir.Instr.label -> int64

(** All profiled (function, label, count) triples, sorted for
    determinism. *)
val to_list : t -> (string * Ir.Instr.label * int64) list

(** Total software cycles attributed to each block of [m] under this
    profile: [freq * block_cycles].  Returns a sorted association list
    from (func, label) to cycles, heaviest first. *)
val block_costs : t -> Ir.Irmod.t -> ((string * Ir.Instr.label) * int64) list

(** Sliding-window phase profiles for the online controller: block
    executions are counted into fixed-size windows; closed windows fold
    into a decayed history so what-is-hot-now dominates what-was-hot.
    Blocks are keyed by the VM's dense per-run block id
    ({!Machine.control}), in [0, blocks).  Deterministic: rates depend
    only on the observation sequence. *)
module Window : sig
  type w

  (** [create ~size ~decay ~blocks] — [size] block executions per
      window (>= 1); [decay] history weight in [0, 1); [blocks] the
      number of block ids (>= 0).
      @raise Invalid_argument when an argument is out of range. *)
  val create : size:int -> decay:float -> blocks:int -> w

  (** Record one execution of block [id]; [true] when the window just
      filled (caller should {!advance}). *)
  val observe : w -> int -> bool

  (** Close the open window: decay history, fold the window in, start
      fresh. *)
  val advance : w -> unit

  (** Decayed executions-per-window rate of block [id]. *)
  val rate : w -> int -> float

  (** Raw count of block [id] in the last closed window. *)
  val last : w -> int -> int

  (** Windows closed so far. *)
  val windows : w -> int
end
