(** The bitcode virtual machine.

    An SSA interpreter with cycle accounting.  One run simultaneously
    accumulates two clocks: [native_cycles], the cost of the program
    under static compilation, and [vm_cycles], the cost under the VM's
    JIT execution model ({!Jit_model}); a monitored run can carry one
    such pair per clock lane ({!control}).  The machine also records the
    block-frequency {!Profile} and executes custom-instruction calls
    through a registry that charges the hardware latency of the
    reconfigurable functional unit.

    Two execution engines produce byte-identical outcomes: {!Reference}
    walks the instruction AST (the semantics baseline), {!Threaded}
    (the default) compiles each basic block once into an array of
    pre-decoded operation closures over a typed register file.  Both
    run only modules that {!Jitise_ir.Verifier} accepts ({!run} checks
    first).  See DESIGN.md §9. *)

module Ir = Jitise_ir

(** Raised on any runtime error of a verified module: type errors,
    division by zero, bad addresses, running out of memory or fuel,
    calls to unknown functions or unconfigured custom instructions, and
    an entry called with the wrong number of arguments. *)
exception Fault of string

(** Raised by {!run}, before anything executes, on a module that
    {!Jitise_ir.Verifier} rejects; carries the verifier's errors, one
    per line ({!Jitise_ir.Verifier.errors_to_string}). *)
exception Invalid_module of string

(* ------------------------------------------------------------------ *)
(* Custom instruction registry                                         *)
(* ------------------------------------------------------------------ *)

(** The structure of a custom instruction: its MISO subgraph as the
    instructions it was cut from.  Operand position [k] of a call
    binds input register [fst cb_inputs.(k)] (for a register listed at
    several positions the last one wins); the nodes run in order, each
    defining its own id; the call returns the value of [cb_root]. *)
type ci_body = {
  cb_inputs : (Ir.Instr.reg * Ir.Ty.t) array;
      (** declared input registers and types, by operand position *)
  cb_nodes : Ir.Instr.t array;  (** the subgraph's instructions, in order *)
  cb_root : Ir.Instr.reg;  (** the node whose value the call returns *)
}

type ci_impl = {
  ci_eval : Ir.Eval.value array -> Ir.Eval.value;
      (** functional semantics of the custom instruction: the
          reference engine's path, and the threaded engine's whenever
          the body is not compiled inline *)
  ci_cycles : int;
      (** CPU cycles one invocation takes on the custom functional
          unit, including the instruction-interface overhead *)
  ci_body : ci_body option;
      (** the subgraph [ci_eval] interprets; [ci_eval] must compute
          exactly what the body's instructions compute.  With
          {!tuning.ci_native} on, the threaded engine compiles the body
          into each call site's typed lanes, as ordinary instructions
          of the caller: one fresh register per non-root node, the root
          writing the call's destination, then the clock charge — no
          argument vector and no boxed value.  A site it cannot prove
          identical to [ci_eval] keeps the boxed [ci_eval] seam: an
          arity mismatch, an operand whose static type differs from
          the declared input type, a node reading a register that is
          neither an input nor an earlier node, a node kind other than
          binop/compare/cast/select, a node whose result class differs
          from its type's, or a root that is not the last node
          (DESIGN.md §13). *)
}

type ci_registry = (int, ci_impl) Hashtbl.t

val empty_cis : unit -> ci_registry

(* ------------------------------------------------------------------ *)
(* Execution engines                                                   *)
(* ------------------------------------------------------------------ *)

type engine =
  | Reference  (** AST-walking interpreter (the semantics baseline) *)
  | Threaded  (** per-block closure compilation with pre-decoded operands *)

val default_engine : engine
(** {!Threaded}. *)

val engines : engine list
val engine_name : engine -> string
val engine_of_string : string -> engine option

(* ------------------------------------------------------------------ *)
(* Engine tuning                                                       *)
(* ------------------------------------------------------------------ *)

(** Optimization knobs of the {!Threaded} engine.  There is one
    compiler; each knob switches one layer inside it.  Every knob is
    semantics-preserving: outcomes — clocks, fuel, profiles, fault
    messages — are byte-identical across all combinations (pinned by
    the differential suite), so the knobs exist for isolation
    benchmarking and differential testing, not for trading accuracy
    against speed.  See DESIGN.md §13–§14. *)
type tuning = {
  link : bool;
      (** block linking: terminators transfer to the successor's
          compiled block directly instead of re-indexing the function's
          block array.  Off = no link pass; every transfer is indexed. *)
  fuse : bool;
      (** fusion: a block's trailing single-use [icmp]/[fcmp] is folded
          into its conditional branch, and a [gep] with a constant base
          that only loads and stores of its block read is folded into
          each of them (address fusion) *)
  ci_native : bool;
      (** compile a loaded CI's body ({!ci_impl.ci_body}) into each
          call site's typed lanes instead of interpreting it through
          [ci_eval] *)
  regalloc : bool;
      (** typed register files: partition each function's registers by
          declared type into unboxed lanes (int64 slots in a
          [Bytes.t], a flat [float array], an [int array] of
          addresses) and move loads and stores through {!Memory}'s
          typed cells.  Of the operations the MiniC frontend emits,
          arithmetic, divisions, compares, casts, addressing, loads,
          stores, spliced CI bodies and calls between typed frames
          (arguments lane to lane, results through a typed return
          cell, frames from a per-function stack) allocate nothing;
          boxing is left to CIs interpreted through [ci_eval], the
          untyped-intrinsic seam, the run's entry and exit, and the IR
          only hand-built modules carry ([select], [lshr], [udiv],
          [urem]).
          Off = the same compiler with every register classified
          boxed (DESIGN.md §14). *)
  max_linked_blocks : int;
      (** linked-transfer budget: after this many consecutive direct
          block-to-block transfers the driver takes one trip through
          the indexed path (the escape hatch).  Fuel, clocks
          and the monitor hook run at every block boundary regardless.
          Must be >= 1. *)
}

(** Everything on, [max_linked_blocks = 64]. *)
val default_tuning : tuning

(** Every optimization layer off: all registers boxed, no block
    linking, no fusion, CIs interpreted. *)
val untuned : tuning

(** Per-pattern fusion hit counts ([icmp+br], [fcmp+br], [gep+load],
    [gep+store]) since start (or the last {!reset_fusion_stats}),
    sorted by pattern name.  Counted at block compile time, one bump per
    fused branch and per load or store with a folded [gep]. *)
val fusion_stats : unit -> (string * int) list

val reset_fusion_stats : unit -> unit

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  ret : Ir.Eval.value option;
  native_cycles : float;
  vm_cycles : float;
  profile : Profile.t;
  memory : Memory.t option;
      (** The final memory image.  {!run} always returns [Some]; a
          caller that keeps outcomes around without reading their
          memory (the pipeline's profile stage, whose stored artifact
          does not carry it) drops it to [None]. *)
}

(** Simulated seconds for a cycle count, at the PowerPC 405 clock. *)
val seconds_of_cycles : float -> float

(* ------------------------------------------------------------------ *)
(* Online monitoring and hot-swap                                      *)
(* ------------------------------------------------------------------ *)

(** Handle an online controller uses to observe and steer one clock
    lane of a run from inside the monitor callback.  A monitored run
    carries [lanes] pairs of (native, VM) clocks over one execution:
    the block trace, fuel, profile, memory and return value are shared,
    and each lane has its own clocks and its own per-CI charges, so a
    lane's clocks are exactly those a single-lane run with the same
    binds and stalls would read.  Both engines keep the clocks in the
    run's state, updated in place, so the callback reads them
    consistently and stalls/rebinds land between blocks without
    disturbing the compiled code.  The clock readers stay valid after
    the run returns and then read the lane's final clocks. *)
type control = {
  ctl_native : unit -> float;  (** the lane's native clock, cycles *)
  ctl_vm : unit -> float;  (** the lane's VM clock, cycles *)
  ctl_stall : float -> unit;
      (** charge a stall (e.g. a reconfiguration wait) to both of the
          lane's clocks *)
  ctl_bind : int -> float -> unit;
      (** set the lane's per-dispatch cycle charge of a CI — the
          hot-swap point between software-mode and hardware-mode cost.
          Every lane starts at the statically bound {!ci_impl.ci_cycles};
          binding a CI that [cis] does not configure has no effect. *)
  ctl_block : func:string -> label:int -> int;
      (** the dense id of block [label] of function [func], as the
          callback receives it.  Ids number every block of the module
          once per run, in module function order and then by label, so
          they cover [0, Ir.Irmod.num_blocks m) and are the same in
          every run of [m] on either engine.
          @raise Invalid_argument on an unknown block. *)
}

(** A monitor receives one {!control} handle per lane, lane [l] at
    index [l], at run start (before any block executes) and returns one
    callback, invoked once per dynamic basic block after every lane's
    clock charge for that block, with the block's dense id
    ({!control.ctl_block}).  Per lane, the clocks receive their addends
    in a single-lane run's order: the block charge, then that lane's
    stalls from the callback, then its CI charges in the body; the
    module-translation cycles land on each VM clock after the monitor
    starts.  When absent, the run takes exactly the unmonitored code
    path — byte-identical clocks. *)
type monitor = control array -> int -> unit

(** Run [entry] with scalar [args].  The outcome's clocks are lane 0's.
    The VM cost model is {!Jit_model.default}.

    @param fuel maximum dynamic instructions (default 4e9)
    @param cis configured custom instructions (default none)
    @param engine execution engine (default {!default_engine});
      outcomes are identical across engines
    @param tuning threaded-engine optimization knobs (default
      {!default_tuning}); outcomes are identical across combinations
    @param lanes clock lanes of a monitored run (default 1); the
      extra lanes cost a few float additions per block and per CI
      dispatch, not another execution
    @param monitor online controller hook (see {!monitor})
    @raise Invalid_module if {!Jitise_ir.Verifier} rejects the module;
      checked once, before either engine starts, so both engines reject
      it with the same message and nothing runs.
    @raise Fault on any runtime error.
    @raise Invalid_argument if [tuning.max_linked_blocks < 1], if
      [lanes < 1], or if [lanes > 1] without a monitor. *)
val run :
  ?fuel:int64 ->
  ?cis:ci_registry ->
  ?engine:engine ->
  ?tuning:tuning ->
  ?lanes:int ->
  ?monitor:monitor ->
  Ir.Irmod.t ->
  entry:string ->
  args:Ir.Eval.value list ->
  outcome
