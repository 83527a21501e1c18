(** The bitcode virtual machine.

    An SSA interpreter with cycle accounting.  One run simultaneously
    accumulates two clocks:

    - [native_cycles]: the cost of the program under static compilation
      (the paper's "Native" column), from {!Jitise_ir.Cost};
    - [vm_cycles]: the cost under the VM's JIT execution model
      ({!Jit_model}), the paper's "VM" column.

    A monitored run can carry several such clock pairs, one per clock
    lane, over a single execution (see {!control}).

    The machine also records the block-frequency {!Profile} and executes
    custom-instruction calls ([Ci_call]) through a registry that charges
    the hardware latency of the reconfigurable functional unit instead
    of the software cycles — which is how adapted binaries are timed on
    the Woolcano model.

    Two execution engines produce byte-identical outcomes:

    - {!Reference} walks the instruction AST, re-matching every
      [Ir.Instr.kind] and re-resolving every operand on each dynamic
      instruction — the semantics baseline;
    - {!Threaded} (the default) compiles each basic block once, at
      prepare time, into an array of pre-decoded operation closures
      over a typed register file: operands are resolved to per-class
      unboxed slots or immediate values, operators to specialized
      scalar code, callees /
      custom instructions / intrinsics are bound ahead of time, and
      terminators (including [Switch] case tables) are pre-resolved to
      block indices.  The hot loop is then an array walk of closure
      calls with no AST dispatch.

    Cycle accounting, fuel, profiles and fault messages are identical
    across engines (pinned by the differential suite in test_vm).

    Both engines run only modules that {!Ir.Verifier} accepts: [run]
    checks the module once, before either engine starts, and rejects a
    failing one with {!Invalid_module}.  The engines rely on what that
    buys — registers in range, each read dominated by its write, phis a
    prefix of their block with an entry for every predecessor, branch
    targets in range, user calls matching their callee's signature — and
    have no fault path for IR that breaks it. *)

module Ir = Jitise_ir

exception Fault of string
exception Invalid_module of string

let fault fmt = Printf.ksprintf (fun m -> raise (Fault m)) fmt

(* ------------------------------------------------------------------ *)
(* Custom instruction registry                                         *)
(* ------------------------------------------------------------------ *)

(* The structure of a custom instruction: its MISO subgraph as the
   instructions it was cut from.  Operand position [k] of a call binds
   input register [fst cb_inputs.(k)] (for a register listed at several
   positions the last one wins); the nodes run in order, each defining
   its own id; the call returns the value of [cb_root]. *)
type ci_body = {
  cb_inputs : (Ir.Instr.reg * Ir.Ty.t) array;
      (* declared input registers and types, by operand position *)
  cb_nodes : Ir.Instr.t array;  (* the subgraph's instructions, in order *)
  cb_root : Ir.Instr.reg;  (* the node whose value the call returns *)
}

type ci_impl = {
  ci_eval : Ir.Eval.value array -> Ir.Eval.value;
      (** functional semantics of the custom instruction *)
  ci_cycles : int;
      (** CPU cycles one invocation takes on the custom functional
          unit, including the instruction-interface overhead *)
  ci_body : ci_body option;
      (** the subgraph [ci_eval] interprets.  With the [ci_native]
          tuning knob on, the threaded engine compiles it into each
          call site's typed lanes ({!splice_ok}); the reference engine
          never does, and the differential suite pins the two paths to
          identical outcomes. *)
}

type ci_registry = (int, ci_impl) Hashtbl.t

let empty_cis () : ci_registry = Hashtbl.create 8

(* ------------------------------------------------------------------ *)
(* Intrinsics                                                          *)
(* ------------------------------------------------------------------ *)

(* One table holds every intrinsic: the name list and the dispatcher
   cannot drift apart (they used to be separate [intrinsic] /
   [is_intrinsic] matches), and the threaded engine binds the
   implementation closure directly at block-compile time. *)
let intrinsic_table : (string, Ir.Eval.value array -> Ir.Eval.value) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let f1 name op =
    Hashtbl.replace tbl name (fun args ->
        if Array.length args <> 1 then fault "intrinsic %s: arity" name
        else Ir.Eval.VFloat (op (Ir.Eval.as_float args.(0))))
  in
  let i1 name op =
    Hashtbl.replace tbl name (fun args ->
        if Array.length args <> 1 then fault "intrinsic %s: arity" name
        else Ir.Eval.VInt (op (Ir.Eval.as_int args.(0))))
  in
  let i2 name op =
    Hashtbl.replace tbl name (fun args ->
        if Array.length args <> 2 then fault "intrinsic %s: arity" name
        else
          Ir.Eval.VInt
            (op (Ir.Eval.as_int args.(0)) (Ir.Eval.as_int args.(1))))
  in
  f1 "sqrt" sqrt;
  f1 "sin" sin;
  f1 "cos" cos;
  f1 "atan" atan;
  f1 "exp" exp;
  f1 "log" log;
  f1 "fabs" abs_float;
  f1 "floor" floor;
  Hashtbl.replace tbl "pow" (fun args ->
      if Array.length args <> 2 then fault "intrinsic pow: arity"
      else
        Ir.Eval.VFloat
          (Float.pow (Ir.Eval.as_float args.(0)) (Ir.Eval.as_float args.(1))));
  i1 "abs" Int64.abs;
  i2 "min" min;
  i2 "max" max;
  tbl

let find_intrinsic name = Hashtbl.find_opt intrinsic_table name
let is_intrinsic name = Hashtbl.mem intrinsic_table name

let intrinsic name (args : Ir.Eval.value array) : Ir.Eval.value =
  match find_intrinsic name with
  | Some impl -> impl args
  | None -> fault "unknown function @%s" name

(* ------------------------------------------------------------------ *)
(* Execution engines                                                   *)
(* ------------------------------------------------------------------ *)

type engine =
  | Reference  (** AST-walking interpreter (the semantics baseline) *)
  | Threaded  (** per-block closure compilation with pre-decoded operands *)

let default_engine = Threaded
let engines = [ Reference; Threaded ]

let engine_name = function Reference -> "reference" | Threaded -> "threaded"

let engine_of_string = function
  | "reference" -> Some Reference
  | "threaded" -> Some Threaded
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Engine tuning                                                       *)
(* ------------------------------------------------------------------ *)

(** Optimization knobs of the {!Threaded} engine.  There is one
    compiler; each knob switches one layer inside it.  Every knob is
    semantics-preserving by construction — outcomes (including clocks,
    fuel, profiles and fault messages) are byte-identical across all
    combinations, pinned by the differential suite — so the knobs exist
    for isolation benchmarking and differential testing, not for
    trading accuracy against speed. *)
type tuning = {
  link : bool;
      (** block linking: terminators transfer to the successor's
          compiled block directly instead of re-indexing the function's
          block array.  Off = no link pass; every transfer is indexed. *)
  fuse : bool;
      (** fusion: a block's trailing single-use [icmp]/[fcmp] is
          folded into its conditional branch, skipping the flag write
          and one dispatch, and a [gep] read only by loads and stores
          of its block is folded into each of them (address fusion),
          skipping its register write and its dispatch *)
  ci_native : bool;
      (** compile a loaded CI's body ({!ci_impl.ci_body}) into each
          call site's typed lanes instead of interpreting it through
          [ci_eval] *)
  regalloc : bool;
      (** typed register files: partition each function's virtual
          registers by their declared types into unboxed lanes (8-byte
          int64 slots in a [Bytes.t], a flat [float array], an [int]
          array of addresses), so hot int/float arithmetic, compares,
          casts, address computation, typed loads and stores, and
          same-class call arguments and returns read and write machine
          scalars instead of boxed {!Jitise_ir.Eval.value}s.  Boxing
          happens only at the seams: custom instructions interpreted
          through [ci_eval], intrinsics other than the typed
          one-argument float ones, and the run's entry and exit.
          Off = the same compiler with every register classified
          [C_boxed] (DESIGN.md §14). *)
  max_linked_blocks : int;
      (** linked-transfer budget: after this many consecutive direct
          block-to-block transfers the driver takes one trip through
          the indexed path (the escape hatch), so linking cannot starve
          it.  Fuel, clocks and the monitor hook run at
          every block boundary regardless. *)
}

let default_tuning =
  {
    link = true;
    fuse = true;
    ci_native = true;
    regalloc = true;
    max_linked_blocks = 64;
  }

(** Every optimization layer off: the one compiler, all registers
    boxed, no block linking, no fusion, CIs interpreted. *)
let untuned =
  {
    link = false;
    fuse = false;
    ci_native = false;
    regalloc = false;
    max_linked_blocks = 64;
  }

(* Per-pattern fusion hit counters (compile-time events, one bump per
   fused compare-and-branch and per load or store with a folded [gep],
   per block compilation).  Guarded by a mutex:
   parallel sweeps compile modules from several domains. *)
let fusion_mu = Mutex.create ()
let fusion_counters : (string, int) Hashtbl.t = Hashtbl.create 32

let bump_fusion name =
  Mutex.lock fusion_mu;
  Hashtbl.replace fusion_counters name
    (1 + try Hashtbl.find fusion_counters name with Not_found -> 0);
  Mutex.unlock fusion_mu

(** Per-pattern fusion counts since start (or the last
    {!reset_fusion_stats}), sorted by pattern name. *)
let fusion_stats () =
  Mutex.lock fusion_mu;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) fusion_counters [] in
  Mutex.unlock fusion_mu;
  List.sort compare l

let reset_fusion_stats () =
  Mutex.lock fusion_mu;
  Hashtbl.reset fusion_counters;
  Mutex.unlock fusion_mu

(* ------------------------------------------------------------------ *)
(* Prepared module                                                     *)
(* ------------------------------------------------------------------ *)

(* A pre-decoded operand: either an immediate already converted to an
   {!Ir.Eval.value} or a register index.  The compiler resolves it to
   a typed slot accessor once, at block-compile time. *)
type src = Imm of Ir.Eval.value | Slot of int

(* Per-block static data, computed once per run.  [exec_count] is the
   run-local profile counter (folded into a Profile at the end — much
   cheaper than a hashtable update per block execution).  The phi
   prologue is pre-resolved: [phi_rows.(pred).(k)] is the operand phi
   [k] takes when entered from block [pred], so the hot loop does two
   array reads per phi instead of scanning an association list on
   every block execution.  [switch_cases] pre-resolves a [Switch]
   terminator's case list into a hashtable (first entry wins for
   duplicate case values, like [List.assoc_opt] did), shared by both
   engines. *)
type block_info = {
  instrs : Ir.Instr.t array;
  term : Ir.Instr.terminator;
  ninstrs : int;
  static_cycles : int;  (* excludes user-call callees and CI latencies *)
  phi_count : int;  (* the block's phis, which lead it *)
  phi_dests : int array;  (* destination register of each phi *)
  phi_rows : Ir.Instr.operand array array;
      (* indexed by block label: every phi's operand for that
         predecessor, [||] for a block that is not one; [||] as a whole
         when the block has no phis *)
  switch_cases : (int64, Ir.Instr.label) Hashtbl.t option;
      (* case value -> target, when [term] is a [Switch] *)
  mutable exec_count : int;
      (* an immediate int, not an int64: incrementing it must not
         allocate (it happens once per dynamic block).  Fuel bounds the
         total far below [max_int]. *)
}

(* Register class, from the declared register type.  Every register of
   a function but a folded [Gaddr] or [Gep] result lives in one slot
   array of its
   {!frame} (the unread ones of a class in its sink slot, a
   phi-congruence class in one slot); [C_boxed] covers registers with no
   declared type ([Void]), which keep the boxed representation — and
   every register when [tuning.regalloc] is off. *)
type rclass = C_int | C_float | C_ptr | C_boxed

(* A typed register file: one invocation's registers, partitioned by
   {!rclass} into parallel unboxed lanes.  Registers are renumbered per
   class at compile time ({!func_info.rslots}), so a frame allocates one
   word per read register or phi-congruence class plus at most one sink
   per lane, and int/float
   traffic reads and writes machine scalars with no
   constructor matching and no allocation.  The int lane is a [Bytes.t]
   holding 8 bytes per register, read and written through
   {!bget64}/{!bset64}: an [int64 array] would hold a pointer to a
   boxed int64 per element, so every write would allocate.  Int slots
   are therefore byte offsets; float ([float array] is flat), address
   and boxed slots are element indices. *)
type frame = {
  fr_i : Bytes.t;
  fr_f : float array;
  fr_p : int array;
  fr_v : Ir.Eval.value array;
}

(* A CI call site whose body compiles into the caller's lanes: the
   body, and the first of the fresh registers {!classify_rfunc}
   appended for its non-root nodes (node [k] defines [sp_temp + k]). *)
type splice = { sp_body : ci_body; sp_temp : int }

type func_info = {
  func : Ir.Func.t;
  blocks : block_info array;
  bid_base : int;
      (* the dense per-run id of block 0; block [label] is
         [bid_base + label].  Blocks are numbered once per run, in
         module function order and then by label. *)
  reg_tys : Ir.Ty.t array;  (* type of each register, Void if undefined *)
  use_counts : int array;
      (* static use count of each register over the whole function
         (operands and terminators, phis included).  Compare-and-branch
         fusion may skip writing the compare's register only when its
         count is exactly 1: the register file is not part of the
         outcome, and nothing else reads the slot.  A count of 0 sends
         the register to its lane's sink slot ({!classify_rfunc}). *)
  mutable rclasses : rclass array;
      (* per-register class, [||] until {!classify_rfunc} runs *)
  mutable rslots : int array;
      (* per-register position inside its class's frame lane — the
         per-class renumbering, a byte offset for [C_int] and an index
         otherwise; [-1 - base] for a register folded to the address
         [base] of a global ({!decode}), {!gep_folded} for a [Gep]
         folded into its loads and stores ({!fold_geps}); [||] until
         {!classify_rfunc} runs *)
  mutable rcounts : int array;
      (* frame-array lengths, indexed [C_int; C_float; C_ptr; C_boxed];
         [||] until {!classify_rfunc} runs *)
  mutable rsplices : splice option array array;
      (* [rsplices.(label).(k)]: the splice plan of instruction [k] of
         block [label] when it is a CI call whose body compiles inline.
         A block with no such site has [||], and so has the whole
         array when no site of the function splices (or until
         {!classify_rfunc} runs). *)
  mutable rtblocks : rtblock array;
      (* compiled code, [||] until {!compile_rfunc} runs (the
         reference engine never compiles) *)
  mutable frames : frame array;
      (* the frame stack: [frames.(d)] is the register file of this
         function's invocation at recursion depth [d] (see
         {!push_frame}); grown on demand *)
  mutable depth : int;  (* live invocations of this function *)
}

(* One compiled block.  Blocks are compiled per run, after the run's
   [state] exists, so op closures capture the state (and the memory,
   the CI registry, callee [func_info]s, ...) directly instead of
   receiving them as arguments.  Every op closure works over a {!frame}
   — int/float/address traffic reads and writes the unboxed lanes and
   the typed memory cells directly, and boxed [Ir.Eval.value]s appear
   only at the seams ([ci_eval] dispatch, untyped intrinsics, [C_boxed]
   registers, run entry and exit).  The cycle charges of
   {!Jit_model.block_execution_cycles} only depend on whether the block
   is past warm-up, so both are precomputed ([r_hot], [r_cold]) — the
   identical float operations, performed once. *)
and rtblock = {
  r_info : block_info;  (* shared counters and static cycle data *)
  r_label : int;
  r_ops : (frame -> unit) array;
  r_phi_rows : (frame -> unit) array;
      (* the whole phi prologue, pre-compiled per predecessor label —
         [||] when the block has no phis.  [r_phi_rows.(pred)] skips
         every entry whose source already has its destination's slot (a
         coalesced phi), writes the other destinations directly when no
         entry reads a slot another one writes (move arrays for the int
         and float lanes), and otherwise stages those values into
         per-class scratch and then commits.  A label that is not a
         predecessor, or a row with nothing to move, holds [ignore].
         Scratch is safe to reuse because the phi prologue cannot
         re-enter this function. *)
  r_term : rterm;
  mutable r_link : rlinkterm;
      (* the linked form of [r_term]: successor labels resolved to the
         successor [rtblock]s themselves.  [RL_none] until
         {!link_rfunc} patches the function (never, with [tuning.link]
         off). *)
  r_fuel : int;  (* ninstrs + 1 *)
  r_native : float;  (* float_of_int static_cycles *)
  r_hot : float;  (* post-warm-up VM charge per execution *)
  r_cold : float;  (* interpreted VM charge per execution *)
}

(* A pre-decoded terminator over typed register files.  Scrutinees and
   return operands are compiled accessors rather than [src]s: the class
   dispatch happens at compile time, not per execution.  [R_ret] writes
   the returned operand into the state's typed return cell. *)
and rterm =
  | R_halt
  | R_ret of (frame -> unit)
  | R_br of int
  | R_cond of (frame -> bool) * int * int
  | R_cmp_br of (frame -> bool) * int * int
      (** fused compare-and-branch: the block's trailing compare
          (whose result fed only this terminator) folded into the
          branch decision.  Faults inside the condition are re-wrapped
          by the driver with the body's block context. *)
  | R_switch of (frame -> int64) * int * (int64, Ir.Instr.label) Hashtbl.t

(* A linked terminator: control transfers to the successor's compiled
   block directly, without re-indexing [rtblocks]. *)
and rlinkterm =
  | RL_none
  | RL_halt
  | RL_ret of (frame -> unit)
  | RL_br of rtblock
  | RL_cond of (frame -> bool) * rtblock * rtblock
  | RL_cmp_br of (frame -> bool) * rtblock * rtblock
  | RL_switch of (frame -> int64) * rtblock * (int64, rtblock) Hashtbl.t

and state = {
  funcs : (string, func_info) Hashtbl.t;
  memory : Memory.t;
  cis : ci_registry;
  swap : (int, float array) Hashtbl.t option;
      (* online hot-swap: per-CI cycle-charge cells, one charge per
         lane, read at dispatch instead of the statically bound charge;
         [None] (no monitor) keeps the compiled fast path untouched *)
  tuning : tuning;
      (* compiled-engine optimization knobs; ignored by the reference
         engine *)
  mutable mon : (int -> unit) option;
      (* the monitor's per-block callback, fed the block's dense id *)
  lanes : int;  (* clock lanes; lanes past 0 exist only when monitored *)
  clocks : float array;
      (* [| native; vm |] cycles per lane (lane [l] at [2l], [2l+1]),
         updated in place by both engines: a flat float array store is
         an unboxed write, a mutable float field of this record would
         box on every store *)
  mutable fuel : int;
      (* remaining dynamic instructions, negative = out; an immediate
         int ({!int_of_int64_clamped}), so the per-block decrement
         never allocates *)
  warmup : int;  (* the clamped [Jit_model.default.warmup_threshold] *)
  (* The typed return cell: a compiled [Ret] writes the returned
     operand's payload into the lane of its class and sets [ret_c];
     the caller copies it straight into its destination lane. *)
  ret_i : Bytes.t;  (* 8 bytes: a [C_int] payload *)
  ret_f : float array;  (* one element: a [C_float] payload *)
  mutable ret_p : int;  (* a [C_ptr] payload *)
  mutable ret_v : Ir.Eval.value;  (* a [C_boxed] payload *)
  mutable ret_c : rclass;  (* the class of the last returned value *)
}

let prepare_func (m : Ir.Irmod.t) (f : Ir.Func.t) ~(base : int) : func_info =
  let is_user_func name = Ir.Irmod.find_func m name <> None in
  let reg_tys = Array.make f.Ir.Func.next_reg Ir.Ty.Void in
  List.iter (fun (r, ty) -> reg_tys.(r) <- ty) f.Ir.Func.params;
  Ir.Func.iter_instrs
    (fun _ (i : Ir.Instr.t) -> reg_tys.(i.Ir.Instr.id) <- i.Ir.Instr.ty)
    f;
  let nblocks = Array.length f.Ir.Func.blocks in
  let blocks =
    Array.map
      (fun (b : Ir.Block.t) ->
        let instrs = Array.of_list b.Ir.Block.instrs in
        let static_cycles =
          Array.fold_left
            (fun acc (i : Ir.Instr.t) ->
              acc
              +
              match i.Ir.Instr.kind with
              | Ir.Instr.Call (name, _) when is_user_func name ->
                  Ir.Cost.call_linkage_cycles
              | kind -> Ir.Cost.cycles kind)
            0 instrs
          + Ir.Cost.terminator_cycles b.Ir.Block.term
        in
        let n = Array.length instrs in
        let phi_count =
          let rec go k =
            if
              k < n
              &&
              match instrs.(k).Ir.Instr.kind with
              | Ir.Instr.Phi _ -> true
              | _ -> false
            then go (k + 1)
            else k
          in
          go 0
        in
        let phi_dests =
          Array.init phi_count (fun k -> instrs.(k).Ir.Instr.id)
        in
        let incoming k =
          match instrs.(k).Ir.Instr.kind with
          | Ir.Instr.Phi incoming -> incoming
          | _ -> assert false
        in
        (* The verifier gives every phi one entry per predecessor and
           none for another label; first match wins, like
           List.assoc did. *)
        let phi_rows =
          if phi_count = 0 then [||] else Array.make nblocks [||]
        in
        if phi_count > 0 then
          List.iter
            (fun (pred, _) ->
              if Array.length phi_rows.(pred) = 0 then
                phi_rows.(pred) <-
                  Array.init phi_count (fun k -> List.assoc pred (incoming k)))
            (incoming 0);
        let switch_cases =
          match b.Ir.Block.term with
          | Ir.Instr.Switch (_, _, cases) ->
              let tbl = Hashtbl.create (max 4 (List.length cases)) in
              (* first match wins, like List.assoc_opt did *)
              List.iter
                (fun (v, l) -> if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v l)
                cases;
              Some tbl
          | _ -> None
        in
        {
          instrs;
          term = b.Ir.Block.term;
          ninstrs = n;
          static_cycles;
          phi_count;
          phi_dests;
          phi_rows;
          switch_cases;
          exec_count = 0;
        })
      f.Ir.Func.blocks
  in
  let use_counts = Array.make f.Ir.Func.next_reg 0 in
  let count_op = function
    | Ir.Instr.Reg r -> use_counts.(r) <- use_counts.(r) + 1
    | Ir.Instr.Const _ -> ()
  in
  Ir.Func.iter_instrs
    (fun _ (i : Ir.Instr.t) ->
      List.iter count_op (Ir.Instr.operands i.Ir.Instr.kind))
    f;
  Array.iter
    (fun (b : Ir.Block.t) ->
      List.iter count_op (Ir.Instr.terminator_operands b.Ir.Block.term))
    f.Ir.Func.blocks;
  {
    func = f;
    blocks;
    bid_base = base;
    reg_tys;
    use_counts;
    rclasses = [||];
    rslots = [||];
    rcounts = [||];
    rsplices = [||];
    rtblocks = [||];
    frames = [||];
    depth = 0;
  }

(* ------------------------------------------------------------------ *)
(* Reference engine                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = {
  ret : Ir.Eval.value option;
  native_cycles : float;
  vm_cycles : float;
  profile : Profile.t;
  memory : Memory.t option;
}

(** Simulated seconds for a cycle count, at the PowerPC 405 clock. *)
let seconds_of_cycles c = c *. Ir.Cost.cycle_time

(** Handle an online controller uses to observe and steer one clock
    lane of a run from inside the monitor callback.  Both engines keep
    the clocks in the shared state, updated in place, so the callback
    reads them consistently and stalls/rebinds land between blocks
    without disturbing the compiled code. *)
type control = {
  ctl_native : unit -> float;  (** the lane's native clock, cycles *)
  ctl_vm : unit -> float;  (** the lane's VM clock, cycles *)
  ctl_stall : float -> unit;
      (** charge a stall (e.g. a reconfiguration wait) to both of the
          lane's clocks *)
  ctl_bind : int -> float -> unit;
      (** set the lane's per-dispatch cycle charge of a CI — the
          hot-swap point: software-mode and hardware-mode cost per call *)
  ctl_block : func:string -> label:int -> int;
      (** the dense id of a block, as the callback receives it *)
}

(** A monitor receives one {!control} handle per lane at run start
    (before any block executes) and returns a callback invoked once
    per dynamic basic block, after every lane's clock charge for that
    block, with the block's dense id.  When absent, the run takes
    exactly the unmonitored code path — byte-identical clocks. *)
type monitor = control array -> int -> unit

(* A CI's swap cell, created at the statically bound charge in every
   lane. *)
let swap_cell (st : state) cells ci impl : float array =
  match Hashtbl.find_opt cells ci with
  | Some c -> c
  | None ->
      let c = Array.make st.lanes (float_of_int impl.ci_cycles) in
      Hashtbl.replace cells ci c;
      c

(* One CI dispatch under a monitor: each lane's clocks advance by that
   lane's charge in [cell]. *)
let charge_lanes (st : state) (cell : float array) : unit =
  let clocks = st.clocks in
  for l = 0 to st.lanes - 1 do
    let cyc = Array.unsafe_get cell l in
    Array.unsafe_set clocks (2 * l) (Array.unsafe_get clocks (2 * l) +. cyc);
    Array.unsafe_set clocks
      ((2 * l) + 1)
      (Array.unsafe_get clocks ((2 * l) + 1) +. cyc)
  done

let value_of_operand regs = function
  | Ir.Instr.Const c -> Ir.Eval.of_const c
  | Ir.Instr.Reg r -> regs.(r)

let rec exec_func (st : state) (fi : func_info) (args : Ir.Eval.value array) :
    Ir.Eval.value option =
  let f = fi.func in
  (* Every read follows a write of its register (the verifier's
     dominance rule), so the initial value is never read. *)
  let regs = Array.make f.Ir.Func.next_reg (Ir.Eval.VInt 0L) in
  Array.iteri (fun i v -> regs.(i) <- v) args;
  let frame_mark = Memory.mark st.memory in
  let finish v =
    Memory.release st.memory frame_mark;
    v
  in
  let cur = ref Ir.Func.entry_label in
  let prev = ref (-1) in
  let result = ref None in
  let running = ref true in
  while !running do
    let bi = fi.blocks.(!cur) in
    (* Fuel. *)
    st.fuel <- st.fuel - (bi.ninstrs + 1);
    if st.fuel < 0 then
      fault "execution budget exhausted in @%s" f.Ir.Func.name;
    (* Profile and clocks.  [prior] is the pre-increment count used by
       the JIT warm-up model. *)
    let prior = bi.exec_count in
    bi.exec_count <- prior + 1;
    let native = float_of_int bi.static_cycles
    and vm =
      Jit_model.block_execution_cycles ~prior:(Int64.of_int prior)
        ~ninstrs:bi.ninstrs ~native_cycles:bi.static_cycles
    in
    st.clocks.(0) <- st.clocks.(0) +. native;
    st.clocks.(1) <- st.clocks.(1) +. vm;
    (match st.mon with
    | None -> ()
    | Some mon ->
        for l = 1 to st.lanes - 1 do
          st.clocks.(2 * l) <- st.clocks.(2 * l) +. native;
          st.clocks.((2 * l) + 1) <- st.clocks.((2 * l) + 1) +. vm
        done;
        mon (fi.bid_base + !cur));
    (* Phis first, read atomically: the incoming operands per
       predecessor were pre-resolved into a row in [prepare_func]. *)
    let n = bi.ninstrs in
    let nphi = bi.phi_count in
    if nphi > 0 then begin
      let staged = Array.map (value_of_operand regs) bi.phi_rows.(!prev) in
      for k = 0 to nphi - 1 do
        regs.(bi.phi_dests.(k)) <- staged.(k)
      done
    end;
    (* Straight-line body. *)
    for k = nphi to n - 1 do
      let i = bi.instrs.(k) in
      let v op = value_of_operand regs op in
      let set x = regs.(i.Ir.Instr.id) <- x in
      try
        match i.Ir.Instr.kind with
        | Ir.Instr.Phi _ -> assert false (* phis lead their block *)
        | Ir.Instr.Binop (op, a, b) ->
            set (Ir.Eval.eval_binop i.Ir.Instr.ty op (v a) (v b))
        | Ir.Instr.Icmp (p, a, b) -> set (Ir.Eval.eval_icmp p (v a) (v b))
        | Ir.Instr.Fcmp (p, a, b) -> set (Ir.Eval.eval_fcmp p (v a) (v b))
        | Ir.Instr.Cast (c, a) ->
            let from_ =
              match a with
              | Ir.Instr.Const cst -> Ir.Instr.const_ty cst
              | Ir.Instr.Reg r -> fi.reg_tys.(r)
            in
            set (Ir.Eval.eval_cast c ~from_ ~to_:i.Ir.Instr.ty (v a))
        | Ir.Instr.Select (c, a, b) ->
            set (Ir.Eval.eval_select (v c) (v a) (v b))
        | Ir.Instr.Alloca (_, count) ->
            set (Ir.Eval.VPtr (Memory.alloc st.memory count))
        | Ir.Instr.Load a -> set (Memory.load st.memory (Ir.Eval.as_ptr (v a)))
        | Ir.Instr.Store (x, a) ->
            Memory.store st.memory (Ir.Eval.as_ptr (v a)) (v x)
        | Ir.Instr.Gep (base, idx) ->
            set
              (Ir.Eval.VPtr
                 (Ir.Eval.as_ptr (v base) + Int64.to_int (Ir.Eval.as_int (v idx))))
        | Ir.Instr.Gaddr g -> set (Ir.Eval.VPtr (Memory.global_base st.memory g))
        | Ir.Instr.Call (name, argops) -> (
            let argv = Array.of_list (List.map v argops) in
            match Hashtbl.find_opt st.funcs name with
            | Some callee -> (
                match exec_func st callee argv with
                | Some r -> set r
                | None -> ())
            | None ->
                if is_intrinsic name then set (intrinsic name argv)
                else fault "call to unknown function @%s" name)
        | Ir.Instr.Ci_call (ci, argops) -> (
            match Hashtbl.find_opt st.cis ci with
            | Some impl ->
                let argv = Array.of_list (List.map v argops) in
                set (impl.ci_eval argv);
                (match st.swap with
                | None ->
                    let cyc = float_of_int impl.ci_cycles in
                    st.clocks.(0) <- st.clocks.(0) +. cyc;
                    st.clocks.(1) <- st.clocks.(1) +. cyc
                | Some cells -> charge_lanes st (swap_cell st cells ci impl))
            | None -> fault "custom instruction #%d is not configured" ci)
      with
      | Ir.Eval.Division_by_zero ->
          fault "@%s/bb%d: division by zero" f.Ir.Func.name !cur
      | Ir.Eval.Type_error m -> fault "@%s/bb%d: %s" f.Ir.Func.name !cur m
      | Memory.Bad_address a ->
          fault "@%s/bb%d: bad address %d" f.Ir.Func.name !cur a
      | Memory.Out_of_memory -> fault "@%s: out of memory" f.Ir.Func.name
    done;
    (* Terminator. *)
    (match bi.term with
    | Ir.Instr.Ret op ->
        result := Option.map (value_of_operand regs) op;
        running := false
    | Ir.Instr.Br l ->
        prev := !cur;
        cur := l
    | Ir.Instr.Cond_br (c, a, b) ->
        prev := !cur;
        cur := (if Ir.Eval.is_true (value_of_operand regs c) then a else b)
    | Ir.Instr.Switch (s, default, _) ->
        let sv = Ir.Eval.as_int (value_of_operand regs s) in
        let tbl =
          match bi.switch_cases with Some tbl -> tbl | None -> assert false
        in
        prev := !cur;
        cur := (match Hashtbl.find_opt tbl sv with Some l -> l | None -> default))
  done;
  finish !result

(* ------------------------------------------------------------------ *)
(* Threaded engine: the typed-register-file compiler                   *)
(* ------------------------------------------------------------------ *)

(* The slot of a [Gep] register folded into the loads and stores that
   read it ({!fold_geps}): no slot at all. *)
let gep_folded = min_int

(* Decode an operand against a function's slots ({!classify_rfunc}): a
   register folded to its global's address (slot [-1 - base]) is that
   address as an immediate, in every operand position.  A folded [Gep]
   register is read only as the address of a load or store, which
   resolves it itself ({!raddr}), never through here. *)
let decode (slots : int array) : Ir.Instr.operand -> src = function
  | Ir.Instr.Const c -> Imm (Ir.Eval.of_const c)
  | Ir.Instr.Reg r ->
      let s = slots.(r) in
      if s >= 0 then Slot r
      else begin
        assert (s <> gep_folded);
        Imm (Ir.Eval.VPtr (-1 - s))
      end

module E = Ir.Eval

(* Hot helpers, local on purpose.  The dev build compiles every module
   with [-opaque], which hides a module's implementation from the
   others: a call to [Eval.renorm], [Eval.round_f32] or a [Memory]
   accessor from here is an out-of-line call whatever its [[@inline]]
   says, and the generic calling convention boxes its int64 / float
   arguments and result.  Same-module [[@inline]] functions and
   [%]-primitives are inlined by every build, so the typed arms below
   use these copies and allocate nothing.  Each copy computes exactly
   what the function it mirrors computes. *)

(* Unboxed 8-byte access to a [Bytes.t] at a byte offset, no bounds
   check: the int lane of a {!frame}, the phi prologue's int constants
   and staging scratch, and the int payloads of {!Memory.t} cells. *)
external bget64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bset64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* {!Ir.Eval.renorm} *)
let[@inline] renorm sh v =
  if sh >= 0 then Int64.shift_right (Int64.shift_left v sh) sh
  else Int64.logand v 1L

(* {!Ir.Eval.round_f32} *)
let[@inline] round_f32 v = Int32.float_of_bits (Int32.bits_of_float v)

(* Typed cell access over {!Memory.t}'s fields (layout and tag bytes
   in memory.mli):
   each is the boxed [Memory.load]/[Memory.store] fused with
   [Eval.as_int]/[as_float]/[as_ptr] or the matching constructor —
   the same results and the same exceptions in the same order, the
   live-range [Bad_address] before any [Type_error].  A live cell is
   inside the backing (memory.mli), so nothing else is checked. *)
let tag_int = '\000'
let tag_float = '\001'
let tag_ptr = '\002'

let[@inline] mcheck (m : Memory.t) a =
  if a <= 0 || a >= m.Memory.stack_pointer then raise (Memory.Bad_address a)

let[@inline] mload_i (m : Memory.t) a =
  mcheck m a;
  if Bytes.unsafe_get m.Memory.tags a = tag_float then
    raise (E.Type_error "expected an integer value")
  else bget64 m.Memory.ints (8 * a)

let[@inline] mload_f (m : Memory.t) a =
  mcheck m a;
  if Bytes.unsafe_get m.Memory.tags a = tag_float then
    Array.unsafe_get m.Memory.floats a
  else raise (E.Type_error "expected a float value")

let[@inline] mload_p (m : Memory.t) a =
  mcheck m a;
  if Bytes.unsafe_get m.Memory.tags a = tag_float then
    raise (E.Type_error "expected an address")
  else Int64.to_int (bget64 m.Memory.ints (8 * a))

let[@inline] mstore_i (m : Memory.t) a x =
  mcheck m a;
  Bytes.unsafe_set m.Memory.tags a tag_int;
  bset64 m.Memory.ints (8 * a) x

let[@inline] mstore_f (m : Memory.t) a x =
  mcheck m a;
  Bytes.unsafe_set m.Memory.tags a tag_float;
  Array.unsafe_set m.Memory.floats a x

let[@inline] mstore_p (m : Memory.t) a p =
  mcheck m a;
  Bytes.unsafe_set m.Memory.tags a tag_ptr;
  bset64 m.Memory.ints (8 * a) (Int64.of_int p)

(* Unboxed comparison predicates — one arm per predicate like
   {!Ir.Eval.icmp_fn}/{!Ir.Eval.fcmp_fn}, over already converted
   scalars. *)
let icmp_bool : Ir.Instr.icmp_pred -> int64 -> int64 -> bool = function
  | Ir.Instr.Ieq -> Int64.equal
  | Ir.Instr.Ine -> fun x y -> not (Int64.equal x y)
  | Ir.Instr.Islt -> fun x y -> Int64.compare x y < 0
  | Ir.Instr.Isle -> fun x y -> Int64.compare x y <= 0
  | Ir.Instr.Isgt -> fun x y -> Int64.compare x y > 0
  | Ir.Instr.Isge -> fun x y -> Int64.compare x y >= 0
  | Ir.Instr.Iult -> fun x y -> Int64.unsigned_compare x y < 0
  | Ir.Instr.Iule -> fun x y -> Int64.unsigned_compare x y <= 0
  | Ir.Instr.Iugt -> fun x y -> Int64.unsigned_compare x y > 0
  | Ir.Instr.Iuge -> fun x y -> Int64.unsigned_compare x y >= 0

let fcmp_bool : Ir.Instr.fcmp_pred -> float -> float -> bool =
  let[@inline] ord x y = not (Float.is_nan x || Float.is_nan y) in
  function
  | Ir.Instr.Foeq -> fun x y -> ord x y && x = y
  | Ir.Instr.Fone -> fun x y -> ord x y && x <> y
  | Ir.Instr.Folt -> fun x y -> ord x y && x < y
  | Ir.Instr.Fole -> fun x y -> ord x y && x <= y
  | Ir.Instr.Fogt -> fun x y -> ord x y && x > y
  | Ir.Instr.Foge -> fun x y -> ord x y && x >= y

(* Clamp an int64 fuel budget or warm-up threshold to [-1, max_int].
   Both live in the run's [state] as immediate ints, so the per-block
   fuel decrement and warm-up test never allocate.  A budget beyond
   [max_int] (4.6e18 dynamic instructions — centuries of simulated
   execution) is indistinguishable from unlimited; every negative
   budget is already exhausted and every negative threshold already
   passed, so clamping them to -1 changes nothing and keeps the
   in-place decrement [fuel - (ninstrs + 1)] from wrapping. *)
let int_of_int64_clamped v =
  if Int64.compare v (Int64.of_int max_int) > 0 then max_int
  else if Int64.compare v 0L < 0 then -1
  else Int64.to_int v

(* The compiler partitions a function's registers by declared type
   ({!rclass}) and compiles every operation into a closure over the
   {!frame}'s unboxed lanes.  The box/unbox seams are exactly: CI
   dispatch through [ci_eval] (a spliced CI body is ordinary typed
   code), intrinsics other than the typed one-argument float ones,
   [C_boxed] registers (including loads into and stores from them),
   the run's entry and exit, and the operations the MiniC frontend
   never emits ([select], [lshr], [udiv], [urem]).
   Everything else — int/float binops and signed divisions, compares,
   casts, geps, typed loads and stores, phi staging, branch tests,
   call arguments and returns — moves machine scalars
   between unboxed lanes and typed memory cells and allocates nothing.
   With
   [tuning.regalloc] off every register is classified [C_boxed], so the
   same compiler runs entirely on boxed values.

   Conversion discipline: reading a slot in a class other than its own
   goes through the same conversions {!Ir.Eval.as_int} & co. perform on
   the boxed representation ([C_ptr] read as int is [Int64.of_int],
   [C_int] read as address is [Int64.to_int], float/integer crossings
   raise the same constant-message [Type_error]s), so type-sound
   executions are byte-identical to the Reference engine.  The one
   documented divergence (DESIGN.md §14): a type-{e confused} execution
   — a declared register type contradicting the runtime value, which a
   verified module reaches only through a value whose class the
   verifier cannot see (a memory cell's dynamic tag, an intrinsic's or
   a CI's result) — may observe a conversion fault at the defining
   seam instead of at a later use, and pointer/integer values are
   canonicalized by the destination's class.  The differential and
   tuning suites only assert type-sound programs. *)

let rclass_of_ty : Ir.Ty.t -> rclass = function
  | Ir.Ty.I1 | Ir.Ty.I8 | Ir.Ty.I16 | Ir.Ty.I32 | Ir.Ty.I64 -> C_int
  | Ir.Ty.F32 | Ir.Ty.F64 -> C_float
  | Ir.Ty.Ptr -> C_ptr
  | Ir.Ty.Void -> C_boxed

(* Slot readers, one per consuming class.  [slots.(r)] is register
   [r]'s index inside its class's frame array (the per-class
   renumbering); every register a verified module names has one. *)

let rrd_box (classes : rclass array) (slots : int array) (r : int) :
    frame -> E.value =
  let s = slots.(r) in
  match classes.(r) with
  | C_int -> fun fr -> E.VInt (bget64 fr.fr_i s)
  | C_float -> fun fr -> E.VFloat (Array.unsafe_get fr.fr_f s)
  | C_ptr -> fun fr -> E.VPtr (Array.unsafe_get fr.fr_p s)
  | C_boxed -> fun fr -> Array.unsafe_get fr.fr_v s

let rrd_i (classes : rclass array) (slots : int array) (r : int) :
    frame -> int64 =
  let s = slots.(r) in
  match classes.(r) with
  | C_int -> fun fr -> bget64 fr.fr_i s
  | C_ptr -> fun fr -> Int64.of_int (Array.unsafe_get fr.fr_p s)
  | C_float -> fun _ -> raise (E.Type_error "expected an integer value")
  | C_boxed -> fun fr -> E.as_int (Array.unsafe_get fr.fr_v s)

let rrd_f (classes : rclass array) (slots : int array) (r : int) :
    frame -> float =
  let s = slots.(r) in
  match classes.(r) with
  | C_float -> fun fr -> Array.unsafe_get fr.fr_f s
  | C_int | C_ptr -> fun _ -> raise (E.Type_error "expected a float value")
  | C_boxed -> fun fr -> E.as_float (Array.unsafe_get fr.fr_v s)

let rrd_p (classes : rclass array) (slots : int array) (r : int) :
    frame -> int =
  let s = slots.(r) in
  match classes.(r) with
  | C_ptr -> fun fr -> Array.unsafe_get fr.fr_p s
  | C_int -> fun fr -> Int64.to_int (bget64 fr.fr_i s)
  | C_float -> fun _ -> raise (E.Type_error "expected an address")
  | C_boxed -> fun fr -> E.as_ptr (Array.unsafe_get fr.fr_v s)

(* Compile-time operand shapes.  A same-class register collapses to
   its frame-slot index ([RiS] & co.) so the consuming closure's body
   reads the unboxed array directly: a nested closure call would box
   its int64/float result on return (the generic calling convention
   has no unboxed returns), which is exactly the allocation the typed
   register file exists to remove.  Immediates whose conversion cannot
   fault are pre-resolved to scalar constants; everything else —
   cross-class and boxed registers, mismatched immediates — resolves
   to a residual closure with the standard conversions, faulting per
   execution like the Reference engine.  [RpX (base, s)] is the one
   fused address shape ({!raddr}): the constant [base] plus the int
   slot at byte offset [s], a folded [gep (gaddr A), i]. *)
type ri = RiS of int | RiK of int64 | RiG of (frame -> int64)
type rf = RfS of int | RfK of float | RfG of (frame -> float)
type rp = RpS of int | RpK of int | RpG of (frame -> int) | RpX of int * int

let rarg_i (classes : rclass array) (slots : int array) : src -> ri = function
  | Slot r when classes.(r) = C_int -> RiS slots.(r)
  | Slot r -> RiG (rrd_i classes slots r)
  | Imm (E.VInt k) -> RiK k
  | Imm (E.VPtr p) -> RiK (Int64.of_int p)
  | Imm (E.VFloat _ as v) -> RiG (fun _ -> E.as_int v)

let rarg_f (classes : rclass array) (slots : int array) : src -> rf = function
  | Slot r when classes.(r) = C_float -> RfS slots.(r)
  | Slot r -> RfG (rrd_f classes slots r)
  | Imm (E.VFloat k) -> RfK k
  | Imm ((E.VInt _ | E.VPtr _) as v) -> RfG (fun _ -> E.as_float v)

let rarg_p (classes : rclass array) (slots : int array) : src -> rp = function
  | Slot r when classes.(r) = C_ptr -> RpS slots.(r)
  | Slot r -> RpG (rrd_p classes slots r)
  | Imm (E.VPtr p) -> RpK p
  | Imm (E.VInt k) -> RpK (Int64.to_int k)
  | Imm (E.VFloat _ as v) -> RpG (fun _ -> E.as_ptr v)

(* Closure form of a shape, for residual arms and class-generic
   consumers (phi staging of rare shapes, switch scrutinees, seams). *)
let ri_fn : ri -> frame -> int64 = function
  | RiS s -> fun fr -> bget64 fr.fr_i s
  | RiK k -> fun _ -> k
  | RiG g -> g

let rf_fn : rf -> frame -> float = function
  | RfS s -> fun fr -> Array.unsafe_get fr.fr_f s
  | RfK k -> fun _ -> k
  | RfG g -> g

let rp_fn : rp -> frame -> int = function
  | RpS s -> fun fr -> Array.unsafe_get fr.fr_p s
  | RpK p -> fun _ -> p
  | RpG g -> g
  | RpX (pb, ri) -> fun fr -> pb + Int64.to_int (bget64 fr.fr_i ri)

let rget_i classes slots (s : src) : frame -> int64 =
  ri_fn (rarg_i classes slots s)

let rget_p classes slots (s : src) : frame -> int =
  rp_fn (rarg_p classes slots s)

let rget_box (classes : rclass array) (slots : int array) :
    src -> frame -> E.value = function
  | Slot r -> rrd_box classes slots r
  | Imm v -> fun _ -> v

(* Boxed write to a typed destination: the value is converted into the
   destination's class with the standard conversions.  This is the
   seam where call/intrinsic/CI results and loaded cells enter the
   typed register file. *)
let rwr_box (classes : rclass array) (slots : int array) (d : int) :
    frame -> E.value -> unit =
  let s = slots.(d) in
  match classes.(d) with
  | C_int -> fun fr v -> bset64 fr.fr_i s (E.as_int v)
  | C_float -> fun fr v -> Array.unsafe_set fr.fr_f s (E.as_float v)
  | C_ptr -> fun fr v -> Array.unsafe_set fr.fr_p s (E.as_ptr v)
  | C_boxed -> fun fr v -> Array.unsafe_set fr.fr_v s v

(* Truth test of an operand, per class — the same zero tests
   {!Ir.Eval.is_true} performs on the boxed representation ([is_true]
   never faults, so immediates are pre-evaluated). *)
let rtest (classes : rclass array) (slots : int array) :
    src -> frame -> bool = function
  | Slot r -> (
      let s = slots.(r) in
      match classes.(r) with
      | C_int -> fun fr -> bget64 fr.fr_i s <> 0L
      | C_float -> fun fr -> Array.unsafe_get fr.fr_f s <> 0.0
      | C_ptr -> fun fr -> Array.unsafe_get fr.fr_p s <> 0
      | C_boxed -> fun fr -> E.is_true (Array.unsafe_get fr.fr_v s))
  | Imm v ->
      let b = E.is_true v in
      fun _ -> b

(* Boxed argument vectors for [ci_eval] and untyped intrinsics,
   arity-specialized — the boxing here IS their seam.  User calls do
   not box ({!compile_rcall}). *)
let rargs_fn (classes : rclass array) (slots : int array) (srcs : src array) :
    frame -> E.value array =
  let g = rget_box classes slots in
  match srcs with
  | [||] -> fun _ -> [||]
  | [| s0 |] ->
      let g0 = g s0 in
      fun fr -> [| g0 fr |]
  | [| s0; s1 |] ->
      let g0 = g s0 and g1 = g s1 in
      fun fr -> [| g0 fr; g1 fr |]
  | [| s0; s1; s2 |] ->
      let g0 = g s0 and g1 = g s1 and g2 = g s2 in
      fun fr -> [| g0 fr; g1 fr; g2 fr |]
  | [| s0; s1; s2; s3 |] ->
      let g0 = g s0 and g1 = g s1 and g2 = g s2 and g3 = g s3 in
      fun fr -> [| g0 fr; g1 fr; g2 fr; g3 fr |]
  | srcs ->
      let gs = Array.map g srcs in
      fun fr -> Array.map (fun gk -> gk fr) gs

(* Signed integer division, the [Ir.Eval.binop_fn] arms over unboxed
   operands: the zero test and renormalization are the same. *)
let[@inline] sdiv sh x y =
  if Int64.equal y 0L then raise E.Division_by_zero
  else renorm sh (Int64.div x y)

let[@inline] srem sh x y =
  if Int64.equal y 0L then raise E.Division_by_zero
  else renorm sh (Int64.rem x y)

(* Typed binop compiler.  The scalar expressions are the
   [Ir.Eval.binop_fn] arm bodies over unboxed operands (same
   renormalization, shift masking, division checks and F32 rounding),
   with the hottest operator x shape combinations reading their slots
   directly inside the closure body — no allocation, no nested call.
   Shapes with a residual operand keep the closure form, except
   divisions, which like non-scalar destinations fall back to the
   boxed closure: it keeps [Division_by_zero] and the operand-conversion
   order exactly.  The operators the MiniC frontend never emits
   ([Lshr], [Udiv], [Urem]) take the boxed closure on every shape. *)
let compile_rbinop (classes : rclass array) (slots : int array)
    (ty : Ir.Ty.t) (op : Ir.Instr.binop) (d : int) (sa : src) (sb : src) :
    frame -> unit =
  let generic () =
    let f = E.binop_fn ty op in
    let ga = rget_box classes slots sa and gb = rget_box classes slots sb in
    let w = rwr_box classes slots d in
    fun fr -> w fr (f (ga fr) (gb fr))
  in
  match (op, classes.(d)) with
  | ( ( Ir.Instr.Add | Ir.Instr.Sub | Ir.Instr.Mul | Ir.Instr.And
      | Ir.Instr.Or | Ir.Instr.Xor | Ir.Instr.Shl | Ir.Instr.Ashr ),
      C_int ) -> (
      let sh = E.norm_shift ty in
      let sm = E.shift_amount ty (-1L) in
      let sd = slots.(d) in
      let aa = rarg_i classes slots sa and bb = rarg_i classes slots sb in
      match (op, aa, bb) with
      | Ir.Instr.Add, RiS a, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh
                 (Int64.add
                    (bget64 fr.fr_i a)
                    (bget64 fr.fr_i b)))
      | Ir.Instr.Add, RiS a, RiK kb ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.add (bget64 fr.fr_i a) kb))
      | Ir.Instr.Add, RiK ka, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.add ka (bget64 fr.fr_i b)))
      | Ir.Instr.Sub, RiS a, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh
                 (Int64.sub
                    (bget64 fr.fr_i a)
                    (bget64 fr.fr_i b)))
      | Ir.Instr.Sub, RiS a, RiK kb ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.sub (bget64 fr.fr_i a) kb))
      | Ir.Instr.Sub, RiK ka, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.sub ka (bget64 fr.fr_i b)))
      | Ir.Instr.Mul, RiS a, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh
                 (Int64.mul
                    (bget64 fr.fr_i a)
                    (bget64 fr.fr_i b)))
      | Ir.Instr.Mul, RiS a, RiK kb ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.mul (bget64 fr.fr_i a) kb))
      | Ir.Instr.Mul, RiK ka, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.mul ka (bget64 fr.fr_i b)))
      | Ir.Instr.And, RiS a, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh
                 (Int64.logand
                    (bget64 fr.fr_i a)
                    (bget64 fr.fr_i b)))
      | Ir.Instr.And, RiS a, RiK kb ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.logand (bget64 fr.fr_i a) kb))
      | Ir.Instr.And, RiK ka, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.logand ka (bget64 fr.fr_i b)))
      | Ir.Instr.Or, RiS a, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh
                 (Int64.logor
                    (bget64 fr.fr_i a)
                    (bget64 fr.fr_i b)))
      | Ir.Instr.Or, RiS a, RiK kb ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.logor (bget64 fr.fr_i a) kb))
      | Ir.Instr.Or, RiK ka, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.logor ka (bget64 fr.fr_i b)))
      | Ir.Instr.Xor, RiS a, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh
                 (Int64.logxor
                    (bget64 fr.fr_i a)
                    (bget64 fr.fr_i b)))
      | Ir.Instr.Xor, RiS a, RiK kb ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.logxor (bget64 fr.fr_i a) kb))
      | Ir.Instr.Xor, RiK ka, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.logxor ka (bget64 fr.fr_i b)))
      | Ir.Instr.Shl, RiS a, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh
                 (Int64.shift_left
                    (bget64 fr.fr_i a)
                    (Int64.to_int (bget64 fr.fr_i b) land sm)))
      | Ir.Instr.Shl, RiS a, RiK kb ->
          let n = E.shift_amount ty kb in
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.shift_left (bget64 fr.fr_i a) n))
      | Ir.Instr.Ashr, RiS a, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh
                 (Int64.shift_right
                    (bget64 fr.fr_i a)
                    (Int64.to_int (bget64 fr.fr_i b) land sm)))
      | Ir.Instr.Ashr, RiS a, RiK kb ->
          let n = E.shift_amount ty kb in
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh
                 (Int64.shift_right (bget64 fr.fr_i a) n))
      | _ -> (
          let ga = ri_fn aa and gb = ri_fn bb in
          match op with
          | Ir.Instr.Add ->
              fun fr ->
                bset64 fr.fr_i sd
                  (renorm sh (Int64.add (ga fr) (gb fr)))
          | Ir.Instr.Sub ->
              fun fr ->
                bset64 fr.fr_i sd
                  (renorm sh (Int64.sub (ga fr) (gb fr)))
          | Ir.Instr.Mul ->
              fun fr ->
                bset64 fr.fr_i sd
                  (renorm sh (Int64.mul (ga fr) (gb fr)))
          | Ir.Instr.And ->
              fun fr ->
                bset64 fr.fr_i sd
                  (renorm sh (Int64.logand (ga fr) (gb fr)))
          | Ir.Instr.Or ->
              fun fr ->
                bset64 fr.fr_i sd
                  (renorm sh (Int64.logor (ga fr) (gb fr)))
          | Ir.Instr.Xor ->
              fun fr ->
                bset64 fr.fr_i sd
                  (renorm sh (Int64.logxor (ga fr) (gb fr)))
          | Ir.Instr.Shl ->
              fun fr ->
                bset64 fr.fr_i sd
                  (renorm sh
                     (Int64.shift_left (ga fr)
                        (Int64.to_int (gb fr) land sm)))
          | Ir.Instr.Ashr ->
              fun fr ->
                bset64 fr.fr_i sd
                  (renorm sh
                     (Int64.shift_right (ga fr)
                        (Int64.to_int (gb fr) land sm)))
          | _ -> generic ()))
  | (Ir.Instr.Sdiv | Ir.Instr.Srem), C_int -> (
      let sh = E.norm_shift ty in
      let sd = slots.(d) in
      match (op, rarg_i classes slots sa, rarg_i classes slots sb) with
      | Ir.Instr.Sdiv, RiS a, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd (sdiv sh (bget64 fr.fr_i a) (bget64 fr.fr_i b))
      | Ir.Instr.Sdiv, RiS a, RiK kb ->
          fun fr -> bset64 fr.fr_i sd (sdiv sh (bget64 fr.fr_i a) kb)
      | Ir.Instr.Sdiv, RiK ka, RiS b ->
          fun fr -> bset64 fr.fr_i sd (sdiv sh ka (bget64 fr.fr_i b))
      | Ir.Instr.Srem, RiS a, RiS b ->
          fun fr ->
            bset64 fr.fr_i sd (srem sh (bget64 fr.fr_i a) (bget64 fr.fr_i b))
      | Ir.Instr.Srem, RiS a, RiK kb ->
          fun fr -> bset64 fr.fr_i sd (srem sh (bget64 fr.fr_i a) kb)
      | Ir.Instr.Srem, RiK ka, RiS b ->
          fun fr -> bset64 fr.fr_i sd (srem sh ka (bget64 fr.fr_i b))
      | _ -> generic ())
  | ( (Ir.Instr.Fadd | Ir.Instr.Fsub | Ir.Instr.Fmul | Ir.Instr.Fdiv),
      C_float ) -> (
      let sd = slots.(d) in
      let aa = rarg_f classes slots sa and bb = rarg_f classes slots sb in
      if ty = Ir.Ty.F32 then
        match (op, aa, bb) with
        | Ir.Instr.Fadd, RfS a, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd
                (round_f32
                   (Array.unsafe_get fr.fr_f a +. Array.unsafe_get fr.fr_f b))
        | Ir.Instr.Fsub, RfS a, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd
                (round_f32
                   (Array.unsafe_get fr.fr_f a -. Array.unsafe_get fr.fr_f b))
        | Ir.Instr.Fmul, RfS a, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd
                (round_f32
                   (Array.unsafe_get fr.fr_f a *. Array.unsafe_get fr.fr_f b))
        | Ir.Instr.Fdiv, RfS a, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd
                (round_f32
                   (Array.unsafe_get fr.fr_f a /. Array.unsafe_get fr.fr_f b))
        | _ -> (
            let ga = rf_fn aa and gb = rf_fn bb in
            match op with
            | Ir.Instr.Fadd ->
                fun fr ->
                  Array.unsafe_set fr.fr_f sd (round_f32 (ga fr +. gb fr))
            | Ir.Instr.Fsub ->
                fun fr ->
                  Array.unsafe_set fr.fr_f sd (round_f32 (ga fr -. gb fr))
            | Ir.Instr.Fmul ->
                fun fr ->
                  Array.unsafe_set fr.fr_f sd (round_f32 (ga fr *. gb fr))
            | Ir.Instr.Fdiv ->
                fun fr ->
                  Array.unsafe_set fr.fr_f sd (round_f32 (ga fr /. gb fr))
            | _ -> generic ())
      else
        match (op, aa, bb) with
        | Ir.Instr.Fadd, RfS a, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd
                (Array.unsafe_get fr.fr_f a +. Array.unsafe_get fr.fr_f b)
        | Ir.Instr.Fadd, RfS a, RfK kb ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a +. kb)
        | Ir.Instr.Fadd, RfK ka, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd (ka +. Array.unsafe_get fr.fr_f b)
        | Ir.Instr.Fsub, RfS a, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd
                (Array.unsafe_get fr.fr_f a -. Array.unsafe_get fr.fr_f b)
        | Ir.Instr.Fsub, RfS a, RfK kb ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a -. kb)
        | Ir.Instr.Fsub, RfK ka, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd (ka -. Array.unsafe_get fr.fr_f b)
        | Ir.Instr.Fmul, RfS a, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd
                (Array.unsafe_get fr.fr_f a *. Array.unsafe_get fr.fr_f b)
        | Ir.Instr.Fmul, RfS a, RfK kb ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a *. kb)
        | Ir.Instr.Fmul, RfK ka, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd (ka *. Array.unsafe_get fr.fr_f b)
        | Ir.Instr.Fdiv, RfS a, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd
                (Array.unsafe_get fr.fr_f a /. Array.unsafe_get fr.fr_f b)
        | Ir.Instr.Fdiv, RfS a, RfK kb ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a /. kb)
        | Ir.Instr.Fdiv, RfK ka, RfS b ->
            fun fr ->
              Array.unsafe_set fr.fr_f sd (ka /. Array.unsafe_get fr.fr_f b)
        | _ -> (
            let ga = rf_fn aa and gb = rf_fn bb in
            match op with
            | Ir.Instr.Fadd ->
                fun fr -> Array.unsafe_set fr.fr_f sd (ga fr +. gb fr)
            | Ir.Instr.Fsub ->
                fun fr -> Array.unsafe_set fr.fr_f sd (ga fr -. gb fr)
            | Ir.Instr.Fmul ->
                fun fr -> Array.unsafe_set fr.fr_f sd (ga fr *. gb fr)
            | Ir.Instr.Fdiv ->
                fun fr -> Array.unsafe_set fr.fr_f sd (ga fr /. gb fr)
            | _ -> generic ()))
  | _ -> generic ()

(* Boolean compile of a compare: the one table of compare shapes.
   The typed compare-and-branch terminator fusion uses it as is, with
   no flag materialized at all on the direct shapes; {!compile_rcmp}
   writes its result.  The direct arms inline both slot reads — the
   shared [icmp_bool]/[fcmp_bool] predicates stay the residual path
   (an indirect predicate call would box both scalars). *)
let rbool_icmp (classes : rclass array) (slots : int array)
    (p : Ir.Instr.icmp_pred) (sa : src) (sb : src) : frame -> bool =
  let aa = rarg_i classes slots sa and bb = rarg_i classes slots sb in
  match (p, aa, bb) with
  | Ir.Instr.Ieq, RiS a, RiS b ->
      fun fr ->
        Int64.equal (bget64 fr.fr_i a) (bget64 fr.fr_i b)
  | Ir.Instr.Ieq, RiS a, RiK kb ->
      fun fr -> Int64.equal (bget64 fr.fr_i a) kb
  | Ir.Instr.Ine, RiS a, RiS b ->
      fun fr ->
        not
          (Int64.equal
             (bget64 fr.fr_i a)
             (bget64 fr.fr_i b))
  | Ir.Instr.Ine, RiS a, RiK kb ->
      fun fr -> not (Int64.equal (bget64 fr.fr_i a) kb)
  | Ir.Instr.Islt, RiS a, RiS b ->
      fun fr ->
        Int64.compare (bget64 fr.fr_i a) (bget64 fr.fr_i b)
        < 0
  | Ir.Instr.Islt, RiS a, RiK kb ->
      fun fr -> Int64.compare (bget64 fr.fr_i a) kb < 0
  | Ir.Instr.Isle, RiS a, RiS b ->
      fun fr ->
        Int64.compare (bget64 fr.fr_i a) (bget64 fr.fr_i b)
        <= 0
  | Ir.Instr.Isle, RiS a, RiK kb ->
      fun fr -> Int64.compare (bget64 fr.fr_i a) kb <= 0
  | Ir.Instr.Isgt, RiS a, RiS b ->
      fun fr ->
        Int64.compare (bget64 fr.fr_i a) (bget64 fr.fr_i b)
        > 0
  | Ir.Instr.Isgt, RiS a, RiK kb ->
      fun fr -> Int64.compare (bget64 fr.fr_i a) kb > 0
  | Ir.Instr.Isge, RiS a, RiS b ->
      fun fr ->
        Int64.compare (bget64 fr.fr_i a) (bget64 fr.fr_i b)
        >= 0
  | Ir.Instr.Isge, RiS a, RiK kb ->
      fun fr -> Int64.compare (bget64 fr.fr_i a) kb >= 0
  | Ir.Instr.Iult, RiS a, RiS b ->
      fun fr ->
        Int64.unsigned_compare
          (bget64 fr.fr_i a)
          (bget64 fr.fr_i b)
        < 0
  | Ir.Instr.Iult, RiS a, RiK kb ->
      fun fr -> Int64.unsigned_compare (bget64 fr.fr_i a) kb < 0
  | Ir.Instr.Iule, RiS a, RiS b ->
      fun fr ->
        Int64.unsigned_compare
          (bget64 fr.fr_i a)
          (bget64 fr.fr_i b)
        <= 0
  | Ir.Instr.Iule, RiS a, RiK kb ->
      fun fr -> Int64.unsigned_compare (bget64 fr.fr_i a) kb <= 0
  | Ir.Instr.Iugt, RiS a, RiS b ->
      fun fr ->
        Int64.unsigned_compare
          (bget64 fr.fr_i a)
          (bget64 fr.fr_i b)
        > 0
  | Ir.Instr.Iugt, RiS a, RiK kb ->
      fun fr -> Int64.unsigned_compare (bget64 fr.fr_i a) kb > 0
  | Ir.Instr.Iuge, RiS a, RiS b ->
      fun fr ->
        Int64.unsigned_compare
          (bget64 fr.fr_i a)
          (bget64 fr.fr_i b)
        >= 0
  | Ir.Instr.Iuge, RiS a, RiK kb ->
      fun fr -> Int64.unsigned_compare (bget64 fr.fr_i a) kb >= 0
  | _ ->
      let t = icmp_bool p in
      let ga = ri_fn aa and gb = ri_fn bb in
      fun fr -> t (ga fr) (gb fr)

let rbool_fcmp (classes : rclass array) (slots : int array)
    (p : Ir.Instr.fcmp_pred) (sa : src) (sb : src) : frame -> bool =
  let[@inline] ord x y = not (Float.is_nan x || Float.is_nan y) in
  let aa = rarg_f classes slots sa and bb = rarg_f classes slots sb in
  match (p, aa, bb) with
  | Ir.Instr.Foeq, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x = y
  | Ir.Instr.Foeq, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x = kb
  | Ir.Instr.Fone, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x <> y
  | Ir.Instr.Fone, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x <> kb
  | Ir.Instr.Folt, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x < y
  | Ir.Instr.Folt, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x < kb
  | Ir.Instr.Fole, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x <= y
  | Ir.Instr.Fole, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x <= kb
  | Ir.Instr.Fogt, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x > y
  | Ir.Instr.Fogt, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x > kb
  | Ir.Instr.Foge, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x >= y
  | Ir.Instr.Foge, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x >= kb
  | _ ->
      let t = fcmp_bool p in
      let ga = rf_fn aa and gb = rf_fn bb in
      fun fr -> t (ga fr) (gb fr)

(* A compare that writes its result.  An int destination runs the
   boolean compile [test ()] and writes 1L/0L (the test returns an
   immediate bool, so nothing boxes); any other destination class
   falls back to the boxed closure [f]. *)
let compile_rcmp (classes : rclass array) (slots : int array) (d : int)
    (sa : src) (sb : src) (f : E.value -> E.value -> E.value)
    (test : unit -> frame -> bool) : frame -> unit =
  if classes.(d) = C_int then
    let sd = slots.(d) and t = test () in
    fun fr -> bset64 fr.fr_i sd (if t fr then 1L else 0L)
  else
    let ga = rget_box classes slots sa and gb = rget_box classes slots sb in
    let w = rwr_box classes slots d in
    fun fr -> w fr (f (ga fr) (gb fr))

let compile_rcast (classes : rclass array) (slots : int array)
    (c : Ir.Instr.cast) ~from_ ~to_ (d : int) (sa : src) : frame -> unit =
  let generic () =
    let f = E.cast_fn c ~from_ ~to_ in
    let ga = rget_box classes slots sa in
    let w = rwr_box classes slots d in
    fun fr -> w fr (f (ga fr))
  in
  match (c, classes.(d)) with
  | (Ir.Instr.Trunc | Ir.Instr.Sext), C_int -> (
      let sh = E.norm_shift to_ in
      match rarg_i classes slots sa with
      | RiS a ->
          fun fr ->
            bset64 fr.fr_i slots.(d)
              (renorm sh (bget64 fr.fr_i a))
      | aa ->
          let ga = ri_fn aa in
          let sd = slots.(d) in
          fun fr -> bset64 fr.fr_i sd (renorm sh (ga fr)))
  | Ir.Instr.Zext, C_int -> (
      let sh = E.norm_shift to_ in
      let um = E.umask from_ (-1L) in
      match rarg_i classes slots sa with
      | RiS a ->
          let sd = slots.(d) in
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.logand (bget64 fr.fr_i a) um))
      | aa ->
          let ga = ri_fn aa in
          let sd = slots.(d) in
          fun fr ->
            bset64 fr.fr_i sd
              (renorm sh (Int64.logand (ga fr) um)))
  | Ir.Instr.Fptosi, C_int -> (
      let sh = E.norm_shift to_ in
      match rarg_f classes slots sa with
      | RfS a ->
          let sd = slots.(d) in
          fun fr ->
            let f = Array.unsafe_get fr.fr_f a in
            bset64 fr.fr_i sd
              (if Float.is_nan f then 0L else renorm sh (Int64.of_float f))
      | aa ->
          let ga = rf_fn aa in
          let sd = slots.(d) in
          fun fr ->
            let f = ga fr in
            bset64 fr.fr_i sd
              (if Float.is_nan f then 0L else renorm sh (Int64.of_float f))
      )
  | Ir.Instr.Sitofp, C_float -> (
      let sd = slots.(d) in
      match rarg_i classes slots sa with
      | RiS a ->
          if to_ = Ir.Ty.F32 then fun fr ->
            Array.unsafe_set fr.fr_f sd
              (round_f32 (Int64.to_float (bget64 fr.fr_i a)))
          else fun fr ->
            Array.unsafe_set fr.fr_f sd
              (Int64.to_float (bget64 fr.fr_i a))
      | aa ->
          let ga = ri_fn aa in
          if to_ = Ir.Ty.F32 then fun fr ->
            Array.unsafe_set fr.fr_f sd
              (round_f32 (Int64.to_float (ga fr)))
          else fun fr ->
            Array.unsafe_set fr.fr_f sd (Int64.to_float (ga fr)))
  | Ir.Instr.Fpext, C_float -> (
      let sd = slots.(d) in
      match rarg_f classes slots sa with
      | RfS a ->
          fun fr -> Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a)
      | aa ->
          let ga = rf_fn aa in
          fun fr -> Array.unsafe_set fr.fr_f sd (ga fr))
  | Ir.Instr.Fptrunc, C_float -> (
      let sd = slots.(d) in
      match rarg_f classes slots sa with
      | RfS a ->
          if to_ = Ir.Ty.F32 then fun fr ->
            Array.unsafe_set fr.fr_f sd
              (round_f32 (Array.unsafe_get fr.fr_f a))
          else fun fr ->
            Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a)
      | aa ->
          let ga = rf_fn aa in
          if to_ = Ir.Ty.F32 then fun fr ->
            Array.unsafe_set fr.fr_f sd (round_f32 (ga fr))
          else fun fr -> Array.unsafe_set fr.fr_f sd (ga fr))
  | _ -> generic ()

(* ------------------------------------------------------------------ *)
(* The compiled driver and the typed calling convention                *)
(* ------------------------------------------------------------------ *)

let zero_value = E.VInt 0L

let fresh_frame (counts : int array) : frame =
  {
    fr_i = Bytes.make (8 * counts.(0)) '\000';
    fr_f = Array.make counts.(1) 0.0;
    fr_p = Array.make counts.(2) 0;
    fr_v = Array.make counts.(3) zero_value;
  }

(* Claim the frame of [fi]'s next invocation.  [fi.frames.(d)] belongs
   to the invocation at recursion depth [d] of this function, so every
   live invocation owns a distinct frame — a callee at depth 2 never
   shares depth 1's — and a call allocates no frame once its depth has
   been reached before.  A reused frame keeps the previous
   invocation's values: the verifier's dominance rule puts a write of
   every register before each of its reads, so no stale value is
   read.  {!enter} gives the frame back.  A fault skips that, which is
   harmless: it ends the run, and the next run prepares fresh
   [func_info]s. *)
let push_frame (fi : func_info) : frame =
  let d = fi.depth in
  if d >= Array.length fi.frames then begin
    let old = fi.frames in
    fi.frames <-
      Array.init
        (max 4 (2 * d))
        (fun k -> if k < d then old.(k) else fresh_frame fi.rcounts)
  end;
  fi.depth <- d + 1;
  Array.unsafe_get fi.frames d

(* The return cell as a boxed value: the run's exit seam, and a
   caller whose destination class differs from the returned one. *)
let ret_box (st : state) : E.value =
  match st.ret_c with
  | C_int -> E.VInt (bget64 st.ret_i 0)
  | C_float -> E.VFloat (Array.unsafe_get st.ret_f 0)
  | C_ptr -> E.VPtr st.ret_p
  | C_boxed -> st.ret_v

(* A fused compare-and-branch condition, its faults re-wrapped with the
   body's block context. *)
let cmp_test (fi : func_info) curl (test : frame -> bool) fr =
  try test fr with
  | Ir.Eval.Type_error m -> fault "@%s/bb%d: %s" fi.func.Ir.Func.name curl m
  | Memory.Bad_address a ->
      fault "@%s/bb%d: bad address %d" fi.func.Ir.Func.name curl a
  | Memory.Out_of_memory -> fault "@%s: out of memory" fi.func.Ir.Func.name

(** Run one function's compiled blocks: the single compiled driver.
    Every call goes through {!enter} — the run's entry point and each
    pre-bound [Call] closure ({!compile_rcall}).  [go] and [goto] are
    top-level functions over the whole driver state
    [(st, fi, fr, tb, prevl, budget)], so a call allocates no closure.

    Per block, in this order and with the Reference engine's
    arithmetic: fuel, profile count, both clocks (of every lane, when
    monitored), the monitor hook, the phi prologue, the body, the
    terminator.  Fuel and clocks live in [st] and are updated in place;
    the clocks are float sums, so the order of additions matters for
    byte-identical outcomes, and it is the Reference engine's.

    Control transfers follow the [r_link] references as mutually
    tail-recursive calls.  Every [max_linked_blocks] consecutive direct
    transfers the driver takes one trip through the indexed path
    ([rtblocks.(label)]), the escape hatch, and resets the budget.  An
    unlinked terminator ([RL_none]: [tuning.link] off) always takes the
    indexed path.  Both paths land on the same [rtblock] and run the
    same per-block protocol, so linking changes host speed only.

    The result is [true] when the function returned a value, which is
    then in the state's return cell. *)
let rec go (st : state) (fi : func_info) (fr : frame) (tb : rtblock)
    (prevl : int) (budget : int) : bool =
  let bi = tb.r_info in
  let curl = tb.r_label in
  let fuel = st.fuel - tb.r_fuel in
  st.fuel <- fuel;
  if fuel < 0 then
    fault "execution budget exhausted in @%s" fi.func.Ir.Func.name;
  let prior = bi.exec_count in
  bi.exec_count <- prior + 1;
  let clocks = st.clocks in
  Array.unsafe_set clocks 0 (Array.unsafe_get clocks 0 +. tb.r_native);
  Array.unsafe_set clocks 1
    (Array.unsafe_get clocks 1
    +. if prior >= st.warmup then tb.r_hot else tb.r_cold);
  (match st.mon with
  | None -> ()
  | Some mon ->
      let vm = if prior >= st.warmup then tb.r_hot else tb.r_cold in
      for l = 1 to st.lanes - 1 do
        Array.unsafe_set clocks (2 * l)
          (Array.unsafe_get clocks (2 * l) +. tb.r_native);
        Array.unsafe_set clocks
          ((2 * l) + 1)
          (Array.unsafe_get clocks ((2 * l) + 1) +. vm)
      done;
      mon (fi.bid_base + curl));
  (* Phi prologue: one closure per predecessor label, compiled as
     direct writes, or as a stage-then-commit pass when an entry reads
     a slot another entry of the row writes.  A block with phis is
     never the entry block, so [prevl] is one of its predecessors. *)
  let rows = tb.r_phi_rows in
  if Array.length rows > 0 then (Array.unsafe_get rows prevl) fr;
  (* Body: an array walk of pre-decoded closures.  The runtime faults
     an instruction can raise get the block context the Reference
     engine attaches per instruction. *)
  (try
     let ops = tb.r_ops in
     for k = 0 to Array.length ops - 1 do
       (Array.unsafe_get ops k) fr
     done
   with
  | Ir.Eval.Division_by_zero ->
      fault "@%s/bb%d: division by zero" fi.func.Ir.Func.name curl
  | Ir.Eval.Type_error m -> fault "@%s/bb%d: %s" fi.func.Ir.Func.name curl m
  | Memory.Bad_address a ->
      fault "@%s/bb%d: bad address %d" fi.func.Ir.Func.name curl a
  | Memory.Out_of_memory -> fault "@%s: out of memory" fi.func.Ir.Func.name);
  match tb.r_link with
  | RL_halt -> false
  | RL_ret w ->
      w fr;
      true
  | RL_br nb -> goto st fi fr nb curl budget
  | RL_cond (t, x, y) -> goto st fi fr (if t fr then x else y) curl budget
  | RL_cmp_br (test, x, y) ->
      goto st fi fr (if cmp_test fi curl test fr then x else y) curl budget
  | RL_switch (g, dflt, tbl) ->
      let sv = g fr in
      goto st fi fr
        (match Hashtbl.find_opt tbl sv with Some t -> t | None -> dflt)
        curl budget
  | RL_none -> (
      (* [tuning.link] off: transfer through the indexed path *)
      let budget0 = st.tuning.max_linked_blocks in
      let rtblocks = fi.rtblocks in
      match tb.r_term with
      | R_halt -> false
      | R_ret w ->
          w fr;
          true
      | R_br l -> go st fi fr rtblocks.(l) curl budget0
      | R_cond (t, x, y) ->
          go st fi fr rtblocks.(if t fr then x else y) curl budget0
      | R_cmp_br (test, x, y) ->
          go st fi fr
            rtblocks.(if cmp_test fi curl test fr then x else y)
            curl budget0
      | R_switch (g, dflt, tbl) ->
          let sv = g fr in
          go st fi fr
            rtblocks.(match Hashtbl.find_opt tbl sv with
                      | Some l -> l
                      | None -> dflt)
            curl budget0)

and goto st fi fr (next : rtblock) prevl budget =
  if budget > 0 then go st fi fr next prevl (budget - 1)
  else
    go st fi fr fi.rtblocks.(next.r_label) prevl st.tuning.max_linked_blocks

(* Run [fi] on [fr], a frame claimed by {!push_frame} whose parameter
   slots are filled, then give the frame and the invocation's stack
   cells back. *)
let enter (st : state) (fi : func_info) (fr : frame) : bool =
  let frame_mark = Memory.mark st.memory in
  let r =
    go st fi fr fi.rtblocks.(Ir.Func.entry_label) (-1)
      st.tuning.max_linked_blocks
  in
  Memory.release st.memory frame_mark;
  fi.depth <- fi.depth - 1;
  r

(* The typed calling convention, compiled per call site.  Argument [i]
   moves straight from the caller's lane slot into the callee's
   parameter slot (parameter registers are 0..n-1) — a "mover", bound
   at compile time from both functions' classifications.  The verifier
   gives a call its callee's arity, parameter types and return type, and
   every constant a value of its type's class, so an argument is a slot
   of the parameter's own class or an immediate that converts to it:
   each move is one unboxed copy.  The result comes back through the
   state's typed return cell and is copied into the destination lane. *)
let rmove (slots : int array) (callee : func_info) (i : int) (s : src) :
    frame -> frame -> unit =
  let t = callee.rslots.(i) in
  match (callee.rclasses.(i), s) with
  | C_int, Slot r ->
      let a = slots.(r) in
      fun fr cfr -> bset64 cfr.fr_i t (bget64 fr.fr_i a)
  | C_float, Slot r ->
      let a = slots.(r) in
      fun fr cfr -> Array.unsafe_set cfr.fr_f t (Array.unsafe_get fr.fr_f a)
  | C_ptr, Slot r ->
      let a = slots.(r) in
      fun fr cfr -> Array.unsafe_set cfr.fr_p t (Array.unsafe_get fr.fr_p a)
  | C_boxed, Slot r ->
      let a = slots.(r) in
      fun fr cfr -> Array.unsafe_set cfr.fr_v t (Array.unsafe_get fr.fr_v a)
  | C_int, Imm v ->
      let k = E.as_int v in
      fun _ cfr -> bset64 cfr.fr_i t k
  | C_float, Imm v ->
      let k = E.as_float v in
      fun _ cfr -> Array.unsafe_set cfr.fr_f t k
  | C_ptr, Imm v ->
      let p = E.as_ptr v in
      fun _ cfr -> Array.unsafe_set cfr.fr_p t p
  | C_boxed, Imm v -> fun _ cfr -> Array.unsafe_set cfr.fr_v t v

(* [R_ret] of one operand: write its payload into the return cell lane
   of its own class. *)
let rret (st : state) (classes : rclass array) (slots : int array) :
    src -> frame -> unit = function
  | Slot r -> (
      let s = slots.(r) in
      match classes.(r) with
      | C_int ->
          fun fr ->
            bset64 st.ret_i 0 (bget64 fr.fr_i s);
            st.ret_c <- C_int
      | C_float ->
          fun fr ->
            Array.unsafe_set st.ret_f 0 (Array.unsafe_get fr.fr_f s);
            st.ret_c <- C_float
      | C_ptr ->
          fun fr ->
            st.ret_p <- Array.unsafe_get fr.fr_p s;
            st.ret_c <- C_ptr
      | C_boxed ->
          fun fr ->
            st.ret_v <- Array.unsafe_get fr.fr_v s;
            st.ret_c <- C_boxed)
  | Imm (E.VInt k) ->
      fun _ ->
        bset64 st.ret_i 0 k;
        st.ret_c <- C_int
  | Imm (E.VFloat k) ->
      fun _ ->
        Array.unsafe_set st.ret_f 0 k;
        st.ret_c <- C_float
  | Imm (E.VPtr p) ->
      fun _ ->
        st.ret_p <- p;
        st.ret_c <- C_ptr

(* The caller's half of a return: copy the return cell into
   destination [d]'s lane.  The callee returned a value of [d]'s type,
   so the cell holds [d]'s class, except that a ptr function may
   return an integer constant (its cell then holds [C_int]), and the
   all-boxed compile returns immediates in their own class. *)
let rrecv (st : state) (classes : rclass array) (slots : int array) (d : int)
    : frame -> unit =
  let sd = slots.(d) in
  match classes.(d) with
  | C_int -> fun fr -> bset64 fr.fr_i sd (bget64 st.ret_i 0)
  | C_float ->
      fun fr -> Array.unsafe_set fr.fr_f sd (Array.unsafe_get st.ret_f 0)
  | C_ptr ->
      fun fr ->
        Array.unsafe_set fr.fr_p sd
          (match st.ret_c with
          | C_ptr -> st.ret_p
          | _ -> Int64.to_int (bget64 st.ret_i 0))
  | C_boxed -> fun fr -> Array.unsafe_set fr.fr_v sd (ret_box st)

(* A resolved user call. *)
let compile_rcall (st : state) (classes : rclass array) (slots : int array)
    (d : int) (srcs : src array) (callee : func_info) : frame -> unit =
  let nargs = Array.length srcs in
  let movers = Array.mapi (rmove slots callee) srcs in
  let recv = rrecv st classes slots d in
  fun fr ->
    let cfr = push_frame callee in
    for k = 0 to nargs - 1 do
      (Array.unsafe_get movers k) fr cfr
    done;
    if enter st callee cfr then recv fr

(* One-argument float intrinsics with a [C_float] source slot and
   destination, bound as direct [float -> float] primitives: the
   boxed table entry would box the argument array, the argument and
   the result.  Each arm computes what [intrinsic_table]'s entry
   computes; the slot read is written out in each arm so that the
   primitive gets its argument unboxed. *)
let typed_intrinsic (classes : rclass array) (slots : int array) (d : int)
    (name : string) (srcs : src array) : (frame -> unit) option =
  match srcs with
  | [| Slot r |] when classes.(d) = C_float && classes.(r) = C_float -> (
      let sd = slots.(d) and a = slots.(r) in
      let[@inline] set fr x = Array.unsafe_set fr.fr_f sd x in
      match name with
      | "sqrt" -> Some (fun fr -> set fr (sqrt (Array.unsafe_get fr.fr_f a)))
      | "sin" -> Some (fun fr -> set fr (sin (Array.unsafe_get fr.fr_f a)))
      | "cos" -> Some (fun fr -> set fr (cos (Array.unsafe_get fr.fr_f a)))
      | "atan" -> Some (fun fr -> set fr (atan (Array.unsafe_get fr.fr_f a)))
      | "exp" -> Some (fun fr -> set fr (exp (Array.unsafe_get fr.fr_f a)))
      | "log" -> Some (fun fr -> set fr (log (Array.unsafe_get fr.fr_f a)))
      | "fabs" ->
          Some (fun fr -> set fr (abs_float (Array.unsafe_get fr.fr_f a)))
      | "floor" -> Some (fun fr -> set fr (floor (Array.unsafe_get fr.fr_f a)))
      | _ -> None)
  | _ -> None

(* The declared type of a body operand, as [ci_eval] resolves it for a
   [Cast]'s source: an input's declared type, else a node's type. *)
let body_ty (b : ci_body) : Ir.Instr.operand -> Ir.Ty.t = function
  | Ir.Instr.Const c -> Ir.Instr.const_ty c
  | Ir.Instr.Reg r -> (
      match Array.find_opt (fun (x, _) -> x = r) b.cb_inputs with
      | Some (_, ty) -> ty
      | None -> (
          match
            Array.find_opt (fun (n : Ir.Instr.t) -> n.Ir.Instr.id = r)
              b.cb_nodes
          with
          | Some n -> n.Ir.Instr.ty
          | None -> Ir.Ty.I32))

(* Whether a call site of body [b] with operands [argops] may compile
   the body into the caller's lanes ({!compile_rblock}) with outcomes
   provably identical to [ci_eval]'s.  Every node then becomes an
   ordinary typed instruction of the caller, so the proof obligation
   is that every value [ci_eval] would compute lands losslessly in a
   register of its class:

   - the operands match the inputs one to one, each with exactly the
     declared type (a constant by its own type, holding a value of that
     type's class), so an input reads a slot or an immediate of the
     declared class;
   - node ids are distinct and are not inputs, and each node reads
     constants, inputs and earlier nodes only (where [ci_eval] would
     read a missing binding as [VInt 0L]);
   - each node is of a kind [ci_eval] evaluates (binop, compare, cast,
     select) and statically produces a value of its type's class — a
     float add typed [I32] or a select between pointers typed [I64]
     would be canonicalized by a typed register where [ci_eval] keeps
     the value as it is;
   - the root is the last node, so it can write the call's destination
     after every other node has run.

   Every other site keeps the boxed [ci_eval] seam. *)
let splice_ok (reg_tys : Ir.Ty.t array) (b : ci_body)
    (argops : Ir.Instr.operand list) : bool =
  let nn = Array.length b.cb_nodes in
  (* The class of the value each readable register holds: the inputs
     by their declared types ({!body_ty}: the first position wins),
     then each node's as it is defined. *)
  let known = Hashtbl.create 8 in
  Array.iter
    (fun (r, ty) ->
      if not (Hashtbl.mem known r) then Hashtbl.add known r (rclass_of_ty ty))
    b.cb_inputs;
  let vclass = function
    | Ir.Instr.Const (Ir.Instr.Cint _) -> Some C_int
    | Ir.Instr.Const (Ir.Instr.Cfloat _) -> Some C_float
    | Ir.Instr.Reg r -> Hashtbl.find_opt known r
  in
  let node_ok (n : Ir.Instr.t) =
    let reads ops k =
      if List.for_all (fun op -> vclass op <> None) ops then Some k else None
    in
    let produced =
      match n.Ir.Instr.kind with
      | Ir.Instr.Binop
          ((Ir.Instr.Fadd | Ir.Instr.Fsub | Ir.Instr.Fmul | Ir.Instr.Fdiv), x, y)
        ->
          reads [ x; y ] C_float
      | Ir.Instr.Binop (_, x, y)
      | Ir.Instr.Icmp (_, x, y)
      | Ir.Instr.Fcmp (_, x, y) ->
          reads [ x; y ] C_int
      | Ir.Instr.Cast
          ((Ir.Instr.Trunc | Ir.Instr.Zext | Ir.Instr.Sext | Ir.Instr.Fptosi), x)
        ->
          reads [ x ] C_int
      | Ir.Instr.Cast
          ((Ir.Instr.Sitofp | Ir.Instr.Fpext | Ir.Instr.Fptrunc), x) ->
          reads [ x ] C_float
      | Ir.Instr.Cast (Ir.Instr.Bitcast, x) ->
          (* [Eval.cast_fn]'s bitcast arms, by operand class *)
          Option.map
            (fun from ->
              match (from, n.Ir.Instr.ty) with
              | C_int, (Ir.Ty.F32 | Ir.Ty.F64) -> C_float
              | C_float, ty when Ir.Ty.is_int ty -> C_int
              | k, _ -> k)
            (vclass x)
      | Ir.Instr.Select (c, x, y) -> (
          match (vclass c, vclass x, vclass y) with
          | Some _, Some kx, Some ky when kx = ky -> Some kx
          | _ -> None)
      | _ -> None
    in
    let want = rclass_of_ty n.Ir.Instr.ty in
    let ok =
      want <> C_boxed && produced = Some want
      && not (Hashtbl.mem known n.Ir.Instr.id)
    in
    Hashtbl.replace known n.Ir.Instr.id want;
    ok
  in
  (* a constant operand must also hold a value of the declared class:
     an integer constant typed [Ptr] is a [VInt] to [ci_eval] *)
  let arg_ok op (_, ty) =
    match op with
    | Ir.Instr.Const c ->
        Ir.Instr.const_ty c = ty && vclass op = Some (rclass_of_ty ty)
    | Ir.Instr.Reg r -> reg_tys.(r) = ty
  in
  nn > 0
  && b.cb_nodes.(nn - 1).Ir.Instr.id = b.cb_root
  && List.length argops = Array.length b.cb_inputs
  && List.for_all2 arg_ok argops (Array.to_list b.cb_inputs)
  && Array.for_all node_ok b.cb_nodes

(* Give every CI call site of [fi] that passes {!splice_ok} a splice
   plan ([fi.rsplices]), numbering its body's non-root nodes as fresh
   registers past the function's own; returns their types in register
   order. *)
let plan_splices (st : state) (fi : func_info) : Ir.Ty.t list =
  let temps = ref [] in
  let next = ref (Array.length fi.reg_tys) in
  let plan (i : Ir.Instr.t) =
    match i.Ir.Instr.kind with
    | Ir.Instr.Ci_call (ci, argops) -> (
        match Hashtbl.find_opt st.cis ci with
        | Some { ci_body = Some b; _ } when splice_ok fi.reg_tys b argops ->
            let sp = { sp_body = b; sp_temp = !next } in
            for k = 0 to Array.length b.cb_nodes - 2 do
              temps := b.cb_nodes.(k).Ir.Instr.ty :: !temps;
              incr next
            done;
            Some sp
        | _ -> None)
    | _ -> None
  in
  let rows =
    Array.map
      (fun bi ->
        let row = Array.map plan bi.instrs in
        if Array.exists Option.is_some row then row else [||])
      fi.blocks
  in
  if Array.exists (fun row -> Array.length row > 0) rows then
    fi.rsplices <- rows;
  List.rev !temps

(* The least register of [r]'s phi-congruence class in [co], or [r]. *)
let coalesce_rep (co : Ir.Coalesce.t) r =
  let members = co.Ir.Coalesce.members in
  let lo = ref 0 and hi = ref (Array.length members) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if members.(mid) < r then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length members && members.(!lo) = r then
    co.Ir.Coalesce.reps.(!lo)
  else r

(* Address fusion ([tuning.fuse]): give slot {!gep_folded} to every
   [Gep g = gep base, idx] of [fi] that {!compile_rblock} computes at
   its uses instead, inside each load or store that reads it
   ({!raddr}).  A [Gep] folds when
   - its address is a constant plus an int: [base] is an integer
     constant or a folded [Gaddr] (the frontend's [gep (gaddr A), i]),
     and [idx] an integer constant, a folded [Gaddr] or an int register.
     Such a [Gep] cannot fault (a boxed or float index could fail to
     convert), so the moved computation raises nothing where the [Gep]
     stood;
   - every use of [g] ([use_counts]) is the address of a load or store
     of its own block (a store of [g] as a value is not);
   - no instruction between the [Gep] and its last use writes the slot
     of [idx], so each use reads the index the [Gep] read.  A register
     that something reads shares its slot only with its phi-congruence
     class ({!classify_rfunc}), so such a write is a definition in
     [idx]'s class: after phi coalescing, the update of an index can
     take the index's slot once the [Gep] was its last reader.  The
     last use may write it, after reading the address.  A spliced CI
     site writes the call's destination, which the check covers, and
     its own temps, which have slots of their own.
   Everything here is decided from the instructions, [use_counts] and
   the classes, and nothing is allocated. *)
let fold_geps (fi : func_info) (co : Ir.Coalesce.t) (classes : rclass array)
    (slots : int array) : unit =
  for b = 0 to Array.length fi.blocks - 1 do
    let instrs = fi.blocks.(b).instrs in
    let n = Array.length instrs in
    for k = fi.blocks.(b).phi_count to n - 1 do
      match instrs.(k).Ir.Instr.kind with
      | Ir.Instr.Gep (base, idx) ->
          let const_base =
            match base with
            | Ir.Instr.Const (Ir.Instr.Cint _) -> true
            | Ir.Instr.Const (Ir.Instr.Cfloat _) -> false
            | Ir.Instr.Reg r -> slots.(r) < 0
          in
          (* the representative of the index's class; -1 for a
             constant, -2 for an index of another class *)
          let ri =
            match idx with
            | Ir.Instr.Const (Ir.Instr.Cint _) -> -1
            | Ir.Instr.Const (Ir.Instr.Cfloat _) -> -2
            | Ir.Instr.Reg r when slots.(r) < 0 -> -1
            | Ir.Instr.Reg r ->
                if classes.(r) = C_int then coalesce_rep co r else -2
          in
          let g = instrs.(k).Ir.Instr.id in
          let uses = fi.use_counts.(g) in
          if const_base && ri >= -1 && uses > 0 then begin
            let found = ref 0 and clean = ref true and j = ref (k + 1) in
            while !clean && !found < uses && !j < n do
              let i = instrs.(!j) in
              (match i.Ir.Instr.kind with
              | Ir.Instr.Load (Ir.Instr.Reg a)
              | Ir.Instr.Store (_, Ir.Instr.Reg a)
                when a = g ->
                  incr found
              | _ -> ());
              if !found < uses && coalesce_rep co i.Ir.Instr.id = ri then
                clean := false;
              incr j
            done;
            if !clean && !found = uses then slots.(g) <- gep_folded
          end
      | _ -> ()
    done
  done

(** Record one function's register classes and the per-class slot
    renumbering.  A register's slot is its position within its class's
    frame lane (a byte offset in the int lane).  A register defined by
    [Gaddr] gets no slot: the verifier makes it name a global, whose
    base is fixed for the run, so its slot records [-1 - base] and
    every read of it decodes as that address ({!decode}).  Nor does a
    [Gep] that address fusion folds into the loads and stores reading
    it ({!fold_geps}): it is never written.  The members
    of a phi-congruence class ({!Ir.Coalesce}) share the slot of its
    least register, so a phi entry in the class is no move at all
    ({!compile_rblock}).  Every other read register ([use_counts > 0],
    or a splice temp past [use_counts]) gets its own slot; the unread
    ones of a class (store ids, unused results and parameters) share
    one sink slot, which nothing reads.
    With [tuning.regalloc] off every register is [C_boxed].  With
    [tuning.ci_native] on, the CI call sites get their splice plans
    first ({!plan_splices}), and the fresh registers of
    the spliced bodies are classified by the node types like any
    other.  Every function of the module is classified before any
    block compiles, so a [Call] site binds its argument movers against
    the callee's parameter slots ({!compile_rcall}). *)
let classify_rfunc (st : state) (sc : Ir.Coalesce.scratch) (fi : func_info) :
    unit =
  let tys =
    match
      if st.tuning.ci_native && Hashtbl.length st.cis > 0 then
        plan_splices st fi
      else []
    with
    | [] -> fi.reg_tys
    | temps -> Array.append fi.reg_tys (Array.of_list temps)
  in
  let classes =
    if st.tuning.regalloc then Array.map rclass_of_ty tys
    else Array.make (Array.length tys) C_boxed
  in
  let n = Array.length classes in
  let slots = Array.make n 0 in
  for b = 0 to Array.length fi.blocks - 1 do
    let instrs = fi.blocks.(b).instrs in
    for k = 0 to Array.length instrs - 1 do
      match instrs.(k).Ir.Instr.kind with
      | Ir.Instr.Gaddr g ->
          slots.(instrs.(k).Ir.Instr.id) <-
            -1 - Memory.global_base st.memory g
      | _ -> ()
    done
  done;
  let co = Ir.Coalesce.classes sc fi.func in
  if st.tuning.fuse then fold_geps fi co classes slots;
  let next_member = ref 0 in
  let counts = Array.make 4 0 and sinks = Array.make 4 (-1) in
  let idx = function C_int -> 0 | C_float -> 1 | C_ptr -> 2 | C_boxed -> 3 in
  for r = 0 to n - 1 do
    let k = idx classes.(r) in
    let m = !next_member in
    let member = m < Array.length co.members && co.members.(m) = r in
    if member then next_member := m + 1;
    if slots.(r) < 0 then () (* folded *)
    else if member && co.reps.(m) < r then slots.(r) <- slots.(co.reps.(m))
    else begin
      let unread =
        (not member) && r < Array.length fi.use_counts && fi.use_counts.(r) = 0
      in
      if not (unread && sinks.(k) >= 0) then begin
        if unread then sinks.(k) <- counts.(k);
        counts.(k) <- counts.(k) + 1
      end;
      let s = if unread then sinks.(k) else counts.(k) - 1 in
      slots.(r) <- (if k = 0 then 8 * s else s)
    end
  done;
  fi.rclasses <- classes;
  fi.rslots <- slots;
  fi.rcounts <- counts

(* A CI call's clock charge: the statically bound hardware latency, or
   the run's swap cell, charged to every lane, when a monitor may
   rebind it. *)
let ci_charge (st : state) ci impl : frame -> unit =
  match st.swap with
  | None ->
      let cyc = float_of_int impl.ci_cycles in
      fun _ ->
        st.clocks.(0) <- st.clocks.(0) +. cyc;
        st.clocks.(1) <- st.clocks.(1) +. cyc
  | Some cells ->
      let cell = swap_cell st cells ci impl in
      fun _ -> charge_lanes st cell

(* A [Gaddr] and a folded [Gep] compile to no op: their registers have
   no slot ({!decode}, {!fold_geps}). *)
let folded (slots : int array) (i : Ir.Instr.t) = slots.(i.Ir.Instr.id) < 0

(* The address operand [a] of the load or store at position [at] of a
   block ([instrs]).  A [Gep] folded into it ({!fold_geps}) is found by
   walking back from [at] and computed here, at its use, from the
   operands it reads: a constant base plus an int index slot is
   {!RpX}, plus a constant index a constant address.  Each fused use
   counts as one [pattern] window. *)
let raddr (classes : rclass array) (slots : int array)
    (dec : Ir.Instr.operand -> src) (instrs : Ir.Instr.t array) at pattern
    (a : Ir.Instr.operand) : rp =
  match a with
  | Ir.Instr.Reg g when slots.(g) = gep_folded -> (
      let j = ref (at - 1) in
      while instrs.(!j).Ir.Instr.id <> g do
        decr j
      done;
      match instrs.(!j).Ir.Instr.kind with
      | Ir.Instr.Gep (base, idx) -> (
          bump_fusion pattern;
          match
            (rarg_p classes slots (dec base), rarg_i classes slots (dec idx))
          with
          | RpK pb, RiS ri -> RpX (pb, ri)
          | RpK pb, RiK k -> RpK (pb + Int64.to_int k)
          | _ -> assert false)
      | _ -> assert false)
  | _ -> rarg_p classes slots (dec a)

(** Compile block [bnum] of a classified function ({!classify_rfunc}):
    its body ops, its phi prologue per predecessor label and its
    terminator.  A [Gaddr] and a folded [Gep] compile to no op, a load
    or store computes the address of a [Gep] folded into it
    ({!raddr}), a CI site with a splice plan widens into its body's
    nodes, and under [tuning.fuse] a trailing single-use compare folds
    into the conditional branch.  Fuel, clocks and profiles come from
    the block's instruction count, never from its ops. *)
let compile_rblock (st : state) (fi : func_info) (classes : rclass array)
    (slots : int array) (dec : Ir.Instr.operand -> src) (bnum : int)
    (bi : block_info) : rtblock =
  let nphi = bi.phi_count in
  (* Compile one instruction, decoding its operands with [dec] and
     writing register [d].  A caller instruction decodes its own
     operands and writes its own id; a spliced CI body node
     ([r_ops] below) reads its operands through the site's
     substitution, takes a cast's source type from the body
     ([from_ty]), and writes a fresh register or the call's
     destination.  [at] is the instruction's position in the block, where
     a load or store finds a [Gep] folded into it ({!raddr}).  (Plain
     arguments: compile-time closures and optional arguments allocate
     per block or instruction compiled, and the VM compiles every
     module it runs.) *)
  let compile_rinstr ~dec ~from_ty ~d ~at (i : Ir.Instr.t) : frame -> unit =
    let ty = i.Ir.Instr.ty and mem = st.memory in
    match i.Ir.Instr.kind with
    | Ir.Instr.Phi _ | Ir.Instr.Gaddr _ ->
        (* phis lead their block, a [Gaddr] result is folded into its
           uses ({!decode}), and {!splice_ok} admits neither *)
        assert false
    | Ir.Instr.Binop (op, a, b) ->
        compile_rbinop classes slots ty op d (dec a) (dec b)
    | Ir.Instr.Icmp (p, a, b) ->
        let sa = dec a and sb = dec b in
        compile_rcmp classes slots d sa sb (E.icmp_fn p) (fun () ->
            rbool_icmp classes slots p sa sb)
    | Ir.Instr.Fcmp (p, a, b) ->
        let sa = dec a and sb = dec b in
        compile_rcmp classes slots d sa sb (E.fcmp_fn p) (fun () ->
            rbool_fcmp classes slots p sa sb)
    | Ir.Instr.Cast (c, a) ->
        let from_ =
          match (from_ty, a) with
          | Some f, _ -> f a
          | None, Ir.Instr.Const cst -> Ir.Instr.const_ty cst
          | None, Ir.Instr.Reg r -> fi.reg_tys.(r)
        in
        compile_rcast classes slots c ~from_ ~to_:ty d (dec a)
    | Ir.Instr.Select (c, a, b) -> (
        let sc = dec c and sa = dec a and sb = dec b in
        let tc = rtest classes slots sc in
        (* Both branch values are read strictly, like the reference
           engine's [eval_select] call.  One arm per lane: the MiniC
           frontend never emits [Select], so no shape is expanded.  A
           boxed destination falls back to moving boxed values. *)
        match classes.(d) with
        | C_int ->
            let sd = slots.(d) in
            let ga = rget_i classes slots sa and gb = rget_i classes slots sb in
            fun fr ->
              let vc = tc fr and va = ga fr and vb = gb fr in
              bset64 fr.fr_i sd (if vc then va else vb)
        | C_float ->
            let sd = slots.(d) in
            let ga = rf_fn (rarg_f classes slots sa)
            and gb = rf_fn (rarg_f classes slots sb) in
            fun fr ->
              let vc = tc fr and va = ga fr and vb = gb fr in
              Array.unsafe_set fr.fr_f sd (if vc then va else vb)
        | C_ptr ->
            let sd = slots.(d) in
            let ga = rget_p classes slots sa and gb = rget_p classes slots sb in
            fun fr ->
              let vc = tc fr and va = ga fr and vb = gb fr in
              Array.unsafe_set fr.fr_p sd (if vc then va else vb)
        | C_boxed ->
            let ga = rget_box classes slots sa
            and gb = rget_box classes slots sb in
            let w = rwr_box classes slots d in
            fun fr ->
              let vc = tc fr and va = ga fr and vb = gb fr in
              w fr (if vc then va else vb))
    | Ir.Instr.Alloca (_, count) ->
        if classes.(d) = C_ptr then (
          let sd = slots.(d) in
          fun fr -> Array.unsafe_set fr.fr_p sd (Memory.alloc mem count))
        else
          let w = rwr_box classes slots d in
          fun fr -> w fr (Ir.Eval.VPtr (Memory.alloc mem count))
    | Ir.Instr.Load a -> (
        let aa = raddr classes slots dec bi.instrs at "gep+load" a in
        (* A typed destination takes the cell's unboxed payload
           directly ([mload_*]); only a boxed destination builds a
           value.  No allocation on any typed class. *)
        match classes.(d) with
        | C_int -> (
            let sd = slots.(d) in
            match aa with
            | RpS p ->
                fun fr ->
                  bset64 fr.fr_i sd (mload_i mem (Array.unsafe_get fr.fr_p p))
            | RpK p -> fun fr -> bset64 fr.fr_i sd (mload_i mem p)
            | RpX (pb, ri) ->
                fun fr ->
                  bset64 fr.fr_i sd
                    (mload_i mem (pb + Int64.to_int (bget64 fr.fr_i ri)))
            | _ ->
                let ga = rp_fn aa in
                fun fr -> bset64 fr.fr_i sd (mload_i mem (ga fr)))
        | C_float -> (
            let sd = slots.(d) in
            match aa with
            | RpS p ->
                fun fr ->
                  Array.unsafe_set fr.fr_f sd
                    (mload_f mem (Array.unsafe_get fr.fr_p p))
            | RpK p -> fun fr -> Array.unsafe_set fr.fr_f sd (mload_f mem p)
            | RpX (pb, ri) ->
                fun fr ->
                  Array.unsafe_set fr.fr_f sd
                    (mload_f mem (pb + Int64.to_int (bget64 fr.fr_i ri)))
            | _ ->
                let ga = rp_fn aa in
                fun fr -> Array.unsafe_set fr.fr_f sd (mload_f mem (ga fr)))
        | C_ptr -> (
            let sd = slots.(d) in
            match aa with
            | RpS p ->
                fun fr ->
                  Array.unsafe_set fr.fr_p sd
                    (mload_p mem (Array.unsafe_get fr.fr_p p))
            | RpK p -> fun fr -> Array.unsafe_set fr.fr_p sd (mload_p mem p)
            | RpX (pb, ri) ->
                fun fr ->
                  Array.unsafe_set fr.fr_p sd
                    (mload_p mem (pb + Int64.to_int (bget64 fr.fr_i ri)))
            | _ ->
                let ga = rp_fn aa in
                fun fr -> Array.unsafe_set fr.fr_p sd (mload_p mem (ga fr)))
        | C_boxed ->
            let ga = rp_fn aa in
            let w = rwr_box classes slots d in
            fun fr -> w fr (Memory.load mem (ga fr)))
    | Ir.Instr.Store (x, a) -> (
        (* The value keeps its own class: a typed register or an
           immediate is written as the cell's unboxed payload and tag
           ([mstore_*]); reading it cannot fault, so it may follow the
           address.  A boxed value is read before the address, like the
           Reference engine (right-to-left application order made
           explicit). *)
        let aa = raddr classes slots dec bi.instrs at "gep+store" a in
        let ga = rp_fn aa in
        match dec x with
        | Slot r when classes.(r) = C_int -> (
            let sx = slots.(r) in
            match aa with
            | RpS p ->
                fun fr ->
                  mstore_i mem (Array.unsafe_get fr.fr_p p) (bget64 fr.fr_i sx)
            | RpK p -> fun fr -> mstore_i mem p (bget64 fr.fr_i sx)
            | RpX (pb, ri) ->
                fun fr ->
                  mstore_i mem
                    (pb + Int64.to_int (bget64 fr.fr_i ri))
                    (bget64 fr.fr_i sx)
            | _ -> fun fr -> mstore_i mem (ga fr) (bget64 fr.fr_i sx))
        | Slot r when classes.(r) = C_float -> (
            let sx = slots.(r) in
            match aa with
            | RpS p ->
                fun fr ->
                  mstore_f mem
                    (Array.unsafe_get fr.fr_p p)
                    (Array.unsafe_get fr.fr_f sx)
            | RpK p -> fun fr -> mstore_f mem p (Array.unsafe_get fr.fr_f sx)
            | RpX (pb, ri) ->
                fun fr ->
                  mstore_f mem
                    (pb + Int64.to_int (bget64 fr.fr_i ri))
                    (Array.unsafe_get fr.fr_f sx)
            | _ -> fun fr -> mstore_f mem (ga fr) (Array.unsafe_get fr.fr_f sx))
        | Slot r when classes.(r) = C_ptr -> (
            let sx = slots.(r) in
            match aa with
            | RpS p ->
                fun fr ->
                  mstore_p mem
                    (Array.unsafe_get fr.fr_p p)
                    (Array.unsafe_get fr.fr_p sx)
            | RpK p -> fun fr -> mstore_p mem p (Array.unsafe_get fr.fr_p sx)
            | RpX (pb, ri) ->
                fun fr ->
                  mstore_p mem
                    (pb + Int64.to_int (bget64 fr.fr_i ri))
                    (Array.unsafe_get fr.fr_p sx)
            | _ -> fun fr -> mstore_p mem (ga fr) (Array.unsafe_get fr.fr_p sx))
        | Imm (E.VInt k) -> (
            match aa with
            | RpK p -> fun _ -> mstore_i mem p k
            | _ -> fun fr -> mstore_i mem (ga fr) k)
        | Imm (E.VFloat k) -> (
            match aa with
            | RpK p -> fun _ -> mstore_f mem p k
            | _ -> fun fr -> mstore_f mem (ga fr) k)
        | Imm (E.VPtr k) -> (
            match aa with
            | RpK p -> fun _ -> mstore_p mem p k
            | _ -> fun fr -> mstore_p mem (ga fr) k)
        | sx ->
            let gx = rget_box classes slots sx in
            fun fr ->
              let v = gx fr in
              Memory.store mem (ga fr) v)
    | Ir.Instr.Gep (base, idx) ->
        let ab = rarg_p classes slots (dec base) in
        let ai = rarg_i classes slots (dec idx) in
        if classes.(d) = C_ptr then (
          let sd = slots.(d) in
          match (ab, ai) with
          | RpS pb, RiS ri ->
              fun fr ->
                Array.unsafe_set fr.fr_p sd
                  (Array.unsafe_get fr.fr_p pb
                  + Int64.to_int (bget64 fr.fr_i ri))
          | RpS pb, RiK k ->
              let n = Int64.to_int k in
              fun fr ->
                Array.unsafe_set fr.fr_p sd (Array.unsafe_get fr.fr_p pb + n)
          | RpK pb, RiS ri ->
              fun fr ->
                Array.unsafe_set fr.fr_p sd
                  (pb + Int64.to_int (bget64 fr.fr_i ri))
          | RpK pb, RiK k ->
              let p = pb + Int64.to_int k in
              fun fr -> Array.unsafe_set fr.fr_p sd p
          | _ ->
              let gb = rp_fn ab and gi = ri_fn ai in
              fun fr ->
                Array.unsafe_set fr.fr_p sd (gb fr + Int64.to_int (gi fr)))
        else
          let gb = rp_fn ab and gi = ri_fn ai in
          let w = rwr_box classes slots d in
          fun fr -> w fr (Ir.Eval.VPtr (gb fr + Int64.to_int (gi fr)))
    | Ir.Instr.Call (name, argops) -> (
        let srcs = Array.of_list (List.map dec argops) in
        match Hashtbl.find_opt st.funcs name with
        | Some callee -> compile_rcall st classes slots d srcs callee
        | None -> (
            match
              (find_intrinsic name, typed_intrinsic classes slots d name srcs)
            with
            | Some _, Some op -> op
            | Some impl, None ->
                let eval_args = rargs_fn classes slots srcs in
                let w = rwr_box classes slots d in
                fun fr -> w fr (impl (eval_args fr))
            | None, _ -> fun _ -> fault "call to unknown function @%s" name))
    | Ir.Instr.Ci_call (ci, argops) -> (
        match Hashtbl.find_opt st.cis ci with
        | Some impl ->
            (* the boxed seam: [ci_eval] over a boxed argument vector *)
            let eval_args =
              rargs_fn classes slots (Array.of_list (List.map dec argops))
            in
            let w = rwr_box classes slots d in
            let eval = impl.ci_eval and charge = ci_charge st ci impl in
            fun fr ->
              w fr (eval (eval_args fr));
              charge fr
        | None -> fun _ -> fault "custom instruction #%d is not configured" ci)
  in
  (* this block's splice plans, [||] when none of its sites splices *)
  let splices =
    if bnum < Array.length fi.rsplices then fi.rsplices.(bnum) else [||]
  in
  let n = bi.ninstrs in
  (* Compare-and-branch fusion ([tuning.fuse]): a block's trailing
     compare whose only use is the conditional branch is folded into
     the branch decision, skipping a flag write and a dispatch.  Any
     other scrutinee compiles normally and the terminator tests its
     register — observably identical.  Skipping the compare's register
     write is unobservable: the register file is not part of the
     outcome, and its static use count is 1.  Fuel, cycles and profiles
     come from the original instruction counts, never from the closure
     count. *)
  let fused_scrutinee =
    if st.tuning.fuse && n > nphi then
      match bi.term with
      | Ir.Instr.Cond_br (Ir.Instr.Reg r, a, b)
        when bi.instrs.(n - 1).Ir.Instr.id = r
             && fi.use_counts.(r) = 1
             && (match bi.instrs.(n - 1).Ir.Instr.kind with
                | Ir.Instr.Icmp _ | Ir.Instr.Fcmp _ -> true
                | _ -> false) ->
          Some (bi.instrs.(n - 1), a, b)
      | _ -> None
    else None
  in
  let body_end = match fused_scrutinee with Some _ -> n - 1 | None -> n in
  let fused_term =
    match fused_scrutinee with
    | None -> None
    | Some (ci, a, b) ->
        let test =
          match ci.Ir.Instr.kind with
          | Ir.Instr.Icmp (p, x, y) ->
              bump_fusion "icmp+br";
              rbool_icmp classes slots p (dec x) (dec y)
          | Ir.Instr.Fcmp (p, x, y) ->
              bump_fusion "fcmp+br";
              rbool_fcmp classes slots p (dec x) (dec y)
          | _ -> assert false
        in
        Some (R_cmp_br (test, a, b))
  in
  (* The body's ops, counted first so that the array is allocated once.
     An instruction compiles to one op, a [Gaddr] or a folded [Gep] to
     none ({!folded}).  A CI call with a splice plan ({!classify_rfunc})
     compiles to its body's nodes, like instructions of the caller —
     inputs substituted by the call's operands (the last position of a
     repeated register wins, as in [ci_eval]), non-root nodes into their
     fresh registers, the root into the call's destination — followed
     by the call's clock charge: no argument vector, no boxed value. *)
  let r_ops =
    let nops = ref 0 in
    for k = nphi to body_end - 1 do
      if not (folded slots bi.instrs.(k)) then
        nops :=
          !nops
          +
          match if Array.length splices = 0 then None else splices.(k) with
          | Some sp -> Array.length sp.sp_body.cb_nodes + 1
          | None -> 1
    done;
    let ops = Array.make !nops ignore and j = ref 0 in
    for k = nphi to body_end - 1 do
      let i = bi.instrs.(k) in
      match
        ( i.Ir.Instr.kind,
          if Array.length splices = 0 then None else splices.(k) )
      with
      | Ir.Instr.Ci_call (ci, argops), Some sp ->
          let b = sp.sp_body in
          let nn = Array.length b.cb_nodes in
          let env = Hashtbl.create 8 in
          List.iteri
            (fun pos op -> Hashtbl.replace env (fst b.cb_inputs.(pos)) (dec op))
            argops;
          let sdec = function
            | Ir.Instr.Const _ as op -> dec op
            | Ir.Instr.Reg r -> Hashtbl.find env r
          in
          let from_ty = Some (body_ty b) in
          for jn = 0 to nn - 1 do
            let n = b.cb_nodes.(jn) in
            let d = if jn = nn - 1 then i.Ir.Instr.id else sp.sp_temp + jn in
            ops.(!j) <- compile_rinstr ~dec:sdec ~from_ty ~d ~at:k n;
            Hashtbl.replace env n.Ir.Instr.id (Slot d);
            incr j
          done;
          ops.(!j) <- ci_charge st ci (Hashtbl.find st.cis ci);
          incr j
      | _ when folded slots i -> ()
      | _ ->
          ops.(!j) <-
            compile_rinstr ~dec ~from_ty:None ~d:i.Ir.Instr.id ~at:k i;
          incr j
    done;
    ops
  in
  (* Phi prologue, compiled per predecessor label, on slots.  The
     verifier gives every phi an entry for each predecessor; the
     destinations of one block's phis interfere, so they have distinct
     slots (or the sink of their lane, which no entry reads).  An entry
     whose source has its destination's slot — a coalesced phi
     ({!classify_rfunc}) — is a self-move and compiles to nothing; a row
     with nothing else is [ignore].  A row is direct when no remaining
     entry reads the slot another one writes: no read of the row then
     sees a write of it, so writing each destination as it is read is
     the parallel assignment.  A direct row walks its int and float
     slot moves and its int constants as move arrays, then runs the
     other entries' closures in row order (only those can fault, so the
     first fault is the one staging would raise).  A single move is one
     closure that writes directly.  Any other row — an entry names a
     sibling phi, or reads a sibling's slot through another register of
     the sibling's class — stages its moving values into per-class
     scratch and then commits them.  The scratch exists only when such
     a row does; reusing it is safe because the prologue cannot
     re-enter this function.  A label that is not a predecessor never
     enters the block: its row is [ignore]. *)
  let r_phi_rows =
    if nphi = 0 then [||]
    else begin
      let dests = bi.phi_dests in
      let same_slot r d = classes.(r) = classes.(d) && slots.(r) = slots.(d) in
      (* the entries of [row] that move, in row order *)
      let moves (row : Ir.Instr.operand array) =
        if Array.length row = 0 then []
        else
          let rec go k acc =
            if k < 0 then acc
            else
              match dec row.(k) with
              | Slot r when same_slot r dests.(k) -> go (k - 1) acc
              | _ -> go (k - 1) (k :: acc)
          in
          go (nphi - 1) []
      in
      (* does a move of [ks] read the slot another one writes? *)
      let conflict (row : Ir.Instr.operand array) ks =
        List.exists
          (fun k ->
            match dec row.(k) with
            | Slot r -> List.exists (fun j -> j <> k && same_slot r dests.(j)) ks
            | Imm _ -> false)
          ks
      in
      let plans = Array.map moves bi.phi_rows in
      let staged l ks =
        List.compare_length_with ks 1 > 0 && conflict bi.phi_rows.(l) ks
      in
      let ns =
        let rec any l = l >= 0 && (staged l plans.(l) || any (l - 1)) in
        if any (Array.length plans - 1) then nphi else 0
      in
      let si = Bytes.make (8 * ns) '\000' in
      let sf = Array.make ns 0.0 in
      let sp = Array.make ns 0 in
      let sv = Array.make ns (Ir.Eval.VInt 0L) in
      (* stage phi [k]'s incoming value [op] into its lane's scratch;
         [direct] writes the destination register instead *)
      let stage ~direct k op : frame -> unit =
        let s = dec op in
        let sdk = slots.(dests.(k)) in
        match classes.(dests.(k)) with
        | C_int -> (
            match rarg_i classes slots s with
            | RiS a ->
                if direct then fun fr -> bset64 fr.fr_i sdk (bget64 fr.fr_i a)
                else fun fr -> bset64 si (8 * k) (bget64 fr.fr_i a)
            | RiK kv ->
                if direct then fun fr -> bset64 fr.fr_i sdk kv
                else fun _ -> bset64 si (8 * k) kv
            | aa ->
                let g = ri_fn aa in
                if direct then fun fr -> bset64 fr.fr_i sdk (g fr)
                else fun fr -> bset64 si (8 * k) (g fr))
        | C_float -> (
            match rarg_f classes slots s with
            | RfS a ->
                if direct then fun fr ->
                  Array.unsafe_set fr.fr_f sdk (Array.unsafe_get fr.fr_f a)
                else fun fr ->
                  Array.unsafe_set sf k (Array.unsafe_get fr.fr_f a)
            | RfK kv ->
                if direct then fun fr -> Array.unsafe_set fr.fr_f sdk kv
                else fun _ -> Array.unsafe_set sf k kv
            | aa ->
                let g = rf_fn aa in
                if direct then fun fr -> Array.unsafe_set fr.fr_f sdk (g fr)
                else fun fr -> Array.unsafe_set sf k (g fr))
        | C_ptr ->
            let g = rget_p classes slots s in
            if direct then fun fr -> Array.unsafe_set fr.fr_p sdk (g fr)
            else fun fr -> Array.unsafe_set sp k (g fr)
        | C_boxed ->
            let g = rget_box classes slots s in
            if direct then fun fr -> Array.unsafe_set fr.fr_v sdk (g fr)
            else fun fr -> Array.unsafe_set sv k (g fr)
      in
      let commit k : frame -> unit =
        let sdk = slots.(dests.(k)) in
        match classes.(dests.(k)) with
        | C_int -> fun fr -> bset64 fr.fr_i sdk (bget64 si (8 * k))
        | C_float ->
            fun fr -> Array.unsafe_set fr.fr_f sdk (Array.unsafe_get sf k)
        | C_ptr ->
            fun fr -> Array.unsafe_set fr.fr_p sdk (Array.unsafe_get sp k)
        | C_boxed ->
            fun fr -> Array.unsafe_set fr.fr_v sdk (Array.unsafe_get sv k)
      in
      (* A direct row of the moves [ks].  [imv] and [fmv] hold
         (destination, source) slot pairs of the int and float lanes,
         [ikd] the destinations of the int constants whose values [ikv]
         holds, 8 bytes each; [rest] writes every other entry. *)
      let direct_row (row : Ir.Instr.operand array) ks : frame -> unit =
        let imv = ref [] and ik = ref [] and fmv = ref [] and rest = ref [] in
        List.iter
          (fun k ->
            let sdk = slots.(dests.(k)) in
            let s = dec row.(k) in
            let other () = rest := stage ~direct:true k row.(k) :: !rest in
            match classes.(dests.(k)) with
            | C_int -> (
                match rarg_i classes slots s with
                | RiS a -> imv := sdk :: a :: !imv
                | RiK kv -> ik := (sdk, kv) :: !ik
                | RiG _ -> other ())
            | C_float -> (
                match rarg_f classes slots s with
                | RfS a -> fmv := sdk :: a :: !fmv
                | RfK _ | RfG _ -> other ())
            | C_ptr | C_boxed -> other ())
          (List.rev ks);
        let imv = Array.of_list !imv and fmv = Array.of_list !fmv in
        let ikd = Array.of_list (List.map fst !ik) in
        let ikv = Bytes.create (8 * Array.length ikd) in
        List.iteri (fun j (_, kv) -> bset64 ikv (8 * j) kv) !ik;
        let rest = Array.of_list !rest in
        let nim = Array.length imv / 2
        and nik = Array.length ikd
        and nfm = Array.length fmv / 2
        and nrest = Array.length rest in
        fun fr ->
          let fi = fr.fr_i and ff = fr.fr_f in
          for j = 0 to nim - 1 do
            bset64 fi
              (Array.unsafe_get imv (2 * j))
              (bget64 fi (Array.unsafe_get imv ((2 * j) + 1)))
          done;
          for j = 0 to nik - 1 do
            bset64 fi (Array.unsafe_get ikd j) (bget64 ikv (8 * j))
          done;
          for j = 0 to nfm - 1 do
            Array.unsafe_set ff
              (Array.unsafe_get fmv (2 * j))
              (Array.unsafe_get ff (Array.unsafe_get fmv ((2 * j) + 1)))
          done;
          for j = 0 to nrest - 1 do
            (Array.unsafe_get rest j) fr
          done
      in
      Array.mapi
        (fun l ks ->
          let row = bi.phi_rows.(l) in
          match ks with
          | [] -> ignore
          | [ k ] -> stage ~direct:true k row.(k)
          | _ when not (staged l ks) -> direct_row row ks
          | _ ->
              let stages =
                Array.of_list (List.map (fun k -> stage ~direct:false k row.(k)) ks)
              in
              let commits = Array.of_list (List.map commit ks) in
              let nm = Array.length stages in
              fun fr ->
                for j = 0 to nm - 1 do
                  (Array.unsafe_get stages j) fr
                done;
                for j = 0 to nm - 1 do
                  (Array.unsafe_get commits j) fr
                done)
        plans
    end
  in
  let r_term =
    match fused_term with
    | Some t -> t
    | None -> (
        match bi.term with
        | Ir.Instr.Ret None -> R_halt
        | Ir.Instr.Ret (Some op) ->
            R_ret (rret st classes slots (dec op))
        | Ir.Instr.Br l -> R_br l
        | Ir.Instr.Cond_br (c, a, b) ->
            R_cond (rtest classes slots (dec c), a, b)
        | Ir.Instr.Switch (s, default, _) ->
            let tbl =
              match bi.switch_cases with Some tbl -> tbl | None -> assert false
            in
            (* the driver evaluates the scrutinee outside the body
               handlers, so [rget_i]'s raw [Type_error] propagates
               uncaught exactly like the Reference engine's [as_int] *)
            R_switch (rget_i classes slots (dec s), default, tbl))
  in
  {
    r_info = bi;
    r_label = bnum;
    r_ops;
    r_phi_rows;
    r_term;
    r_link = RL_none;
    r_fuel = bi.ninstrs + 1;
    r_native = float_of_int bi.static_cycles;
    r_hot =
      Jit_model.default.Jit_model.hot_factor *. float_of_int bi.static_cycles;
    r_cold =
      float_of_int
        (bi.static_cycles + Ir.Cost.block_dispatch_cycles ~ninstrs:bi.ninstrs);
  }

(** Compile one classified function's blocks ({!classify_rfunc}).  The
    [Call] closures capture callee [func_info]s and read their compiled
    blocks at call time, so functions compile in any order. *)
let compile_rfunc (st : state) (fi : func_info) : unit =
  let dec = decode fi.rslots in
  fi.rtblocks <-
    Array.mapi
      (fun bnum bi -> compile_rblock st fi fi.rclasses fi.rslots dec bnum bi)
      fi.blocks

(* Patch every compiled terminator with direct references to the
   successor [rtblock]s (the verifier keeps every label in range). *)
let link_rfunc (fi : func_info) : unit =
  let tbs = fi.rtblocks in
  Array.iter
    (fun tb ->
      tb.r_link <-
        (match tb.r_term with
        | R_halt -> RL_halt
        | R_ret w -> RL_ret w
        | R_br l -> RL_br tbs.(l)
        | R_cond (t, a, b) -> RL_cond (t, tbs.(a), tbs.(b))
        | R_cmp_br (t, a, b) -> RL_cmp_br (t, tbs.(a), tbs.(b))
        | R_switch (g, d, tbl) ->
            let ltbl = Hashtbl.create (max 4 (Hashtbl.length tbl)) in
            Hashtbl.iter (fun v l -> Hashtbl.replace ltbl v tbs.(l)) tbl;
            RL_switch (g, tbs.(d), ltbl)))
    tbs

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Run [entry] with scalar [args].

    The VM cost model is {!Jit_model.default}.  The module must pass
    {!Ir.Verifier}; it is checked once, here, before either engine
    starts.

    @param fuel maximum dynamic instructions (default 4e9)
    @param cis configured custom instructions (default none)
    @param engine execution engine (default {!Threaded}); outcomes are
      identical across engines
    @param tuning threaded-engine optimization knobs (default
      {!default_tuning}: everything on); outcomes are identical across
      all combinations
    @param lanes clock lanes of a monitored run (default 1)
    @param monitor online controller hook: receives one {!control}
      handle per lane before any block executes, returns a
      per-dynamic-block callback.  Absent means the exact unmonitored
      code path — byte-identical clocks.
    @raise Invalid_module if the verifier rejects [m].
    @raise Fault on any runtime error. *)
let run ?(fuel = 4_000_000_000L) ?(cis = empty_cis ())
    ?(engine = default_engine) ?(tuning = default_tuning) ?(lanes = 1) ?monitor
    (m : Ir.Irmod.t) ~entry ~(args : Ir.Eval.value list) : outcome =
  (match Ir.Verifier.check_module m with
  | [] -> ()
  | errors -> raise (Invalid_module (Ir.Verifier.errors_to_string errors)));
  let memory = Memory.create () in
  Memory.load_globals memory m;
  let funcs = Hashtbl.create 16 in
  (* Block ids: dense, in module function order, then by label. *)
  ignore
    (List.fold_left
       (fun base (f : Ir.Func.t) ->
         Hashtbl.replace funcs f.Ir.Func.name (prepare_func m f ~base);
         base + Array.length f.Ir.Func.blocks)
       0 m.Ir.Irmod.funcs);
  let swap =
    match monitor with None -> None | Some _ -> Some (Hashtbl.create 16)
  in
  if tuning.max_linked_blocks < 1 then
    invalid_arg
      (Printf.sprintf "Machine.run: max_linked_blocks must be >= 1 (got %d)"
         tuning.max_linked_blocks);
  if lanes < 1 || (lanes > 1 && Option.is_none monitor) then
    invalid_arg
      (Printf.sprintf
         "Machine.run: lanes must be >= 1, and 1 without a monitor (got %d)"
         lanes);
  let st =
    {
      funcs;
      memory;
      cis;
      swap;
      tuning;
      mon = None;
      lanes;
      clocks = Array.make (2 * lanes) 0.0;
      fuel = int_of_int64_clamped fuel;
      warmup =
        int_of_int64_clamped Jit_model.default.Jit_model.warmup_threshold;
      ret_i = Bytes.make 8 '\000';
      ret_f = [| 0.0 |];
      ret_p = 0;
      ret_v = zero_value;
      ret_c = C_boxed;
    }
  in
  (match (monitor, swap) with
  | None, _ | _, None -> ()
  | Some mk, Some cells ->
      (* Every configured CI gets a swap cell up front so the monitor
         can rebind charges before the CI first executes. *)
      Hashtbl.iter (fun ci impl -> ignore (swap_cell st cells ci impl)) cis;
      let ctl_block ~func ~label =
        match Hashtbl.find_opt funcs func with
        | Some fi when label >= 0 && label < Array.length fi.blocks ->
            fi.bid_base + label
        | _ ->
            invalid_arg
              (Printf.sprintf "Machine.control: no block @%s/bb%d" func label)
      in
      let control l =
        let n = 2 * l and v = (2 * l) + 1 in
        {
          ctl_native = (fun () -> st.clocks.(n));
          ctl_vm = (fun () -> st.clocks.(v));
          ctl_stall =
            (fun c ->
              st.clocks.(n) <- st.clocks.(n) +. c;
              st.clocks.(v) <- st.clocks.(v) +. c);
          ctl_bind =
            (fun ci c ->
              match Hashtbl.find_opt cells ci with
              | Some cell -> cell.(l) <- c
              | None -> ());
          ctl_block;
        }
      in
      st.mon <- Some (mk (Array.init lanes control)));
  (* Whole-module dynamic translation at load time. *)
  let translation =
    Jit_model.module_translation_cycles
      ~module_instrs:(Ir.Irmod.num_instrs m)
  in
  for l = 0 to lanes - 1 do
    st.clocks.((2 * l) + 1) <- st.clocks.((2 * l) + 1) +. translation
  done;
  let fi =
    match Hashtbl.find_opt funcs entry with
    | Some fi -> fi
    | None -> fault "entry function @%s not found" entry
  in
  (* The caller's arguments are the one input the verifier cannot see. *)
  let args = Array.of_list args in
  let nparams = List.length fi.func.Ir.Func.params in
  if Array.length args <> nparams then
    fault "@%s: expected %d arguments, got %d" entry nparams
      (Array.length args);
  let ret =
    match engine with
    | Reference -> exec_func st fi args
    | Threaded ->
        let sc = Ir.Coalesce.scratch () in
        Hashtbl.iter (fun _ fi -> classify_rfunc st sc fi) funcs;
        Hashtbl.iter (fun _ fi -> compile_rfunc st fi) funcs;
        if tuning.link then Hashtbl.iter (fun _ fi -> link_rfunc fi) funcs;
        (* The entry and exit seam: box-free calls start here. *)
        let fr = push_frame fi in
        Array.iteri (fun i v -> rwr_box fi.rclasses fi.rslots i fr v) args;
        if enter st fi fr then Some (ret_box st) else None
  in
  (* Fold the run-local counters into a profile. *)
  let profile = Profile.create () in
  Hashtbl.iter
    (fun name (fi : func_info) ->
      Array.iteri
        (fun label bi ->
          if bi.exec_count > 0 then
            Profile.record profile ~func:name ~label
              ~count:(Int64.of_int bi.exec_count) ~instrs:bi.ninstrs)
        fi.blocks)
    funcs;
  { ret; native_cycles = st.clocks.(0); vm_cycles = st.clocks.(1); profile;
    memory = Some memory }
