(** Cost model of the virtual machine's just-in-time compilation.

    The paper's VM (LLVM's JIT) shows ~14 % average slowdown on large
    scientific codes, ~1 % on small embedded kernels, and occasionally
    beats static compilation (179.art, 473.astar).  This model captures
    that behaviour at block granularity:

    - the first [warmup_threshold] executions of a block are
      interpreted, paying {!Jitise_ir.Cost.block_dispatch_cycles} per
      execution on top of the native cost;
    - once hot, a block runs at [hot_factor] of native cost — slightly
      below 1.0, reflecting the profile-guided optimizations a VM can do
      that a static compiler cannot.

    Small kernels execute few distinct blocks millions of times, so the
    warm-up vanishes and the VM ratio converges to [hot_factor] (about
    1.0 or marginally below).  Large codes spread execution across
    thousands of blocks, re-paying warm-up and translation, which lands
    them in the 10-30 % overhead range. *)

type t = {
  warmup_threshold : int64;
      (** executions a block spends in the interpreter before its
          compiled form takes over *)
  translation_cycles_per_instr : int;
      (** one-time whole-module translation cost, charged at load *)
  hot_factor : float;  (** relative cost of a compiled block, ~0.99 *)
}

(** The calibrated model: 16-execution warm-up, 6 500 translation
    cycles per instruction, 0.985 hot factor. *)
val default : t

(** One-time cost of translating the whole module at load (the VM's
    dynamic translation step in Figure 1) under {!default},
    proportional to the static module size. *)
val module_translation_cycles : module_instrs:int -> float

(** Cycles charged for one execution of a block, given how many times
    it has executed before ([prior]), its instruction count and its
    native cycle cost, under {!default}.  Blocks below the warm-up threshold run
    interpreted, paying {!Jitise_ir.Cost.block_dispatch_cycles}
    (exactly once per block execution, however the host engine batches
    the work); beyond it they run compiled at [hot_factor]. *)
val block_execution_cycles :
  prior:int64 -> ninstrs:int -> native_cycles:int -> float
