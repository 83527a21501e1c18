(** Cost model of the virtual machine's just-in-time compilation.

    The paper's VM (LLVM's JIT) shows ~14 % average slowdown on large
    scientific codes, ~1 % on small embedded kernels, and occasionally
    beats static compilation (179.art, 473.astar).  This model captures
    that behaviour at block granularity:

    - the first [warmup_threshold] executions of a block are
      interpreted, paying {!Jitise_ir.Cost.vm_dispatch_cycles} per
      instruction plus a per-block translation charge on the execution
      that triggers compilation;
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

let default =
  {
    warmup_threshold = 16L;
    translation_cycles_per_instr = 6_500;
    hot_factor = 0.985;
  }

(** One-time cost of translating the whole module at load (the VM's
    dynamic translation step in Figure 1).  Proportional to the static
    module size — the mechanism behind the paper's observation that the
    VM overhead is ~14 % on the large scientific codes but ~1 % on the
    small embedded kernels: big programs pay for translating a lot of
    code their hot loops never amortize. *)
let module_translation_cycles ~module_instrs =
  float_of_int (default.translation_cycles_per_instr * module_instrs)

(** Cycles charged for one execution of a block, given how many times it
    has executed before ([prior]), its instruction count and its native
    cycle cost.  Blocks below the warm-up threshold run interpreted;
    beyond it they run compiled, marginally faster than static code
    thanks to profile-guided optimization (which is how the VM
    occasionally beats native execution, as the paper saw for 179.art
    and 473.astar). *)
let block_execution_cycles ~prior ~ninstrs ~native_cycles =
  if prior >= default.warmup_threshold then
    default.hot_factor *. float_of_int native_cycles
  else
    float_of_int
      (native_cycles + Jitise_ir.Cost.block_dispatch_cycles ~ninstrs)
