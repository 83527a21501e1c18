(** Benchmark workloads.

    The paper evaluates ten scientific applications (SPEC2000/2006) and
    four embedded kernels (MiBench/SciMark2).  The original suites are
    proprietary or need a C toolchain, so each row of Table I is
    represented here by a MiniC program that reproduces the relevant
    *structure* of the original: its computational kernel, its rough
    scale contrast (scientific programs are much larger, with bigger
    but colder code), and its input-dependence (live/const/dead mix).
    Datasets are synthetic, sized so the hot kernels dominate — the
    same property the paper required of its train inputs.

    Every program has the entry point [int main(int n)] where [n]
    scales the input, at least two datasets (the coverage analysis
    needs to compare runs), plus unexercised code paths so the
    dead/const/live classification is non-trivial. *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm

type domain = Scientific | Embedded

type dataset = {
  label : string;
  n : int;  (** the input-size argument passed to [main] *)
}

type t = {
  name : string;           (** the paper's benchmark name, e.g. "470.lbm" *)
  domain : domain;
  sources : (string * string) list;  (** (filename, MiniC source) *)
  datasets : dataset list;  (** ordered; first is the "train" set *)
  description : string;
}

let domain_to_string = function
  | Scientific -> "scientific"
  | Embedded -> "embedded"

(** Compile a workload to bitcode with the -O3 pipeline. *)
let compile (w : t) : F.Compiler.result =
  F.Compiler.compile ~module_name:w.name w.sources

(** Run one dataset on the VM and return the outcome. *)
let run ?engine ?tuning (compiled : F.Compiler.result) (d : dataset) =
  Vm.Machine.run ?engine ?tuning compiled.F.Compiler.modul
    ~entry:"main"
    ~args:[ Ir.Eval.VInt (Int64.of_int d.n) ]

(** Run every dataset of a workload — the profile runs the coverage
    classifier compares — and return [(dataset, outcome)] pairs in
    dataset order.  The datasets run concurrently on
    {!Jitise_util.Pool} (each its own {!Vm.Machine.run}, so no compiled
    frame is shared), and each outcome drops its final memory image as
    soon as its run ends.  On failure the lowest-indexed dataset's
    exception is re-raised, the one a serial loop raises. *)
let run_all ?engine ?tuning (compiled : F.Compiler.result) (w : t) =
  Jitise_util.Pool.map ~jobs:(List.length w.datasets)
    (fun d ->
      let o = run ?engine ?tuning compiled d in
      (d, { o with Vm.Machine.memory = None }))
    w.datasets
