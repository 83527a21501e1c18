(** Per-application experiment execution and the parallel sweep engine.

    One [app_result] bundles everything the four tables need for one
    benchmark: compilation statistics, the per-dataset VM outcomes
    (profiles + both clocks), the coverage classification, the kernel
    analysis, the full ASIP-SP report and the break-even result.  The
    table drivers share these records so each workload is compiled and
    executed once.

    Like {!Asip_sp}, the per-application pipeline is split in two:
    {!prepare} does all the expensive work (compile, profiled VM
    execution, analyses, candidate staging) and carries no shared
    mutable state, so {!sweep} can fan it out across a domain pool;
    {!finish} replays the staged candidates against the bitstream cache
    and is executed sequentially {e in registry order}, which makes a
    parallel sweep report-identical to a serial one — including the
    local/shared attribution of cache hits.

    Parallelism has two levels, both on {!Jitise_util.Pool} and under
    its one process-wide domain budget: {!sweep} maps over
    applications, and the [profile] stage of {!prepare} maps over one
    application's datasets (independent VM runs), so a single
    {!evaluate} uses a second domain where the budget has one free. *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module An = Jitise_analysis
module U = Jitise_util

type app_result = {
  workload : W.Workload.t;
  compiled : F.Compiler.result;
  outcomes : (W.Workload.dataset * Vm.Machine.outcome) list;
      (** in dataset order; the first ("train") run feeds the ASIP-SP *)
  coverage : An.Coverage.t;
  kernel : An.Kernel.t;
  report : Asip_sp.report;
  split : An.Breakeven.split;
  break_even : An.Breakeven.result;
}

(** The train-dataset outcome (first dataset). *)
let train_outcome r = snd (List.hd r.outcomes)

(** The expensive, parallel-safe half of one application's pipeline. *)
type prepared = {
  pre_workload : W.Workload.t;
  pre_compiled : F.Compiler.result;
  pre_outcomes : (W.Workload.dataset * Vm.Machine.outcome) list;
  pre_coverage : An.Coverage.t;
  pre_kernel : An.Kernel.t;
  pre_staged : Asip_sp.staged;
}

(* The frontend/VM/analysis stages, digested on the workload identity:
   name, domain, sources and datasets pin everything their outputs
   depend on (compilation and the VM are deterministic), so across
   sweep points that vary only downstream knobs every one of these is
   an artifact-store hit. *)
let workload_digest (w : W.Workload.t) =
  let c = U.Digest.create () in
  U.Digest.add_string c w.W.Workload.name;
  U.Digest.add_string c (W.Workload.domain_to_string w.W.Workload.domain);
  U.Digest.add_list c
    (fun (file, src) ->
      U.Digest.add_string c file;
      U.Digest.add_string c src)
    w.W.Workload.sources;
  U.Digest.add_list c
    (fun (d : W.Workload.dataset) ->
      U.Digest.add_string c d.W.Workload.label;
      U.Digest.add_int c d.W.Workload.n)
    w.W.Workload.datasets;
  U.Digest.finish c

let compile_stage : (W.Workload.t, F.Compiler.result) Pipeline.stage =
  Pipeline.stage ~cat:"frontend" "compile"
    ~digest:(fun _spec w -> workload_digest w)
    ~codec:Codecs.compiler_result
    (fun _ctx w -> W.Workload.compile w)

let profile_stage :
    ( W.Workload.t * F.Compiler.result,
      (W.Workload.dataset * Vm.Machine.outcome) list )
    Pipeline.stage =
  Pipeline.stage ~cat:"vm" "profile"
    (* The digest deliberately excludes [spec.vm_engine] and
       [spec.vm_tuning]: every engine and tuning combination produces
       byte-identical outcomes (pinned by the differential suite in
       test_vm), so artifacts stay valid across all of them. *)
    ~digest:(fun _spec (w, _compiled) -> workload_digest w)
    ~codec:Codecs.profile_outcomes
    (* The datasets run concurrently ({!W.Workload.run_all}); outcomes
       and the raised fault are the serial loop's.  No stage reads the
       final memory image, and the codec does not store it: dropping it
       right after each run frees the image and makes a computed
       artifact equal to a decoded one. *)
    (fun ctx (w, compiled) ->
      let spec = ctx.Pipeline.spec in
      W.Workload.run_all ~engine:spec.Spec.vm_engine
        ~tuning:spec.Spec.vm_tuning compiled w)

let coverage_stage :
    ( W.Workload.t * Ir.Irmod.t * Vm.Profile.t list,
      An.Coverage.t )
    Pipeline.stage =
  Pipeline.stage ~cat:"analysis" "coverage"
    ~digest:(fun _spec (w, _m, _ps) -> workload_digest w)
    ~codec:Codecs.coverage
    (fun _ctx (_w, modul, profiles) -> An.Coverage.classify modul profiles)

let kernel_stage :
    (W.Workload.t * Ir.Irmod.t * Vm.Profile.t, An.Kernel.t) Pipeline.stage =
  Pipeline.stage ~cat:"analysis" "kernel"
    ~digest:(fun _spec (w, _m, _p) -> workload_digest w)
    ~codec:Codecs.kernel
    (fun _ctx (_w, modul, profile) -> An.Kernel.compute modul profile)

(** Compile, execute, analyze and stage one workload.  Touches no
    shared mutable state (the PivPav database and the artifact store
    are thread-safe), so many applications can be prepared
    concurrently.  All stages of one application run under one
    {!Pipeline.ctx}, so the staged report's [stage_records] cover the
    whole chain from [compile] to [implement]. *)
let prepare ~(spec : Spec.t) (db : Pp.Database.t) (w : W.Workload.t) :
    prepared =
  let app = w.W.Workload.name in
  let ctx = Pipeline.context ~spec ~app () in
  let compiled = Pipeline.exec ctx compile_stage w in
  let outcomes = Pipeline.exec ctx profile_stage (w, compiled) in
  let modul = compiled.F.Compiler.modul in
  let profiles = List.map (fun (_, o) -> o.Vm.Machine.profile) outcomes in
  let coverage = Pipeline.exec ctx coverage_stage (w, modul, profiles) in
  let train = snd (List.hd outcomes) in
  let kernel =
    Pipeline.exec ctx kernel_stage (w, modul, train.Vm.Machine.profile)
  in
  let staged =
    Asip_sp.stage_in ctx db modul train.Vm.Machine.profile
      ~total_cycles:train.Vm.Machine.native_cycles
  in
  {
    pre_workload = w;
    pre_compiled = compiled;
    pre_outcomes = outcomes;
    pre_coverage = coverage;
    pre_kernel = kernel;
    pre_staged = staged;
  }

(** The cheap, sequential half: bitstream-cache accounting and the
    derived analyses. *)
let finish ~(spec : Spec.t) (p : prepared) : app_result =
  let w = p.pre_workload in
  let modul = p.pre_compiled.F.Compiler.modul in
  let train = snd (List.hd p.pre_outcomes) in
  let report =
    Asip_sp.finalize ~spec ~app:w.W.Workload.name p.pre_staged
  in
  (* Savings come from what reached hardware: a dropped slot saves
     nothing.  When nothing is dropped this is the selection, in
     selection order. *)
  let split =
    An.Breakeven.split_costs modul train.Vm.Machine.profile p.pre_coverage
      (List.map
         (fun (c : Asip_sp.candidate_result) -> c.Asip_sp.scored)
         report.Asip_sp.candidates)
  in
  let break_even =
    An.Breakeven.of_split split ~overhead_seconds:report.Asip_sp.sum_seconds
  in
  {
    workload = w;
    compiled = p.pre_compiled;
    outcomes = p.pre_outcomes;
    coverage = p.pre_coverage;
    kernel = p.pre_kernel;
    report;
    split;
    break_even;
  }

(** Run the full experiment pipeline for one workload. *)
let evaluate ?(spec = Spec.default) (db : Pp.Database.t) (w : W.Workload.t) :
    app_result =
  finish ~spec (prepare ~spec db w)

(** The specialization the paper's ASIP-SP performs at run time:
    compile, profile the train dataset (the first) only, search and
    CAD, under one {!Pipeline.ctx}.  Returns the compiled module and
    the finalized report — all that the online controller and the
    timeline read — without {!evaluate}'s runs of the other datasets
    or its coverage, kernel and break-even analyses.  For the same
    spec the report's selection, candidates, drops and simulated costs
    are {!evaluate}'s.  [compile] keys on the whole workload, as in
    {!prepare}; [profile]'s digest covers the dataset list, so the
    train-only profile has its own key, while the search and CAD
    stages, keyed on the module and the train profile, share
    {!prepare}'s artifacts.
    @raise Invalid_argument when the workload has no datasets. *)
let specialize ?(spec = Spec.default) (db : Pp.Database.t) (w : W.Workload.t)
    : F.Compiler.result * Asip_sp.report =
  let train =
    match w.W.Workload.datasets with
    | d :: _ -> d
    | [] -> invalid_arg "Experiment.specialize: workload has no datasets"
  in
  let app = w.W.Workload.name in
  let ctx = Pipeline.context ~spec ~app () in
  let compiled = Pipeline.exec ctx compile_stage w in
  let outcome =
    snd
      (List.hd
         (Pipeline.exec ctx profile_stage
            ({ w with W.Workload.datasets = [ train ] }, compiled)))
  in
  let staged =
    Asip_sp.stage_in ctx db compiled.F.Compiler.modul
      outcome.Vm.Machine.profile
      ~total_cycles:outcome.Vm.Machine.native_cycles
  in
  (compiled, Asip_sp.finalize ~spec ~app staged)

(** Run every registered workload — the sweep engine.  Up to [jobs]
    domains (default 1, serial), as many as the {!Jitise_util.Pool}
    budget grants, prepare the applications concurrently; the dataset
    runs inside each application take whatever budget is left;
    finalization runs sequentially in registry order, so the results
    (including the local/shared cache-hit attribution against
    [spec.cache]) are identical whatever the parallelism.  [verbose]
    logs progress to stderr (a full sweep interprets ~10^8 simulated
    instructions). *)
let sweep ?(verbose = false) ?(jobs = 1) ?(spec = Spec.default)
    (db : Pp.Database.t) : app_result list =
  let prepared =
    U.Pool.map ~jobs
      (fun w ->
        if verbose then
          Printf.eprintf "[experiment] %s...\n%!" w.W.Workload.name;
        prepare ~spec db w)
      W.Registry.all
  in
  List.map (finish ~spec) prepared

let is_embedded r = r.workload.W.Workload.domain = W.Workload.Embedded
