(* Benchmark harness.

   Two jobs, as the reproduction requires:

   1. REGENERATE every table and figure of the paper's evaluation
      (Tables I-IV as row-for-row text tables, Figures 1-2 as stage
      diagrams), so `dune exec bench/main.exe` re-derives the paper's
      evaluation from scratch.

   2. MICROBENCHMARK (Bechamel) the pipeline stage behind each table and
      figure, one Test.make per artifact, plus ablation benches for the
      design decisions DESIGN.md calls out (MAXMISO vs the exponential
      SingleCut, pruning on/off, unrolling on/off).

   Pass --tables-only or --bench-only to run half the job. *)

open Bechamel
module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Hw = Jitise_hwgen
module Cad = Jitise_cad
module Core = Jitise_core

let db = Pp.Database.create ()

let find_workload name =
  match W.Registry.find name with
  | Some w -> w
  | None ->
      failwith
        (Printf.sprintf "bench: workload %S is not registered (have: %s)" name
           (String.concat ", " W.Registry.names))

let find_func modul fname =
  match Ir.Irmod.find_func modul fname with
  | Some f -> f
  | None -> failwith (Printf.sprintf "bench: function %S not found" fname)

(* ------------------------------------------------------------------ *)
(* Shared fixtures (small and fast; the full sweep happens in the      *)
(* table-regeneration half)                                            *)
(* ------------------------------------------------------------------ *)

let sor = find_workload "sor"
let sor_compiled = lazy (W.Workload.compile sor)

let sor_profiled =
  lazy
    (let r = Lazy.force sor_compiled in
     let out = W.Workload.run r { label = "bench"; n = 20 } in
     (r.F.Compiler.modul, out))

let sor_report =
  lazy
    (let m, out = Lazy.force sor_profiled in
     Core.Asip_sp.run_spec db m out.Vm.Machine.profile
       ~total_cycles:out.Vm.Machine.native_cycles)

let sor_project =
  lazy
    (let m, _ = Lazy.force sor_profiled in
     let r = Lazy.force sor_report in
     let s = List.hd r.Core.Asip_sp.selection in
     let c = s.Ise.Select.candidate in
     let f = find_func m c.Ise.Candidate.func in
     let dfg = Ir.Dfg.of_block f (Ir.Func.block f c.Ise.Candidate.block) in
     (dfg, c, Hw.Project.create db dfg c))

(* ------------------------------------------------------------------ *)
(* Bechamel tests: one per table/figure + ablations                    *)
(* ------------------------------------------------------------------ *)

(* Table I columns come from compilation, profiled VM execution,
   coverage and kernel analysis: bench the compile+run+analyze path. *)
let bench_table1 =
  Test.make ~name:"table1/characterize-sor"
    (Staged.stage (fun () ->
         let r = W.Workload.compile sor in
         let o1 = W.Workload.run r { label = "a"; n = 4 } in
         let o2 = W.Workload.run r { label = "b"; n = 8 } in
         let cov =
           Jitise_analysis.Coverage.classify r.F.Compiler.modul
             [ o1.Vm.Machine.profile; o2.Vm.Machine.profile ]
         in
         let k =
           Jitise_analysis.Kernel.compute r.F.Compiler.modul
             o1.Vm.Machine.profile
         in
         Sys.opaque_identity (cov, k)))

(* Table II's dominant live cost is the candidate search (the CAD times
   are simulated): bench prune + MAXMISO + estimate + select. *)
let bench_table2 =
  Test.make ~name:"table2/candidate-search-sor"
    (Staged.stage (fun () ->
         let m, out = Lazy.force sor_profiled in
         let pruning = Ise.Prune.apply Ise.Prune.at_50p_s3l m out.Vm.Machine.profile in
         let cands =
           List.concat_map
             (fun (fname, label) ->
               match Ir.Irmod.find_func m fname with
               | None -> []
               | Some f ->
                   let dfg = Ir.Dfg.of_block f (Ir.Func.block f label) in
                   Ise.Maxmiso.of_block dfg ~func:fname)
             pruning.Ise.Prune.blocks
         in
         Sys.opaque_identity
           (Ise.Select.select db m out.Vm.Machine.profile cands)))

(* Table III is the per-candidate CAD flow: bench one full simulated
   implementation (VHDL + netlists + all six stages). *)
let bench_table3 =
  Test.make ~name:"table3/cad-flow-one-candidate"
    (Staged.stage (fun () ->
         let dfg, c, _ = Lazy.force sor_project in
         let p = Hw.Project.create db dfg c in
         Sys.opaque_identity (Cad.Flow.implement db p)))

(* Table IV is the cache/CAD-speedup extrapolation grid. *)
let bench_table4 =
  Test.make ~name:"table4/cache-grid-sor"
    (Staged.stage (fun () ->
         let r = Lazy.force sor_report in
         let m, out = Lazy.force sor_profiled in
         let o1 = out.Vm.Machine.profile in
         ignore m;
         let costs = Core.Asip_sp.candidate_costs r in
         ignore o1;
         Sys.opaque_identity
           (List.map
              (fun hit ->
                Jitise_analysis.Cache_model.residual_overhead ~hit_rate:hit
                  ~cad_speedup:0.3 costs)
              [ 0.0; 0.3; 0.6; 0.9 ])))

(* Figures 1/2 are the flow structure itself: bench the end-to-end JIT
   path (figure 1) and the three-phase specialization (figure 2). *)
let bench_figure1 =
  Test.make ~name:"figure1/jit-ise-end-to-end"
    (Staged.stage (fun () ->
         let r = Lazy.force sor_compiled in
         let out = W.Workload.run r { label = "f1"; n = 4 } in
         let report =
           Core.Asip_sp.run_spec db r.F.Compiler.modul out.Vm.Machine.profile
             ~total_cycles:out.Vm.Machine.native_cycles
         in
         let adapted =
           Core.Adapt.apply r.F.Compiler.modul report.Core.Asip_sp.selection
         in
         Sys.opaque_identity
           (Vm.Machine.run adapted.Core.Adapt.modul ~entry:"main"
              ~cis:adapted.Core.Adapt.registry ~args:[ Ir.Eval.VInt 4L ])))

let bench_figure2 =
  Test.make ~name:"figure2/asip-specialization"
    (Staged.stage (fun () ->
         let m, out = Lazy.force sor_profiled in
         Sys.opaque_identity
           (Core.Asip_sp.run_spec db m out.Vm.Machine.profile
              ~total_cycles:out.Vm.Machine.native_cycles)))

(* Ablations -------------------------------------------------------- *)

let hot_dfg =
  lazy
    (let m, out = Lazy.force sor_profiled in
     match Vm.Profile.block_costs out.Vm.Machine.profile m with
     | ((fname, label), _) :: _ ->
         let f = find_func m fname in
         Ir.Dfg.of_block f (Ir.Func.block f label)
     | [] -> assert false)

let bench_ablation_maxmiso =
  Test.make ~name:"ablation/ise-maxmiso-linear"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Ise.Maxmiso.of_block (Lazy.force hot_dfg) ~func:"sweep")))

let bench_ablation_singlecut =
  Test.make ~name:"ablation/ise-singlecut-exponential"
    (Staged.stage (fun () ->
         let config =
           {
             Ise.Singlecut.default_config with
             Ise.Singlecut.step_budget = 20_000;
             max_nodes = 64;
           }
         in
         Sys.opaque_identity
           (Ise.Singlecut.of_block ~config db (Lazy.force hot_dfg) ~func:"sweep")))

let bench_ablation_prune_on =
  Test.make ~name:"ablation/search-with-50pS3L"
    (Staged.stage (fun () ->
         let m, out = Lazy.force sor_profiled in
         let sel = Ise.Prune.apply Ise.Prune.at_50p_s3l m out.Vm.Machine.profile in
         Sys.opaque_identity sel))

let bench_ablation_prune_off =
  Test.make ~name:"ablation/search-unpruned"
    (Staged.stage (fun () ->
         let m, _ = Lazy.force sor_profiled in
         Sys.opaque_identity (Ise.Maxmiso.of_module m)))

let bench_ablation_unroll_on =
  Test.make ~name:"ablation/compile-unroll4"
    (Staged.stage (fun () ->
         Sys.opaque_identity (W.Workload.compile ~optimize:true sor)))

let bench_ablation_unroll_off =
  Test.make ~name:"ablation/compile-O0"
    (Staged.stage (fun () ->
         Sys.opaque_identity (W.Workload.compile ~optimize:false sor)))

let all_tests =
  Test.make_grouped ~name:"jitise"
    [
      bench_table1; bench_table2; bench_table3; bench_table4;
      bench_figure1; bench_figure2; bench_ablation_maxmiso;
      bench_ablation_singlecut; bench_ablation_prune_on;
      bench_ablation_prune_off; bench_ablation_unroll_on;
      bench_ablation_unroll_off;
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let run_benchmarks () =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg [ instance ] all_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  print_endline "\n=== Bechamel microbenchmarks (monotonic clock) ===";
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
          let pretty =
            if est > 1e9 then Printf.sprintf "%8.3f s " (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%8.3f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%8.3f us" (est /. 1e3)
            else Printf.sprintf "%8.0f ns" est
          in
          Printf.printf "  %-42s %s/run\n" name pretty
      | _ -> Printf.printf "  %-42s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Table regeneration                                                  *)
(* ------------------------------------------------------------------ *)

let regenerate_tables ~spec () =
  prerr_endline "[bench] running the full experiment sweep...";
  let results = Core.Experiment.sweep ~verbose:true ~spec db in
  let faults = spec.Core.Spec.faults.Cad.Faults.enabled in
  print_endline "=== Table I: application characterization ===";
  print_string (Core.Tables.render_table1 (Core.Tables.table1 results));
  print_endline "\n=== Table II: ASIP-SP runtime overheads ===";
  print_string (Core.Tables.render_table2 ~faults (Core.Tables.table2 results));
  print_endline "\n=== Table III: constant CAD overheads ===";
  print_string (Core.Tables.render_table3 (Core.Tables.table3 results));
  print_endline "\n=== Table IV: break-even with caching / faster CAD ===";
  print_string (Core.Tables.render_table4 (Core.Tables.table4 results));
  print_endline "";
  print_string (Core.Diagrams.figure1 ());
  print_endline "";
  print_string (Core.Diagrams.figure2 ());
  List.map (fun r -> r.Core.Experiment.report) results

(* ------------------------------------------------------------------ *)
(* Pipeline stage-cache report (BENCH_pipeline.json)                   *)
(* ------------------------------------------------------------------ *)

(* A small selection-knob sweep against one shared artifact store,
   reported as machine-readable JSON for CI.  This is the incremental
   recomputation claim in numbers: across sweep points that only vary
   the selection config, everything upstream of selection is a stage
   hit.  Serial on purpose — hit/miss counters are scheduling-dependent
   under jobs > 1 (values are not). *)
let pipeline_report path =
  let module U = Jitise_util in
  let apps = [ "sor"; "fft" ] in
  let variants =
    [
      ("default", Ise.Select.default_config);
      ( "top2",
        { Ise.Select.default_config with Ise.Select.max_candidates = Some 2 }
      );
      ( "top1",
        { Ise.Select.default_config with Ise.Select.max_candidates = Some 1 }
      );
    ]
  in
  prerr_endline
    "[bench] pipeline: selection sweep against a shared stage cache...";
  let store = U.Artifact.create () in
  let records =
    List.concat_map
      (fun (_label, sel) ->
        List.concat_map
          (fun name ->
            let spec =
              Core.Spec.default |> Core.Spec.with_select sel
              |> Core.Spec.with_stage_cache store
            in
            let r = Core.Experiment.evaluate ~spec db (find_workload name) in
            r.Core.Experiment.report.Core.Asip_sp.stage_records)
          apps)
      variants
  in
  let summaries = Core.Pipeline.summarize records in
  let saved =
    List.fold_left
      (fun acc (s : Core.Pipeline.summary) ->
        acc + s.Core.Pipeline.sum_local_hits + s.Core.Pipeline.sum_shared_hits)
      0 summaries
  in
  let stats = U.Artifact.stats store in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"sweep\": {\"apps\": [%s], \"select_variants\": [%s], \"jobs\": 1},\n"
       (String.concat ", " (List.map (Printf.sprintf "%S") apps))
       (String.concat ", "
          (List.map (fun (l, _) -> Printf.sprintf "%S" l) variants)));
  Buffer.add_string buf "  \"stages\": [\n";
  let nstages = List.length summaries in
  List.iteri
    (fun i (s : Core.Pipeline.summary) ->
      let hits = s.Core.Pipeline.sum_local_hits + s.Core.Pipeline.sum_shared_hits in
      let hit_rate =
        if s.Core.Pipeline.sum_executions = 0 then 0.0
        else float_of_int hits /. float_of_int s.Core.Pipeline.sum_executions
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"stage\": %S, \"executions\": %d, \"computed\": %d, \
            \"local_hits\": %d, \"shared_hits\": %d, \"hit_rate\": %.4f, \
            \"wall_seconds\": %.6f}%s\n"
           s.Core.Pipeline.sum_stage s.Core.Pipeline.sum_executions
           s.Core.Pipeline.sum_computed s.Core.Pipeline.sum_local_hits
           s.Core.Pipeline.sum_shared_hits hit_rate
           s.Core.Pipeline.sum_wall_seconds
           (if i = nstages - 1 then "" else ",")))
    summaries;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"store\": {\"entries\": %d, \"computed\": %d, \"local_hits\": %d, \
        \"shared_hits\": %d},\n"
       stats.U.Artifact.total_entries stats.U.Artifact.total_computed
       stats.U.Artifact.total_local_hits stats.U.Artifact.total_shared_hits);
  Buffer.add_string buf
    (Printf.sprintf "  \"executions_saved\": %d\n}\n" saved);
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.eprintf "[bench] pipeline: wrote %s (%d stage executions saved)\n%!"
    path saved

(* ------------------------------------------------------------------ *)
(* VM engine microbenchmark (BENCH_vm.json)                            *)
(* ------------------------------------------------------------------ *)

(* Dynamic-instructions/second of four VM configurations over the
   workload registry, reported as machine-readable JSON for CI:

   - reference   — the AST-walking semantics baseline;
   - threaded    — the one compiled engine with every tuning knob off
     ({!Vm.Machine.untuned}): every register boxed, indexed dispatch,
     no fusion, interpreted CIs;
   - tuned-boxed — {!Vm.Machine.default_tuning} minus [regalloc]: block
     linking, compare-and-branch fusion and CI-native dispatch, with
     the same compiler classifying every register boxed;
   - tuned       — everything on, including the typed unboxed register
     files ({!Vm.Machine.default_tuning}).

   tuned/tuned-boxed is therefore what unboxing buys inside one
   compiler, and tuned/threaded what all layers buy together.

   Each workload's train dataset runs [reps] times per configuration —
   the configurations alternate within one rep loop, so slow drift
   (frequency scaling, a noisy neighbour) hits all four equally — and
   the best wall time counts (the usual minimum-of-repetitions noise
   filter), with a major GC slice collected before each timing so one
   run's garbage is not billed to the next.  All four outcomes are
   cross-checked pairwise — a semantics divergence here fails the
   benchmark rather than producing a meaningless speedup number.

   [workloads] restricts the sweep (the CI smoke step runs three pinned
   workloads); [gate] is a floor on the tuned/threaded geomean below
   which the run exits 1 (the CI regression tripwire: tuned must never
   be slower than plain threaded). *)
let vm_report ?workloads ?gate path =
  let reps = 5 in
  let names =
    match workloads with
    | None -> W.Registry.names
    | Some only ->
        List.iter (fun n -> ignore (find_workload n)) only;
        only
  in
  prerr_endline
    "[bench] vm: reference vs threaded vs tuned-boxed vs tuned over the \
     registry...";
  let check_identical name what (a : Vm.Machine.outcome)
      (b : Vm.Machine.outcome) =
    let same_ret =
      match (a.Vm.Machine.ret, b.Vm.Machine.ret) with
      | None, None -> true
      | Some x, Some y -> Ir.Eval.equal_value x y
      | _ -> false
    in
    if
      not
        (same_ret
        && a.Vm.Machine.native_cycles = b.Vm.Machine.native_cycles
        && a.Vm.Machine.vm_cycles = b.Vm.Machine.vm_cycles
        && Vm.Profile.to_list a.Vm.Machine.profile
           = Vm.Profile.to_list b.Vm.Machine.profile)
    then begin
      Printf.eprintf "bench: vm configs disagree on %s (%s)\n" name what;
      exit 1
    end
  in
  let time_once compiled d engine tuning =
    Gc.major ();
    let t0 = Unix.gettimeofday () in
    let out = W.Workload.run ~engine ~tuning compiled d in
    (out, Unix.gettimeofday () -. t0)
  in
  let configs =
    [
      ("reference", Vm.Machine.Reference, Vm.Machine.untuned);
      ("threaded", Vm.Machine.Threaded, Vm.Machine.untuned);
      ( "tuned-boxed",
        Vm.Machine.Threaded,
        { Vm.Machine.default_tuning with Vm.Machine.regalloc = false } );
      ("tuned", Vm.Machine.Threaded, Vm.Machine.default_tuning);
    ]
  in
  let rows =
    List.map
      (fun name ->
        let w = find_workload name in
        let compiled = W.Workload.compile w in
        let d = List.hd w.W.Workload.datasets in
        let best = Array.make (List.length configs) infinity in
        let outs = Array.make (List.length configs) None in
        for _ = 1 to reps do
          List.iteri
            (fun i (_, engine, tuning) ->
              let o, dt = time_once compiled d engine tuning in
              if dt < best.(i) then best.(i) <- dt;
              outs.(i) <- Some o)
            configs
        done;
        let out i = Option.get outs.(i) in
        check_identical name "reference vs threaded" (out 0) (out 1);
        check_identical name "threaded vs tuned-boxed" (out 1) (out 2);
        check_identical name "tuned-boxed vs tuned" (out 2) (out 3);
        let instrs =
          Int64.to_float (out 0).Vm.Machine.profile.Vm.Profile.executed_instrs
        in
        let ips i = instrs /. best.(i) in
        Printf.eprintf
          "[bench] vm: %-14s %10.0f instrs  ref %7.2f  thr %7.2f  boxed \
           %7.2f  tuned %7.2f Mi/s  (tuned/boxed %.2fx)\n\
           %!"
          name instrs (ips 0 /. 1e6) (ips 1 /. 1e6) (ips 2 /. 1e6)
          (ips 3 /. 1e6) (ips 3 /. ips 2);
        (name, instrs, best))
      names
  in
  let geomean ratio =
    let n = List.length rows in
    exp
      (List.fold_left (fun acc (_, _, b) -> acc +. log (ratio b)) 0.0 rows
      /. float_of_int n)
  in
  (* times are seconds, so speedup of config i over config j is
     b.(j) /. b.(i) *)
  let g_thr_ref = geomean (fun b -> b.(0) /. b.(1)) in
  let g_boxed_thr = geomean (fun b -> b.(1) /. b.(2)) in
  let g_tuned_thr = geomean (fun b -> b.(1) /. b.(3)) in
  let g_tuned_ref = geomean (fun b -> b.(0) /. b.(3)) in
  let g_tuned_boxed = geomean (fun b -> b.(2) /. b.(3)) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"configs\": [%s], \"reps\": %d,\n"
       (String.concat ", "
          (List.map (fun (l, _, _) -> Printf.sprintf "%S" l) configs))
       reps);
  Buffer.add_string buf
    "  \"tuning\": {\"link\": true, \"fuse\": true, \"ci_native\": true, \
     \"regalloc\": true, \"max_linked_blocks\": 64},\n";
  Buffer.add_string buf "  \"workloads\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, instrs, b) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"dynamic_instrs\": %.0f, \
            \"reference_seconds\": %.6f, \"threaded_seconds\": %.6f, \
            \"tuned_boxed_seconds\": %.6f, \"tuned_seconds\": %.6f, \
            \"reference_ips\": %.0f, \"threaded_ips\": %.0f, \
            \"tuned_boxed_ips\": %.0f, \"tuned_ips\": %.0f, \
            \"tuned_over_threaded\": %.4f, \
            \"tuned_over_tuned_boxed\": %.4f}%s\n"
           name instrs b.(0) b.(1) b.(2) b.(3) (instrs /. b.(0))
           (instrs /. b.(1))
           (instrs /. b.(2))
           (instrs /. b.(3))
           (b.(1) /. b.(3))
           (b.(2) /. b.(3))
           (if i = n - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"geomean\": {\"threaded_over_reference\": %.4f, \
        \"tuned_boxed_over_threaded\": %.4f, \"tuned_over_threaded\": %.4f, \
        \"tuned_over_reference\": %.4f, \"tuned_over_tuned_boxed\": %.4f},\n"
       g_thr_ref g_boxed_thr g_tuned_thr g_tuned_ref g_tuned_boxed);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"baseline\": {\"label\": \"boxed call seam: a boxed argument \
        array and return per user call, a fresh frame per call, fuel \
        and clocks flushed around every block that calls\", \
        \"threaded_over_reference_geomean\": 1.8272, \
        \"tuned_boxed_over_threaded_geomean\": 1.0342, \
        \"tuned_over_threaded_geomean\": 2.8872, \
        \"tuned_over_reference_geomean\": 5.2756, \
        \"tuned_over_tuned_boxed_geomean\": 2.7917, \
        \"note\": \"the calling convention is shared by every compiled \
        configuration (threaded and tuned-boxed pass boxed registers \
        lane to lane); the reference engine keeps its boxed calls but \
        now also updates fuel and clocks in place without boxing, so \
        ratios over the reference column mix both effects\"}%s\n"
       (match gate with None -> "" | Some _ -> ","));
  (match gate with
  | None -> ()
  | Some g ->
      Buffer.add_string buf
        (Printf.sprintf
           "  \"gate\": {\"floor\": %.4f, \"passed\": %b}\n" g
           (g_tuned_thr >= g)));
  Buffer.add_string buf "}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.eprintf
    "[bench] vm: wrote %s (geomean: thr/ref %.2fx, tuned/thr %.2fx, \
     tuned/ref %.2fx, tuned/boxed %.2fx)\n\
     %!"
    path g_thr_ref g_tuned_thr g_tuned_ref g_tuned_boxed;
  match gate with
  | Some g when g_tuned_thr < g ->
      Printf.eprintf
        "bench: vm: tuned/threaded geomean %.4f is below the gate %.4f\n"
        g_tuned_thr g;
      exit 1
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Persistent-store report (BENCH_store.json)                          *)
(* ------------------------------------------------------------------ *)

(* Cold-vs-warm timing of the disk store backend, reported as
   machine-readable JSON for CI.  The cold half evaluates a couple of
   workloads against a fresh on-disk store; the warm half builds a NEW
   artifact front-end over the same root — a simulated process restart,
   so every hit really crosses the serialization boundary — and must
   recompute zero stages while producing a byte-identical report
   projection (the deterministic tables; measured wall clocks are
   excluded by construction).  Per-stage serialized sizes come from
   walking the store directory.  Serial on purpose, like the pipeline
   report: exact counter values are only meaningful at jobs = 1. *)
let store_report ?store_dir path =
  let module U = Jitise_util in
  let apps = [ "sor"; "fft" ] in
  let made_tmp = store_dir = None in
  let root =
    match store_dir with
    | Some d -> d
    | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "jitise-bench-store-%d" (Unix.getpid ()))
  in
  let rec rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun name ->
          let p = Filename.concat dir name in
          if Sys.is_directory p then rm_rf p else Sys.remove p)
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  if made_tmp then rm_rf root;
  prerr_endline "[bench] store: cold vs warm against a disk-backed store...";
  let run_once () =
    (* A fresh spec per run: [with_store_dir] builds a new in-process
       front-end each time, so the warm run's hits all come through the
       disk backend, exactly as after a process restart. *)
    let spec = Core.Spec.with_store_dir root Core.Spec.default in
    let t0 = Unix.gettimeofday () in
    let results =
      List.map
        (fun name -> Core.Experiment.evaluate ~spec db (find_workload name))
        apps
    in
    let wall = Unix.gettimeofday () -. t0 in
    let records =
      List.concat_map
        (fun r -> r.Core.Experiment.report.Core.Asip_sp.stage_records)
        results
    in
    (spec, results, Core.Pipeline.summarize records, wall)
  in
  let _, cold_results, cold_sum, cold_wall = run_once () in
  let warm_spec, warm_results, warm_sum, warm_wall = run_once () in
  let proj rs =
    Core.Tables.render_table1 (Core.Tables.table1 rs)
    ^ Core.Tables.render_table3 (Core.Tables.table3 rs)
  in
  if proj cold_results <> proj warm_results then begin
    prerr_endline "bench: store: warm report differs from the cold report";
    exit 1
  end;
  let warm_computed =
    List.fold_left
      (fun acc (s : Core.Pipeline.summary) -> acc + s.Core.Pipeline.sum_computed)
      0 warm_sum
  in
  if warm_computed <> 0 then begin
    Printf.eprintf "bench: store: warm run recomputed %d stage executions\n"
      warm_computed;
    exit 1
  end;
  let entries =
    match warm_spec.Core.Spec.stage_cache with
    | Some store -> U.Artifact.backend_entries store
    | None -> []
  in
  let total_bytes =
    List.fold_left (fun acc (_, _, bytes) -> acc + bytes) 0 entries
  in
  let emit_stages buf summaries =
    let n = List.length summaries in
    List.iteri
      (fun i (s : Core.Pipeline.summary) ->
        Buffer.add_string buf
          (Printf.sprintf
             "      {\"stage\": %S, \"executions\": %d, \"computed\": %d, \
              \"local_hits\": %d, \"shared_hits\": %d}%s\n"
             s.Core.Pipeline.sum_stage s.Core.Pipeline.sum_executions
             s.Core.Pipeline.sum_computed s.Core.Pipeline.sum_local_hits
             s.Core.Pipeline.sum_shared_hits
             (if i = n - 1 then "" else ",")))
      summaries
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"sweep\": {\"apps\": [%s], \"jobs\": 1, \"backend\": \"disk\"},\n"
       (String.concat ", " (List.map (Printf.sprintf "%S") apps)));
  Buffer.add_string buf
    (Printf.sprintf "  \"cold\": {\"wall_seconds\": %.6f,\n    \"stages\": [\n"
       cold_wall);
  emit_stages buf cold_sum;
  Buffer.add_string buf "  ]},\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"warm\": {\"wall_seconds\": %.6f,\n    \"stages\": [\n"
       warm_wall);
  emit_stages buf warm_sum;
  Buffer.add_string buf "  ]},\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"warm_speedup\": %.4f,\n"
       (if warm_wall > 0.0 then cold_wall /. warm_wall else 0.0));
  Buffer.add_string buf "  \"serialized\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i (stage, count, bytes) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"stage\": %S, \"entries\": %d, \"bytes\": %d}%s\n" stage
           count bytes
           (if i = n - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"serialized_total_bytes\": %d,\n  \"reports_identical\": true\n}\n"
       total_bytes);
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.eprintf
    "[bench] store: wrote %s (cold %.3fs, warm %.3fs, %d bytes on disk)\n%!"
    path cold_wall warm_wall total_bytes;
  if made_tmp then rm_rf root

(* ------------------------------------------------------------------ *)
(* Online adaptive specialization (BENCH_online.json)                  *)
(* ------------------------------------------------------------------ *)

(* Run the closed-loop controller over the phase-shifting workloads and
   report adaptive vs oracle-offline vs no-specialization cycle totals
   (reconfiguration stalls included) plus the fabric and CAD counters,
   as machine-readable JSON for CI.  Two contracts are asserted rather
   than just reported: the loop replays byte-identically under jobs:4
   (it is a sequential simulated-time computation; jobs only
   parallelizes the staged preparation), and the adaptive controller
   beats static whole-run specialization on at least one workload —
   the reason the online refactor exists. *)
let online_report_json path =
  let module JM = Core.Jit_manager in
  let apps = W.Registry.phased_names in
  prerr_endline
    "[bench] online: adaptive vs oracle vs nospec over phased workloads...";
  let spec_for jobs =
    (* No pruning for the online loop: the controller decides what is
       worth implementing from live evidence, so every phase kernel
       must reach the candidate stage. *)
    Core.Spec.default
    |> Core.Spec.with_prune Ise.Prune.none
    |> Core.Spec.with_jobs jobs
  in
  let same_ret (a : JM.online_run) (b : JM.online_run) =
    match (a.JM.run_ret, b.JM.run_ret) with
    | None, None -> true
    | Some x, Some y -> Ir.Eval.equal_value x y
    | _ -> false
  in
  let results =
    List.map
      (fun name ->
        let w = find_workload name in
        let o = JM.online ~spec:(spec_for 1) db w in
        let o4 = JM.online ~spec:(spec_for 4) db w in
        let proj r = Format.asprintf "%a" JM.pp_online r in
        if proj o <> proj o4 then begin
          Printf.eprintf
            "bench: online: %s: jobs:4 replay diverged from the serial run\n"
            name;
          exit 1
        end;
        if
          not
            (same_ret o.JM.o_adaptive o.JM.o_oracle
            && same_ret o.JM.o_adaptive o.JM.o_nospec)
        then begin
          Printf.eprintf
            "bench: online: %s: runs disagree on the program result\n" name;
          exit 1
        end;
        Printf.eprintf
          "[bench] online: %-14s adaptive %12.0f  oracle %12.0f  nospec \
           %12.0f  (cad %d/%d/%d)\n\
           %!"
          name o.JM.o_adaptive.JM.run_cycles o.JM.o_oracle.JM.run_cycles
          o.JM.o_nospec.JM.run_cycles o.JM.o_cad_launched o.JM.o_cad_completed
          o.JM.o_cad_cancelled;
        o)
      apps
  in
  (match
     List.find_opt
       (fun (o : JM.online_report) ->
         o.JM.o_adaptive.JM.run_cycles < o.JM.o_oracle.JM.run_cycles)
       results
   with
  | Some _ -> ()
  | None ->
      prerr_endline
        "bench: online: adaptive never beat the oracle-offline baseline";
      exit 1);
  let cfg = Core.Spec.default.Core.Spec.online in
  let emit_run buf key (r : JM.online_run) =
    Buffer.add_string buf
      (Printf.sprintf
         "      \"%s\": {\"cycles\": %.0f, \"vm_cycles\": %.0f, \
          \"stall_cycles\": %.0f, \"reconfigurations\": %d, \"evictions\": \
          %d, \"swaps\": %d},\n"
         key r.JM.run_cycles r.JM.run_vm_cycles r.JM.run_stall_cycles
         r.JM.run_reconfigurations r.JM.run_evictions r.JM.run_swaps)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"config\": {\"slots\": %d, \"policy\": %S, \"window\": %d, \
        \"decay\": %g, \"latency_scale\": %g, \"prune\": \"@nofilter\"},\n"
       cfg.Core.Spec.slots
       (Jitise_woolcano.Asip.policy_name cfg.Core.Spec.evict)
       cfg.Core.Spec.window cfg.Core.Spec.decay cfg.Core.Spec.latency_scale);
  Buffer.add_string buf "  \"workloads\": [\n";
  let n = List.length results in
  List.iteri
    (fun i (o : JM.online_report) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": %S, \"dataset\": %S, \"cis\": %d,\n"
           o.JM.o_app o.JM.o_dataset o.JM.o_cis);
      emit_run buf "adaptive" o.JM.o_adaptive;
      emit_run buf "oracle" o.JM.o_oracle;
      emit_run buf "nospec" o.JM.o_nospec;
      Buffer.add_string buf
        (Printf.sprintf
           "      \"windows\": %d, \"phase_exits\": %d, \"cad_launched\": \
            %d, \"cad_completed\": %d, \"cad_cancelled\": %d,\n"
           o.JM.o_windows o.JM.o_phase_exits o.JM.o_cad_launched
           o.JM.o_cad_completed o.JM.o_cad_cancelled);
      Buffer.add_string buf
        (Printf.sprintf
           "      \"adaptive_vs_oracle\": %.4f, \"adaptive_vs_nospec\": \
            %.4f}%s\n"
           (o.JM.o_adaptive.JM.run_cycles /. o.JM.o_oracle.JM.run_cycles)
           (o.JM.o_adaptive.JM.run_cycles /. o.JM.o_nospec.JM.run_cycles)
           (if i = n - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    "  \"adaptive_beats_oracle\": true,\n  \"replay_identical\": true\n}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.eprintf "[bench] online: wrote %s (%d workloads)\n%!" path n

(* ------------------------------------------------------------------ *)
(* Chaos campaign (BENCH_chaos.json)                                   *)
(* ------------------------------------------------------------------ *)

(* Storm randomized fault mixes over registry workloads and assert the
   supervision contract: every run completes (no hangs — wall-clock
   protection is the CI timeout), no corrupt artifact is ever accepted,
   every degradation is flagged and waste-billed, and each seed replays
   byte-identically — cold vs warm against the same store root, and
   serial vs [jobs:4] against a fresh one. *)
let chaos_report ~seeds ~base_seed path =
  let module U = Jitise_util in
  (* Small-to-medium workloads keep a multi-seed campaign tractable;
     together they exercise every pipeline stage and both fan-out
     shapes (few and many selected candidates). *)
  let apps = [ "adpcm"; "sor"; "fft"; "183.equake"; "429.mcf"; "whetstone" ] in
  let tmp_root what seed =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jitise-chaos-%s-%d-%d" what (Unix.getpid ()) seed)
  in
  let rec rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun name ->
          let p = Filename.concat dir name in
          if Sys.is_directory p then rm_rf p else Sys.remove p)
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  let violations = ref [] in
  let violate seed fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "bench: chaos: seed %d: %s\n%!" seed msg;
        violations := (seed, msg) :: !violations)
      fmt
  in
  (* Everything deterministic a faulted run decides, rendered as one
     string: replay passes must agree byte for byte.  Wall-measured
     fields (search wall clock) are excluded by construction. *)
  let projection outcome =
    let b = Buffer.create 1024 in
    (match outcome with
    | Error (f : U.Supervisor.failure) ->
        Buffer.add_string b
          (Printf.sprintf "run-failed %s %s %d %.6f\n" f.U.Supervisor.f_site
             (U.Supervisor.error_name f.U.Supervisor.f_error)
             f.U.Supervisor.f_attempts f.U.Supervisor.f_wasted_seconds)
    | Ok (r : Core.Experiment.app_result) ->
        let rep = r.Core.Experiment.report in
        Buffer.add_string b
          (Printf.sprintf "ratio %.6f/%.6f sum %.6f attempts %d/%d waste %.6f\n"
             rep.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio
             rep.Core.Asip_sp.asip_ratio_max.Ise.Speedup.ratio
             rep.Core.Asip_sp.sum_seconds rep.Core.Asip_sp.total_attempts
             rep.Core.Asip_sp.failed_attempts rep.Core.Asip_sp.wasted_seconds);
        Buffer.add_string b
          (Printf.sprintf "degraded %d stage-failed %d deadline %b\n"
             rep.Core.Asip_sp.degraded rep.Core.Asip_sp.stage_failures
             rep.Core.Asip_sp.deadline_exceeded);
        List.iter
          (fun (c : Core.Asip_sp.candidate_result) ->
            Buffer.add_string b
              (Printf.sprintf "cand %s total %.6f att %d/%d waste %.6f %s\n"
                 c.Core.Asip_sp.scored.Ise.Select.candidate
                   .Ise.Candidate.signature
                 c.Core.Asip_sp.total_seconds c.Core.Asip_sp.attempts
                 c.Core.Asip_sp.failed_attempts c.Core.Asip_sp.wasted_seconds
                 (match c.Core.Asip_sp.outcome with
                 | Core.Asip_sp.Implemented -> "implemented"
                 | Core.Asip_sp.Promoted { from; _ } ->
                     "promoted-from "
                     ^ from.Ise.Select.candidate.Ise.Candidate.signature)))
          rep.Core.Asip_sp.candidates;
        List.iter
          (fun (d : Core.Asip_sp.dropped) ->
            Buffer.add_string b
              (Printf.sprintf "drop %s %s att %d waste %.6f at %d\n"
                 d.Core.Asip_sp.drop_scored.Ise.Select.candidate
                   .Ise.Candidate.signature
                 (Core.Asip_sp.drop_reason_name d.Core.Asip_sp.drop_reason)
                 d.Core.Asip_sp.drop_attempts
                 d.Core.Asip_sp.drop_wasted_seconds
                 d.Core.Asip_sp.drop_at_index))
          rep.Core.Asip_sp.dropped);
    Buffer.contents b
  in
  let policy =
    {
      U.Supervisor.default_policy with
      U.Supervisor.stage_deadline_seconds = Some 60.0;
    }
  in
  let evaluate_one ~seed ~chaos ~jobs ~root name =
    let spec =
      Core.Spec.default |> Core.Spec.with_jobs jobs
      |> Core.Spec.with_supervisor policy
      |> Core.Spec.with_chaos chaos
      |> Core.Spec.with_store_dir root
      |> Core.Spec.with_faults (Cad.Faults.defaults ~seed)
      |> Core.Spec.with_retry Jitise_util.Retry.default
    in
    match Core.Experiment.evaluate ~spec db (find_workload name) with
    | r -> Ok r
    | exception U.Supervisor.Stage_failed f -> Error f
  in
  let check_invariants seed name outcome =
    match outcome with
    | Error _ -> ()
    | Ok (r : Core.Experiment.app_result) ->
        let rep = r.Core.Experiment.report in
        let n_sel = List.length rep.Core.Asip_sp.selection in
        let n_cand = List.length rep.Core.Asip_sp.candidates in
        let n_drop = List.length rep.Core.Asip_sp.dropped in
        if n_cand + n_drop <> n_sel then
          violate seed "%s: %d candidates + %d dropped <> %d selected" name
            n_cand n_drop n_sel;
        List.iter
          (fun (c : Core.Asip_sp.candidate_result) ->
            let run = c.Core.Asip_sp.run in
            if not (Cad.Bitstream.well_formed run.Cad.Flow.bitstream) then
              violate seed "%s: accepted candidate %s has a corrupt bitstream"
                name
                c.Core.Asip_sp.scored.Ise.Select.candidate
                  .Ise.Candidate.signature;
            if run.Cad.Flow.syntax_problems <> [] then
              violate seed "%s: accepted candidate carries syntax problems"
                name;
            if c.Core.Asip_sp.wasted_seconds < 0.0 then
              violate seed "%s: negative waste on a candidate" name)
          rep.Core.Asip_sp.candidates;
        List.iter
          (fun (d : Core.Asip_sp.dropped) ->
            if d.Core.Asip_sp.drop_wasted_seconds < 0.0 then
              violate seed "%s: negative waste on a drop" name;
            if
              d.Core.Asip_sp.drop_reason = Core.Asip_sp.Stage_failure
              && d.Core.Asip_sp.drop_failure <> None
            then
              violate seed "%s: stage-failure drop carries a CAD failure" name)
          rep.Core.Asip_sp.dropped;
        let flagged =
          List.length
            (List.filter
               (fun (d : Core.Asip_sp.dropped) ->
                 d.Core.Asip_sp.drop_reason = Core.Asip_sp.Stage_failure)
               rep.Core.Asip_sp.dropped)
        in
        if flagged <> rep.Core.Asip_sp.stage_failures then
          violate seed "%s: stage_failures %d but %d flagged drops" name
            rep.Core.Asip_sp.stage_failures flagged
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"campaign\": {\"seeds\": %d, \"base_seed\": %d, \"apps\": [%s],\n\
       \   \"stage_deadline_seconds\": 60.0},\n"
       seeds base_seed
       (String.concat ", " (List.map (Printf.sprintf "%S") apps)));
  Buffer.add_string buf "  \"seeds\": [\n";
  let t0 = Unix.gettimeofday () in
  for i = 0 to seeds - 1 do
    let seed = base_seed + i in
    let chaos = U.Chaos.storm ~seed in
    Printf.eprintf "[bench] chaos: seed %d (%d/%d)...\n%!" seed (i + 1) seeds;
    let root1 = tmp_root "a" seed and root2 = tmp_root "b" seed in
    rm_rf root1;
    rm_rf root2;
    let cold =
      List.map (fun n -> evaluate_one ~seed ~chaos ~jobs:1 ~root:root1 n) apps
    in
    (* Warm replay over the same (possibly torn) store: corrupt entries
       must degrade to recomputation, never change the outcome. *)
    let warm =
      List.map (fun n -> evaluate_one ~seed ~chaos ~jobs:1 ~root:root1 n) apps
    in
    (* Parallel replay against a fresh root: scheduling independence. *)
    let par =
      List.map (fun n -> evaluate_one ~seed ~chaos ~jobs:4 ~root:root2 n) apps
    in
    List.iteri
      (fun j name ->
        let c = List.nth cold j in
        check_invariants seed name c;
        let pc = projection c in
        if pc <> projection (List.nth warm j) then
          violate seed "%s: warm replay diverged from the cold run" name;
        if pc <> projection (List.nth par j) then
          violate seed "%s: jobs:4 replay diverged from the serial run" name)
      apps;
    let orphans = U.Store_disk.sweep_orphans ~root:root1 in
    if orphans <> 0 then
      violate seed "%d orphan temp files survived the store's own sweep"
        orphans;
    let agg f =
      List.fold_left
        (fun acc o -> match o with Ok r -> acc + f r | Error _ -> acc)
        0 cold
    in
    let rep_of (r : Core.Experiment.app_result) = r.Core.Experiment.report in
    let run_failures =
      List.length (List.filter (function Error _ -> true | Ok _ -> false) cold)
    in
    let stage_failures =
      agg (fun r -> (rep_of r).Core.Asip_sp.stage_failures)
    in
    let degraded = agg (fun r -> (rep_of r).Core.Asip_sp.degraded) in
    let dropped =
      agg (fun r -> List.length (rep_of r).Core.Asip_sp.dropped)
    in
    let failed_attempts =
      agg (fun r -> (rep_of r).Core.Asip_sp.failed_attempts)
    in
    let wasted =
      List.fold_left
        (fun acc -> function
          | Ok r -> acc +. (rep_of r).Core.Asip_sp.wasted_seconds
          | Error (f : U.Supervisor.failure) ->
              acc +. f.U.Supervisor.f_wasted_seconds)
        0.0 cold
    in
    Buffer.add_string buf
      (Printf.sprintf
         "    {\"seed\": %d, \"run_failures\": %d, \"stage_failures\": %d,\n\
         \     \"promoted\": %d, \"dropped\": %d, \"failed_attempts\": %d,\n\
         \     \"wasted_seconds\": %.3f, \"replay_identical\": %b}%s\n"
         seed run_failures stage_failures degraded dropped failed_attempts
         wasted
         (not (List.exists (fun (s, _) -> s = seed) !violations))
         (if i = seeds - 1 then "" else ","));
    rm_rf root1;
    rm_rf root2
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"wall_seconds\": %.3f,\n  \"violations\": %d,\n  \"ok\": %b\n}\n"
       wall
       (List.length !violations)
       (!violations = []));
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.eprintf "[bench] chaos: wrote %s (%d seeds, %d violations, %.1fs)\n%!"
    path seeds
    (List.length !violations)
    wall;
  if !violations <> [] then exit 1

(* Minimal flag parsing: --trace FILE, --jobs N, --shared-cache,
   --faults, --fault-seed SEED, --retries N, --deadline SECONDS,
   --pipeline-json FILE (with --pipeline-only to skip the rest),
   --vm-json FILE (with --vm-only to skip the rest, --vm-workloads CSV
   to restrict the sweep, --vm-gate X to fail below a tuned/threaded
   geomean floor), --store-json FILE
   with --store-dir DIR (and --store-only to skip the rest),
   --online-json FILE (with --online-only to skip the rest),
   --chaos [--chaos-seeds N] [--chaos-base-seed SEED] [--chaos-json FILE]
   to run the chaos campaign alone, plus the original
   --tables-only/--bench-only halves. *)
let rec arg_value key = function
  | k :: v :: _ when k = key -> Some v
  | _ :: rest -> arg_value key rest
  | [] -> None

let int_arg key ~default ~min argv =
  match arg_value key argv with
  | Some n -> (
      match int_of_string_opt n with
      | Some j when j >= min -> j
      | _ ->
          Printf.eprintf "bench: %s expects an integer >= %d, got %s\n" key min
            n;
          exit 2)
  | None -> default

let () =
  let argv = Array.to_list Sys.argv in
  let pipeline_only = List.mem "--pipeline-only" argv in
  let pipeline_json =
    match arg_value "--pipeline-json" argv with
    | Some path -> Some path
    | None -> if pipeline_only then Some "BENCH_pipeline.json" else None
  in
  let vm_only = List.mem "--vm-only" argv in
  let vm_json =
    match arg_value "--vm-json" argv with
    | Some path -> Some path
    | None -> if vm_only then Some "BENCH_vm.json" else None
  in
  let vm_workloads =
    match arg_value "--vm-workloads" argv with
    | Some csv -> Some (String.split_on_char ',' csv)
    | None -> None
  in
  let vm_gate =
    match arg_value "--vm-gate" argv with
    | Some s -> (
        match float_of_string_opt s with
        | Some g -> Some g
        | None ->
            Printf.eprintf "bench: --vm-gate expects a float, got %s\n" s;
            exit 2)
    | None -> None
  in
  let store_only = List.mem "--store-only" argv in
  let store_json =
    match arg_value "--store-json" argv with
    | Some path -> Some path
    | None -> if store_only then Some "BENCH_store.json" else None
  in
  let store_dir = arg_value "--store-dir" argv in
  let online_only = List.mem "--online-only" argv in
  let online_json =
    match arg_value "--online-json" argv with
    | Some path -> Some path
    | None -> if online_only then Some "BENCH_online.json" else None
  in
  let chaos = List.mem "--chaos" argv in
  let chaos_json =
    match arg_value "--chaos-json" argv with
    | Some path -> path
    | None -> "BENCH_chaos.json"
  in
  let skip_main = pipeline_only || vm_only || store_only || online_only || chaos in
  let tables = (not skip_main) && not (List.mem "--bench-only" argv) in
  let benches = (not skip_main) && not (List.mem "--tables-only" argv) in
  let trace = arg_value "--trace" argv in
  let jobs = int_arg "--jobs" ~default:1 ~min:1 argv in
  let spec = Core.Spec.with_jobs jobs Core.Spec.default in
  let spec =
    if trace <> None then
      Core.Spec.with_tracer (Jitise_util.Trace.create ()) spec
    else spec
  in
  let spec =
    if List.mem "--shared-cache" argv then
      Core.Spec.with_cache (Jitise_util.Artifact.create ()) spec
    else spec
  in
  let spec =
    if not (List.mem "--faults" argv) then spec
    else begin
      let seed = int_arg "--fault-seed" ~default:20110516 ~min:0 argv in
      let retries = int_arg "--retries" ~default:3 ~min:1 argv in
      let deadline =
        match arg_value "--deadline" argv with
        | Some s -> (
            match float_of_string_opt s with
            | Some d when d > 0.0 -> Some d
            | _ ->
                Printf.eprintf
                  "bench: --deadline expects a positive number of seconds, \
                   got %s\n"
                  s;
                exit 2)
        | None -> None
      in
      spec
      |> Core.Spec.with_faults (Cad.Faults.defaults ~seed)
      |> Core.Spec.with_retry
           (Jitise_util.Retry.default
           |> Jitise_util.Retry.with_max_attempts retries
           |> Jitise_util.Retry.with_specialization_deadline deadline)
    end
  in
  if chaos then
    chaos_report
      ~seeds:(int_arg "--chaos-seeds" ~default:10 ~min:1 argv)
      ~base_seed:(int_arg "--chaos-base-seed" ~default:4207 ~min:0 argv)
      chaos_json;
  let reports = if tables then regenerate_tables ~spec () else [] in
  if benches then run_benchmarks ();
  (if not (vm_only || store_only || online_only) then
     Option.iter pipeline_report pipeline_json);
  (if not (pipeline_only || store_only || online_only) then
     Option.iter
       (vm_report ?workloads:vm_workloads ?gate:vm_gate)
       vm_json);
  (if not (pipeline_only || vm_only || store_only) then
     Option.iter online_report_json online_json);
  Option.iter (store_report ?store_dir) store_json;
  (match (spec.Core.Spec.tracer, trace) with
  | Some t, Some path ->
      Jitise_util.Trace.write t path;
      Printf.eprintf "[trace] wrote %s (%d spans)\n%!" path
        (List.length (Jitise_util.Trace.events t))
  | _ -> ());
  if spec.Core.Spec.cache <> None then
    Format.eprintf "[cache] %a@." Core.Asip_sp.pp_cache_summary reports
