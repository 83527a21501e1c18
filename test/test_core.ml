(* Tests for Jitise_core: binary adaptation, the ASIP specialization
   process, experiment plumbing, tables, diagrams. *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module An = Jitise_analysis
module Core = Jitise_core

let db = Pp.Database.create ()

let compile src = (F.Compiler.compile_string ~name:"t" src).F.Compiler.modul

let run ?cis m n =
  Vm.Machine.run ?cis m ~entry:"main" ~args:[ Ir.Eval.VInt (Int64.of_int n) ]

let float_kernel_src =
  "double a[64]; double b[64]; double out[64];\n\
   int main(int n) {\n\
  \  int i;\n\
  \  for (i = 0; i < 64; i = i + 1) { a[i] = i * 0.5 + 1.0; b[i] = i * 0.25 + 2.0; }\n\
  \  int t;\n\
  \  for (t = 0; t < n; t = t + 1) {\n\
  \    for (i = 0; i < 64; i = i + 1) {\n\
  \      out[i] = (a[i] * 1.5 + b[i] * 2.5) * (a[i] - b[i]) + out[i] * 0.5;\n\
  \    }\n\
  \  }\n\
  \  double s = 0.0;\n\
  \  for (i = 0; i < 64; i = i + 1) { s = s + out[i]; }\n\
  \  return s;\n\
   }"

let specialize ?prune src n =
  let m = compile src in
  let out = run m n in
  let spec =
    match prune with
    | None -> Core.Spec.default
    | Some p -> Core.Spec.with_prune p Core.Spec.default
  in
  let report =
    Core.Asip_sp.run_spec ~spec db m out.Vm.Machine.profile
      ~total_cycles:out.Vm.Machine.native_cycles
  in
  (m, out, report)

(* ------------------------------------------------------------------ *)
(* Adapt                                                               *)
(* ------------------------------------------------------------------ *)

let test_adapt_preserves_results () =
  let m, out, report = specialize float_kernel_src 200 in
  let adapted = Core.Adapt.apply m report.Core.Asip_sp.selection in
  let out2 = run ~cis:adapted.Core.Adapt.registry adapted.Core.Adapt.modul 200 in
  Alcotest.(check bool) "selection non-empty" true
    (report.Core.Asip_sp.selection <> []);
  Alcotest.(check bool) "same checksum" true (out.Vm.Machine.ret = out2.Vm.Machine.ret);
  let ci_calls = ref 0 in
  List.iter
    (Ir.Func.iter_instrs (fun _ (i : Ir.Instr.t) ->
         match i.Ir.Instr.kind with
         | Ir.Instr.Ci_call _ -> incr ci_calls
         | _ -> ()))
    adapted.Core.Adapt.modul.Ir.Irmod.funcs;
  Alcotest.(check bool) "instructions replaced" true (!ci_calls > 0)

let test_adapt_measured_speedup_matches_estimate () =
  let m, out, report = specialize float_kernel_src 200 in
  let adapted = Core.Adapt.apply m report.Core.Asip_sp.selection in
  let out2 = run ~cis:adapted.Core.Adapt.registry adapted.Core.Adapt.modul 200 in
  let measured = out.Vm.Machine.native_cycles /. out2.Vm.Machine.native_cycles in
  let predicted = report.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f within 2%% of predicted %.3f" measured predicted)
    true
    (abs_float (measured -. predicted) /. predicted < 0.02);
  Alcotest.(check bool) "actually faster" true (measured > 1.2)

let test_adapt_module_is_a_copy () =
  let m, _, report = specialize float_kernel_src 50 in
  let before = Ir.Irmod.num_instrs m in
  let adapted = Core.Adapt.apply m report.Core.Asip_sp.selection in
  Alcotest.(check int) "original untouched" before (Ir.Irmod.num_instrs m);
  Alcotest.(check bool) "adapted is smaller" true
    (Ir.Irmod.num_instrs adapted.Core.Adapt.modul < before)

let test_adapt_on_workload () =
  let w = Option.get (W.Registry.find "sor") in
  let r = W.Workload.compile w in
  let d = { (List.hd w.W.Workload.datasets) with W.Workload.n = 10 } in
  let out = W.Workload.run r d in
  let report =
    Core.Asip_sp.run_spec db r.F.Compiler.modul out.Vm.Machine.profile
      ~total_cycles:out.Vm.Machine.native_cycles
  in
  let adapted = Core.Adapt.apply r.F.Compiler.modul report.Core.Asip_sp.selection in
  let out2 =
    Vm.Machine.run adapted.Core.Adapt.modul ~entry:"main"
      ~cis:adapted.Core.Adapt.registry
      ~args:[ Ir.Eval.VInt (Int64.of_int d.W.Workload.n) ]
  in
  Alcotest.(check bool) "sor adapted run agrees" true
    (out.Vm.Machine.ret = out2.Vm.Machine.ret)

(* ------------------------------------------------------------------ *)
(* Asip_sp                                                             *)
(* ------------------------------------------------------------------ *)

let test_asip_sp_report_invariants () =
  let _, _, r = specialize float_kernel_src 200 in
  Alcotest.(check bool) "search wall positive" true
    (r.Core.Asip_sp.search_wall_seconds > 0.0);
  Alcotest.(check bool) "pruning kept <= 3 blocks" true
    (r.Core.Asip_sp.searched_blocks <= 3);
  Alcotest.(check (float 1e-6)) "sum = const + map + par"
    r.Core.Asip_sp.sum_seconds
    (r.Core.Asip_sp.const_seconds +. r.Core.Asip_sp.map_seconds
    +. r.Core.Asip_sp.par_seconds);
  Alcotest.(check int) "one report per selected candidate"
    (List.length r.Core.Asip_sp.selection)
    (List.length r.Core.Asip_sp.candidates);
  Alcotest.(check bool) "pruned ratio <= max ratio" true
    (r.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio
    <= r.Core.Asip_sp.asip_ratio_max.Ise.Speedup.ratio +. 1e-9);
  Alcotest.(check bool) "efficiency positive" true
    (r.Core.Asip_sp.pruning_efficiency > 0.0);
  List.iter
    (fun (c : Core.Asip_sp.candidate_result) ->
      match c.Core.Asip_sp.cache_hit with
      | Some _ ->
          Alcotest.(check (float 1e-9)) "cache hits are free" 0.0
            c.Core.Asip_sp.total_seconds
      | None ->
          Alcotest.(check bool) "misses pay C2V + CAD" true
            (c.Core.Asip_sp.total_seconds > c.Core.Asip_sp.c2v_seconds))
    r.Core.Asip_sp.candidates

let test_asip_sp_cache_dedups_unrolled_copies () =
  (* unrolling produces 4 copies of the loop-body data path; only the
     first builds a bitstream *)
  let _, _, r = specialize float_kernel_src 200 in
  let hits =
    List.length
      (List.filter
         (fun (c : Core.Asip_sp.candidate_result) ->
           c.Core.Asip_sp.cache_hit = Some Jitise_util.Artifact.Local)
         r.Core.Asip_sp.candidates)
  in
  Alcotest.(check bool) "duplicated data paths hit the run cache" true (hits > 0)

let test_asip_sp_no_pruning () =
  let _, _, pruned = specialize float_kernel_src 200 in
  let _, _, full = specialize ~prune:Ise.Prune.none float_kernel_src 200 in
  Alcotest.(check bool) "no filter sees at least as many blocks" true
    (full.Core.Asip_sp.searched_blocks >= pruned.Core.Asip_sp.searched_blocks);
  Alcotest.(check bool) "no filter at least as fast an app" true
    (full.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio
    >= pruned.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio -. 1e-9)

let test_candidate_costs_export () =
  let _, _, r = specialize float_kernel_src 200 in
  let costs = Core.Asip_sp.candidate_costs r in
  Alcotest.(check int) "one cost per candidate"
    (List.length r.Core.Asip_sp.candidates)
    (List.length costs);
  let total =
    List.fold_left
      (fun a (c : An.Cache_model.candidate_cost) -> a +. c.An.Cache_model.generation_seconds)
      0.0 costs
  in
  Alcotest.(check (float 1e-6)) "costs sum to the overhead"
    r.Core.Asip_sp.sum_seconds total

(* ------------------------------------------------------------------ *)
(* Experiment + tables                                                 *)
(* ------------------------------------------------------------------ *)

let sor_result =
  lazy
    (let w = Option.get (W.Registry.find "sor") in
     Core.Experiment.evaluate db w)

let test_experiment_structure () =
  let r = Lazy.force sor_result in
  Alcotest.(check int) "one outcome per dataset"
    (List.length r.Core.Experiment.workload.W.Workload.datasets)
    (List.length r.Core.Experiment.outcomes);
  Alcotest.(check bool) "is embedded" true (Core.Experiment.is_embedded r);
  Alcotest.(check bool) "break-even computed" true
    (match r.Core.Experiment.break_even with
    | An.Breakeven.After t -> t > 0.0
    | An.Breakeven.Never -> true)

let test_table_rows () =
  let r = Lazy.force sor_result in
  let t1 = Core.Tables.table1_row r in
  Alcotest.(check string) "name" "sor" t1.Core.Tables.name;
  Alcotest.(check bool) "vm ratio near 1" true
    (t1.Core.Tables.vm_ratio > 0.9 && t1.Core.Tables.vm_ratio < 1.2);
  Alcotest.(check bool) "speedup > 2 for sor" true (t1.Core.Tables.asip_ratio > 2.0);
  let t2 = Core.Tables.table2_row r in
  Alcotest.(check bool) "overhead positive" true (t2.Core.Tables.sum_seconds > 0.0);
  Alcotest.(check bool) "candidates found" true (t2.Core.Tables.candidates > 0)

let test_table_renderers () =
  let r = Lazy.force sor_result in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  let s1 = Core.Tables.render_table1 (Core.Tables.table1 [ r ]) in
  Alcotest.(check bool) "table1 row" true (contains s1 "sor");
  Alcotest.(check bool) "table1 summary rows" true (contains s1 "AVG-E");
  let s2 = Core.Tables.render_table2 (Core.Tables.table2 [ r ]) in
  Alcotest.(check bool) "table2 break even column" true (contains s2 "break even");
  let s3 = Core.Tables.render_table3 (Core.Tables.table3 [ r ]) in
  Alcotest.(check bool) "table3 columns" true (contains s3 "Bitgen[s]");
  let s4 = Core.Tables.render_table4 (Core.Tables.table4 [ r ]) in
  Alcotest.(check bool) "table4 grid" true (contains s4 "Cache hit[%]")

let test_table3_statistics () =
  let r = Lazy.force sor_result in
  let t3 = Core.Tables.table3 [ r ] in
  Alcotest.(check bool) "bitgen mean ~151" true
    (abs_float (t3.Core.Tables.bitgen.Jitise_util.Stats.mean -. 151.0) < 8.0);
  Alcotest.(check bool) "total is the sum of stage means" true
    (t3.Core.Tables.total_mean > 170.0 && t3.Core.Tables.total_mean < 190.0)

let test_table4_monotone () =
  let r = Lazy.force sor_result in
  let cells = Core.Tables.table4 [ r ] in
  let be h c =
    match
      List.find_opt
        (fun x -> x.Core.Tables.hit_rate = h && x.Core.Tables.cad_speedup = c)
        cells
    with
    | Some x -> x.Core.Tables.avg_break_even_seconds
    | None -> Alcotest.fail "missing cell"
  in
  Alcotest.(check bool) "faster CAD shortens break-even" true
    (be 0.0 0.9 < be 0.0 0.0 +. 1e-9);
  Alcotest.(check bool) "cache shortens break-even" true
    (be 0.9 0.0 < be 0.0 0.0 +. 1e-9)

(* When the timeline's JIT system overtakes the plain CPU, read off
   the event that announces it. *)
let overtake (t : Core.Jit_manager.timeline) =
  List.find_map
    (fun (e : Core.Jit_manager.event) ->
      if e.Core.Jit_manager.what = "JIT system overtakes the plain-CPU system"
      then Some e.Core.Jit_manager.at_seconds
      else None)
    t.Core.Jit_manager.events

let test_jit_manager_timeline () =
  let _, _, report = specialize float_kernel_src 200 in
  let t = Core.Jit_manager.timeline report in
  Alcotest.(check bool) "events chronological" true
    (let rec mono = function
       | a :: b :: r ->
           a.Core.Jit_manager.at_seconds <= b.Core.Jit_manager.at_seconds
           && mono (b :: r)
       | _ -> true
     in
     mono t.Core.Jit_manager.events);
  Alcotest.(check bool) "specialization time matches report" true
    (abs_float
       (t.Core.Jit_manager.specialization_seconds
       -. (report.Core.Asip_sp.sum_seconds
          +. report.Core.Asip_sp.search_wall_seconds))
    < 1.0);
  Alcotest.(check bool) "reconfiguration in milliseconds" true
    (t.Core.Jit_manager.reconfiguration_seconds > 0.0
    && t.Core.Jit_manager.reconfiguration_seconds < 1.0);
  (match overtake t with
  | Some ot ->
      Alcotest.(check bool) "overtake after readiness" true
        (ot
        >= t.Core.Jit_manager.specialization_seconds
           +. t.Core.Jit_manager.reconfiguration_seconds -. 1e-6)
  | None -> Alcotest.fail "a >1.2x speedup must overtake");
  (* rendering works *)
  let s = Format.asprintf "%a" Core.Jit_manager.pp_timeline t in
  Alcotest.(check bool) "rendered" true (String.length s > 100)

let test_jit_manager_overtake_math () =
  (* with speedup s and readiness T, overtake satisfies
     spec + s (T* - T) = T* *)
  let _, _, report = specialize float_kernel_src 200 in
  let t = Core.Jit_manager.timeline report in
  match overtake t with
  | Some t_star ->
      let t_ready =
        t.Core.Jit_manager.specialization_seconds
        +. t.Core.Jit_manager.reconfiguration_seconds
      in
      let work_jit =
        t.Core.Jit_manager.specialization_seconds
        +. (t.Core.Jit_manager.speedup *. (t_star -. t_ready))
      in
      Alcotest.(check bool) "work parity at overtake" true
        (abs_float (work_jit -. t_star) /. t_star < 1e-6)
  | None -> Alcotest.fail "expected overtake"

let test_diagrams () =
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  let f1 = Core.Diagrams.figure1 () in
  List.iter
    (fun stage -> Alcotest.(check bool) stage true (contains f1 stage))
    [ "source code"; "bitcode (IR)"; "virtual machine"; "ASIP specialization" ];
  let f2 = Core.Diagrams.figure2 () in
  List.iter
    (fun step -> Alcotest.(check bool) step true (contains f2 step))
    [ "Candidate Search"; "Netlist Generation"; "Instruction Implementation";
      "MAXMISO"; "@50pS3L" ]

let test_spec_builders () =
  let spec =
    Core.Spec.default
    |> Core.Spec.with_cache (Jitise_util.Artifact.create ())
    |> Core.Spec.with_stage_cache (Jitise_util.Artifact.create ())
    |> Core.Spec.with_tracer (Jitise_util.Trace.create ())
  in
  Alcotest.(check bool) "cache set" true (spec.Core.Spec.cache <> None);
  Alcotest.(check bool) "stage cache set" true
    (spec.Core.Spec.stage_cache <> None);
  Alcotest.(check bool) "stage cache off by default" true
    (Core.Spec.default.Core.Spec.stage_cache = None);
  Alcotest.(check bool) "tracer set" true (spec.Core.Spec.tracer <> None);
  Alcotest.(check bool) "default has no cache" true
    (Core.Spec.default.Core.Spec.cache = None)

(* ------------------------------------------------------------------ *)
(* Fault injection and recovery                                        *)
(* ------------------------------------------------------------------ *)

module Cad = Jitise_cad
module U = Jitise_util

let float_kernel = lazy (
  let m = compile float_kernel_src in
  let out = run m 200 in
  (m, out))

(* Two structurally different hot loops: the selection contains two
   distinct data-path signatures, so a specialization deadline can fall
   between their builds. *)
let two_kernel_src =
  "double a[64]; double b[64]; double out[64]; double out2[64];\n\
   int main(int n) {\n\
  \  int i;\n\
  \  for (i = 0; i < 64; i = i + 1) { a[i] = i * 0.5 + 1.0; b[i] = i * 0.25 + 2.0; }\n\
  \  int t;\n\
  \  for (t = 0; t < n; t = t + 1) {\n\
  \    for (i = 0; i < 64; i = i + 1) {\n\
  \      out[i] = (a[i] * 1.5 + b[i] * 2.5) * (a[i] - b[i]) + out[i] * 0.5;\n\
  \    }\n\
  \    for (i = 0; i < 64; i = i + 1) {\n\
  \      out2[i] = a[i] * b[i] * 0.75 + (b[i] - a[i] * 0.125) + out2[i] * 0.25;\n\
  \    }\n\
  \  }\n\
  \  double s = 0.0;\n\
  \  for (i = 0; i < 64; i = i + 1) { s = s + out[i] + out2[i]; }\n\
  \  return s;\n\
   }"

let two_kernel = lazy (
  let m = compile two_kernel_src in
  let out = run m 200 in
  (m, out))

let faulted_report ?(kernel = float_kernel) ?(rates = fun c -> c)
    ?(retries = 3) ?deadline ~seed () =
  let m, out = Lazy.force kernel in
  let spec =
    Core.Spec.default
    |> Core.Spec.with_chaos
         (rates (U.Chaos.with_cad_defaults { U.Chaos.none with U.Chaos.seed }))
    |> Core.Spec.with_retry
         (U.Retry.default
         |> U.Retry.with_max_attempts retries
         |> U.Retry.with_specialization_deadline deadline)
  in
  Core.Asip_sp.run_spec ~spec db m out.Vm.Machine.profile
    ~total_cycles:out.Vm.Machine.native_cycles

let signature_of (s : Ise.Select.scored) =
  s.Ise.Select.candidate.Ise.Candidate.signature

(* Bounded deterministic seed scans: the fault model is a pure function
   of (seed, signature, ...), so these always land on the same seed. *)
let scan_seeds ~what p =
  let rec go seed =
    if seed > 80 then Alcotest.fail ("no seed produced " ^ what)
    else match p seed with Some x -> x | None -> go (seed + 1)
  in
  go 0

let test_faults_retry_then_success () =
  let r =
    scan_seeds ~what:"a retry-then-success" (fun seed ->
        let r = faulted_report ~seed () in
        if
          r.Core.Asip_sp.failed_attempts > 0 && r.Core.Asip_sp.dropped = []
        then Some r
        else None)
  in
  let recovered =
    List.filter
      (fun (c : Core.Asip_sp.candidate_result) ->
        c.Core.Asip_sp.failed_attempts > 0)
      r.Core.Asip_sp.candidates
  in
  Alcotest.(check bool) "a candidate recovered" true (recovered <> []);
  List.iter
    (fun (c : Core.Asip_sp.candidate_result) ->
      Alcotest.(check bool) "retries counted" true
        (c.Core.Asip_sp.attempts = c.Core.Asip_sp.failed_attempts + 1);
      Alcotest.(check bool) "failed attempts cost simulated time" true
        (c.Core.Asip_sp.wasted_seconds > 0.0))
    recovered;
  Alcotest.(check (float 1e-6)) "sum = const + map + par + wasted"
    r.Core.Asip_sp.sum_seconds
    (r.Core.Asip_sp.const_seconds +. r.Core.Asip_sp.map_seconds
    +. r.Core.Asip_sp.par_seconds +. r.Core.Asip_sp.wasted_seconds);
  Alcotest.(check bool) "report-level waste" true
    (r.Core.Asip_sp.wasted_seconds > 0.0)

let test_faults_deterministic () =
  let seed = 20110516 in
  let a = faulted_report ~seed () and b = faulted_report ~seed () in
  Alcotest.(check (float 0.0)) "same total" a.Core.Asip_sp.sum_seconds
    b.Core.Asip_sp.sum_seconds;
  Alcotest.(check int) "same attempts" a.Core.Asip_sp.total_attempts
    b.Core.Asip_sp.total_attempts;
  Alcotest.(check (float 0.0)) "same waste" a.Core.Asip_sp.wasted_seconds
    b.Core.Asip_sp.wasted_seconds

let test_faults_off_report_is_clean () =
  let m, out = Lazy.force float_kernel in
  let r =
    Core.Asip_sp.run_spec db m out.Vm.Machine.profile
      ~total_cycles:out.Vm.Machine.native_cycles
  in
  Alcotest.(check int) "no failures" 0 r.Core.Asip_sp.failed_attempts;
  Alcotest.(check (float 0.0)) "no waste" 0.0 r.Core.Asip_sp.wasted_seconds;
  Alcotest.(check bool) "nothing dropped" true (r.Core.Asip_sp.dropped = []);
  Alcotest.(check bool) "no deadline pressure" false
    r.Core.Asip_sp.deadline_exceeded

let test_faults_retries_exhausted_drops () =
  (* every stage crashes: no retry budget can save any slot *)
  let always c = { c with U.Chaos.cad_crash_rate = 1.0 } in
  let r = faulted_report ~rates:always ~retries:2 ~seed:0 () in
  Alcotest.(check bool) "nothing implemented" true
    (r.Core.Asip_sp.candidates = []);
  Alcotest.(check bool) "every slot dropped" true (r.Core.Asip_sp.dropped <> []);
  List.iter
    (fun (d : Core.Asip_sp.dropped) ->
      Alcotest.(check bool) "dropped for exhausted retries" true
        (d.Core.Asip_sp.drop_reason = Core.Asip_sp.Retries_exhausted);
      Alcotest.(check bool) "failure recorded" true
        (match d.Core.Asip_sp.drop_cause with
        | Some (Core.Asip_sp.Cad_failure _) -> true
        | _ -> false);
      Alcotest.(check bool) "waste recorded" true
        (d.Core.Asip_sp.drop_wasted_seconds > 0.0))
    r.Core.Asip_sp.dropped;
  Alcotest.(check bool) "software fallback has no hardware speedup" true
    (r.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio <= 1.0 +. 1e-9)

let test_faults_specialization_deadline () =
  (* find a fault-free seed, then give the whole specialization a budget
     that only covers the first bitstream *)
  let seed =
    scan_seeds ~what:"a fault-free run" (fun seed ->
        let r = faulted_report ~kernel:two_kernel ~seed () in
        if r.Core.Asip_sp.failed_attempts = 0 && r.Core.Asip_sp.dropped = []
        then Some seed
        else None)
  in
  let r =
    faulted_report ~kernel:two_kernel ~deadline:1.0 ~seed ()
  in
  Alcotest.(check bool) "deadline reported" true
    r.Core.Asip_sp.deadline_exceeded;
  Alcotest.(check bool) "some slots still made it (first build + hits)" true
    (r.Core.Asip_sp.candidates <> []);
  Alcotest.(check bool) "later slots dropped" true
    (r.Core.Asip_sp.dropped <> []);
  List.iter
    (fun (d : Core.Asip_sp.dropped) ->
      Alcotest.(check bool) "dropped by the deadline, not by a fault" true
        (d.Core.Asip_sp.drop_reason = Core.Asip_sp.Specialization_deadline
        && d.Core.Asip_sp.drop_cause = None))
    r.Core.Asip_sp.dropped;
  Alcotest.(check int) "slots partition the selection"
    (List.length r.Core.Asip_sp.selection)
    (List.length r.Core.Asip_sp.candidates
    + List.length r.Core.Asip_sp.dropped)

let test_spec_fault_builders () =
  let spec =
    Core.Spec.default
    |> Core.Spec.with_chaos
         (U.Chaos.with_cad_defaults { U.Chaos.none with U.Chaos.seed = 7 })
    |> Core.Spec.with_retry (U.Retry.with_max_attempts 5 U.Retry.default)
  in
  Alcotest.(check bool) "faults stored" true
    (U.Chaos.cad_on spec.Core.Spec.chaos);
  Alcotest.(check int) "retry stored" 5
    spec.Core.Spec.retry.U.Retry.max_attempts;
  Alcotest.(check bool) "default has faults off" false
    (U.Chaos.cad_on Core.Spec.default.Core.Spec.chaos);
  let invalid name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  invalid "bad fault rate rejected" (fun () ->
      Core.Spec.with_chaos
        { U.Chaos.none with U.Chaos.cad_crash_rate = 1.5 }
        Core.Spec.default);
  invalid "bad retry policy rejected" (fun () ->
      Core.Spec.with_retry
        { U.Retry.default with U.Retry.max_attempts = 0 }
        Core.Spec.default)

let test_timeline_jobs () =
  let _, _, report = specialize float_kernel_src 200 in
  let serial = Core.Jit_manager.timeline report in
  let j1 = Core.Jit_manager.timeline ~jobs:1 report in
  Alcotest.(check (float 1e-9)) "jobs:1 is the sequential schedule"
    serial.Core.Jit_manager.specialization_seconds
    j1.Core.Jit_manager.specialization_seconds;
  let j4 = Core.Jit_manager.timeline ~jobs:4 report in
  Alcotest.(check bool) "more lanes never slow the makespan" true
    (j4.Core.Jit_manager.specialization_seconds
    <= serial.Core.Jit_manager.specialization_seconds +. 1e-9);
  Alcotest.(check bool) "makespan covers the search phase" true
    (j4.Core.Jit_manager.specialization_seconds
    >= report.Core.Asip_sp.search_wall_seconds);
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Jit_manager.timeline: jobs must be >= 1 (got 0)")
    (fun () -> ignore (Core.Jit_manager.timeline ~jobs:0 report))

let test_timeline_faulted_events () =
  let r =
    scan_seeds ~what:"a retry-then-success" (fun seed ->
        let r = faulted_report ~seed () in
        if
          r.Core.Asip_sp.failed_attempts > 0 && r.Core.Asip_sp.dropped = []
        then Some r
        else None)
  in
  let t = Core.Jit_manager.timeline ~jobs:2 r in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "recovery surfaces in the timeline" true
    (List.exists
       (fun (e : Core.Jit_manager.event) ->
         contains e.Core.Jit_manager.what "recovered after")
       t.Core.Jit_manager.events);
  Alcotest.(check bool) "waste delays readiness" true
    (t.Core.Jit_manager.specialization_seconds
    > r.Core.Asip_sp.search_wall_seconds)

(* ------------------------------------------------------------------ *)
(* Online closed-loop controller                                       *)
(* ------------------------------------------------------------------ *)

module JM = Core.Jit_manager

(* No pruning for the online runs: the phase kernels must all reach the
   candidate stage or a phase shift has nothing to swap to. *)
let online_spec = Core.Spec.default |> Core.Spec.with_prune Ise.Prune.none

let online_sweep =
  lazy
    (let w = Option.get (W.Registry.find "phased.sweep") in
     (w, JM.online ~spec:online_spec db w))

let test_online_report_structure () =
  let _, r = Lazy.force online_sweep in
  Alcotest.(check string) "app" "phased.sweep" r.JM.o_app;
  Alcotest.(check bool) "windows observed" true (r.JM.o_windows > 0);
  Alcotest.(check bool) "ci groups found" true (r.JM.o_cis > 0);
  Alcotest.(check bool) "cad accounting" true
    (r.JM.o_cad_completed + r.JM.o_cad_cancelled <= r.JM.o_cad_launched);
  (* all three baselines are lanes of one execution of the adapted
     module, so they share its result *)
  let same a b =
    match (a, b) with
    | Some a, Some b -> Ir.Eval.equal_value a b
    | None, None -> true
    | _ -> false
  in
  Alcotest.(check bool) "same result in all three runs" true
    (same r.JM.o_adaptive.JM.run_ret r.JM.o_oracle.JM.run_ret
    && same r.JM.o_adaptive.JM.run_ret r.JM.o_nospec.JM.run_ret);
  (* the no-specialization baseline never touches the fabric *)
  Alcotest.(check int) "nospec reconfigures nothing" 0
    r.JM.o_nospec.JM.run_reconfigurations;
  Alcotest.(check (float 0.0)) "nospec never stalls" 0.0
    r.JM.o_nospec.JM.run_stall_cycles;
  Alcotest.(check bool) "events chronological" true
    (let rec mono = function
       | a :: b :: rest -> a.JM.at_seconds <= b.JM.at_seconds && mono (b :: rest)
       | _ -> true
     in
     mono r.JM.o_events)

let test_online_adaptive_pays_off () =
  let _, r = Lazy.force online_sweep in
  Alcotest.(check bool) "adaptive beats the static oracle" true
    (r.JM.o_adaptive.JM.run_cycles < r.JM.o_oracle.JM.run_cycles);
  Alcotest.(check bool) "adaptive beats no specialization" true
    (r.JM.o_adaptive.JM.run_cycles < r.JM.o_nospec.JM.run_cycles);
  Alcotest.(check bool) "the controller actually adapted" true
    (r.JM.o_adaptive.JM.run_swaps > 0
    && r.JM.o_adaptive.JM.run_reconfigurations > 0)

let test_online_engine_differential () =
  (* the monitored, hot-swapped loop is engine- and knob-invariant: the
     monitor sees the same block ids, the swap cells charge the same
     cycles, and spliced CI bodies compute what [ci_eval] computes.
     [base] runs the threaded engine under the default tuning. *)
  let w, base = Lazy.force online_sweep in
  let render r = Format.asprintf "%a" JM.pp_online r in
  let runs r = [ r.JM.o_adaptive; r.JM.o_oracle; r.JM.o_nospec ] in
  let d = Vm.Machine.default_tuning in
  List.iter
    (fun (what, spec) ->
      let r = JM.online ~spec db w in
      Alcotest.(check string) (what ^ ": report") (render base) (render r);
      Alcotest.(check bool) (what ^ ": runs") true (runs base = runs r))
    [
      ("reference", Core.Spec.with_vm_engine Vm.Machine.Reference online_spec);
      ( "no ci_native",
        Core.Spec.with_vm_tuning
          { d with Vm.Machine.ci_native = false }
          online_spec );
      ( "no regalloc",
        Core.Spec.with_vm_tuning
          { d with Vm.Machine.regalloc = false }
          online_spec );
    ]

let test_online_knobs_do_not_touch_the_sweep () =
  (* loop-off guarantee: the [online] record is consulted only by the
     online controller, so no setting of it may perturb the batch
     pipeline's reports or the timeline rendering *)
  let m, out = Lazy.force float_kernel in
  let base =
    Core.Asip_sp.run_spec db m out.Vm.Machine.profile
      ~total_cycles:out.Vm.Machine.native_cycles
  in
  let tweaked_spec =
    Core.Spec.with_online
      {
        Core.Spec.default_online with
        Core.Spec.slots = 7;
        Core.Spec.window = 64;
        Core.Spec.evict = Jitise_woolcano.Asip.Beneficial;
      }
      Core.Spec.default
  in
  let tweaked =
    Core.Asip_sp.run_spec ~spec:tweaked_spec db m out.Vm.Machine.profile
      ~total_cycles:out.Vm.Machine.native_cycles
  in
  (* compare the simulated-time quantities: host-measured search wall
     time is the only run-to-run variation allowed *)
  Alcotest.(check (float 0.0)) "same overhead" base.Core.Asip_sp.sum_seconds
    tweaked.Core.Asip_sp.sum_seconds;
  Alcotest.(check (list string)) "same selection"
    (List.map signature_of base.Core.Asip_sp.selection)
    (List.map signature_of tweaked.Core.Asip_sp.selection);
  Alcotest.(check (float 0.0)) "same speedup"
    base.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio
    tweaked.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio;
  let sim_timeline r =
    let t = JM.timeline r in
    (t.JM.reconfiguration_seconds, List.length t.JM.events)
  in
  Alcotest.(check bool) "same simulated timeline shape" true
    (sim_timeline base = sim_timeline tweaked)

let test_online_spec_validation () =
  Alcotest.check_raises "slots must be >= 1"
    (Invalid_argument "Spec.with_online: slots must be >= 1 (got 0)")
    (fun () ->
      ignore
        (Core.Spec.with_online
           { Core.Spec.default_online with Core.Spec.slots = 0 }
           Core.Spec.default));
  Alcotest.check_raises "decay must stay below 1"
    (Invalid_argument "Spec.with_online: decay must be in [0, 1) (got 1)")
    (fun () ->
      ignore
        (Core.Spec.with_online
           { Core.Spec.default_online with Core.Spec.decay = 1.0 }
           Core.Spec.default))

let test_online_dataset_checks () =
  let w = Option.get (W.Registry.find "phased.blend") in
  (* the dataset list is checked before any stage runs *)
  Alcotest.check_raises "no datasets"
    (Invalid_argument "Jit_manager.online: workload has no datasets")
    (fun () ->
      ignore (JM.online ~spec:online_spec db { w with W.Workload.datasets = [] }));
  (* the train dataset alone is enough: it is profiled, then looped on *)
  let train = List.hd w.W.Workload.datasets in
  let r =
    JM.online ~spec:online_spec db { w with W.Workload.datasets = [ train ] }
  in
  Alcotest.(check string) "loop runs on the only dataset"
    train.W.Workload.label r.JM.o_dataset;
  Alcotest.(check bool) "windows observed" true (r.JM.o_windows > 0)

let test_specialize_matches_evaluate () =
  (* the train-only entry decides exactly what the batch pipeline
     decides: same selection, slots and drops, bit-identical costs *)
  let bits x = Printf.sprintf "%h" x in
  let speedup (s : Ise.Speedup.t) = bits s.Ise.Speedup.ratio in
  List.iter
    (fun (name, spec) ->
      let w = Option.get (W.Registry.find name) in
      let full = (Core.Experiment.evaluate ~spec db w).Core.Experiment.report in
      let _, train = Core.Experiment.specialize ~spec db w in
      let check what ok = Alcotest.(check bool) (name ^ ": " ^ what) true ok in
      check "selection"
        (full.Core.Asip_sp.selection = train.Core.Asip_sp.selection);
      check "candidates"
        (full.Core.Asip_sp.candidates = train.Core.Asip_sp.candidates);
      check "dropped" (full.Core.Asip_sp.dropped = train.Core.Asip_sp.dropped);
      Alcotest.(check string) (name ^ ": sum_seconds")
        (bits full.Core.Asip_sp.sum_seconds)
        (bits train.Core.Asip_sp.sum_seconds);
      Alcotest.(check string) (name ^ ": asip_ratio")
        (speedup full.Core.Asip_sp.asip_ratio)
        (speedup train.Core.Asip_sp.asip_ratio))
    [
      ("phased.blend", online_spec);
      ("phased.sweep", online_spec);
      ("phased.flash", online_spec);
      ("sor", Core.Spec.default);
      ("fft", Core.Spec.default);
    ]

(* ------------------------------------------------------------------ *)
(* Profile stage: concurrent dataset runs                              *)
(* ------------------------------------------------------------------ *)

let test_profile_stage_matches_serial () =
  (* the stage runs its datasets concurrently; its artifact bytes are
     those of a serial loop over [Workload.run], under both engines *)
  List.iter
    (fun (name, engine) ->
      let w = Option.get (W.Registry.find name) in
      let spec = Core.Spec.default |> Core.Spec.with_vm_engine engine in
      let p = Core.Experiment.prepare ~spec db w in
      let compiled = W.Workload.compile w in
      let serial =
        List.map
          (fun d -> (d, W.Workload.run ~engine compiled d))
          w.W.Workload.datasets
      in
      let bytes = Jitise_util.Binio.encode Core.Codecs.profile_outcomes in
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s): profile_outcomes bytes" name
           (Vm.Machine.engine_name engine))
        true
        (bytes p.Core.Experiment.pre_outcomes = bytes serial))
    [
      ("sor", Vm.Machine.Threaded);
      ("fft", Vm.Machine.Threaded);
      ("adpcm", Vm.Machine.Threaded);
      ("sor", Vm.Machine.Reference);
      ("fft", Vm.Machine.Reference);
      ("adpcm", Vm.Machine.Reference);
    ]

(* The train dataset divides by zero after a long loop; the large one
   reads far out of bounds almost at once, so in a concurrent run the
   large fault is usually raised first. *)
let two_faults_src =
  "int zero; int cells[16];\n\
   int main(int n) {\n\
  \  int i; int acc = 0;\n\
  \  for (i = 0; i < n; i = i + 1) { acc = acc + (i & 7); }\n\
  \  if (n > 100) { return acc / zero; }\n\
  \  return cells[n * 100000000];\n\
   }"

let test_profile_stage_raises_train_fault () =
  let w =
    {
      W.Workload.name = "two-faults";
      domain = W.Workload.Embedded;
      sources = [ ("two_faults.c", two_faults_src) ];
      datasets =
        [ { W.Workload.label = "train"; n = 300_000 };
          { W.Workload.label = "large"; n = 7 } ];
      description = "train and large datasets fault differently";
    }
  in
  let compiled = W.Workload.compile w in
  let fault d =
    match W.Workload.run compiled d with
    | _ -> Alcotest.failf "dataset %s did not fault" d.W.Workload.label
    | exception Vm.Machine.Fault m -> m
  in
  let train_fault, large_fault =
    match List.map fault w.W.Workload.datasets with
    | [ t; l ] -> (t, l)
    | _ -> assert false
  in
  Alcotest.(check bool) "the two datasets fault differently" true
    (train_fault <> large_fault);
  List.iter
    (fun engine ->
      let spec = Core.Spec.default |> Core.Spec.with_vm_engine engine in
      Alcotest.check_raises
        (Vm.Machine.engine_name engine ^ ": the train dataset's fault")
        (Vm.Machine.Fault train_fault)
        (fun () -> ignore (Core.Experiment.prepare ~spec db w)))
    [ Vm.Machine.Threaded; Vm.Machine.Reference ]

let test_online_profiles_train_only () =
  (* the saving itself: one profile span (the train run), and none of
     the batch analyses online never reads *)
  let tracer = Jitise_util.Trace.create () in
  let w = Option.get (W.Registry.find "phased.blend") in
  ignore (JM.online ~spec:(Core.Spec.with_tracer tracer online_spec) db w);
  let spans stage =
    List.length
      (List.filter
         (fun (e : Jitise_util.Trace.event) ->
           List.hd (String.split_on_char ':' e.Jitise_util.Trace.name) = stage)
         (Jitise_util.Trace.events tracer))
  in
  Alcotest.(check int) "one profile span" 1 (spans "profile");
  Alcotest.(check int) "no coverage span" 0 (spans "coverage");
  Alcotest.(check int) "no kernel span" 0 (spans "kernel")

let () =
  Alcotest.run "core"
    [
      ( "adapt",
        [
          Alcotest.test_case "preserves results" `Quick test_adapt_preserves_results;
          Alcotest.test_case "speedup matches estimate" `Quick
            test_adapt_measured_speedup_matches_estimate;
          Alcotest.test_case "copies the module" `Quick test_adapt_module_is_a_copy;
          Alcotest.test_case "sor workload" `Slow test_adapt_on_workload;
        ] );
      ( "asip-sp",
        [
          Alcotest.test_case "report invariants" `Quick test_asip_sp_report_invariants;
          Alcotest.test_case "run cache dedup" `Quick
            test_asip_sp_cache_dedups_unrolled_copies;
          Alcotest.test_case "no pruning" `Quick test_asip_sp_no_pruning;
          Alcotest.test_case "candidate costs" `Quick test_candidate_costs_export;
          Alcotest.test_case "spec builders" `Quick test_spec_builders;
        ] );
      ( "faults",
        [
          Alcotest.test_case "retry then success" `Quick
            test_faults_retry_then_success;
          Alcotest.test_case "deterministic" `Quick test_faults_deterministic;
          Alcotest.test_case "faults off is clean" `Quick
            test_faults_off_report_is_clean;
          Alcotest.test_case "retries exhausted drops" `Quick
            test_faults_retries_exhausted_drops;
          Alcotest.test_case "specialization deadline" `Quick
            test_faults_specialization_deadline;
          Alcotest.test_case "spec fault builders" `Quick
            test_spec_fault_builders;
          Alcotest.test_case "timeline jobs" `Quick test_timeline_jobs;
          Alcotest.test_case "timeline faulted events" `Quick
            test_timeline_faulted_events;
        ] );
      ( "experiment-tables",
        [
          Alcotest.test_case "experiment structure" `Slow test_experiment_structure;
          Alcotest.test_case "table rows" `Slow test_table_rows;
          Alcotest.test_case "table renderers" `Slow test_table_renderers;
          Alcotest.test_case "table3 statistics" `Slow test_table3_statistics;
          Alcotest.test_case "table4 monotone" `Slow test_table4_monotone;
          Alcotest.test_case "diagrams" `Quick test_diagrams;
          Alcotest.test_case "jit manager timeline" `Quick
            test_jit_manager_timeline;
          Alcotest.test_case "jit manager overtake" `Quick
            test_jit_manager_overtake_math;
        ] );
      ( "online",
        [
          Alcotest.test_case "report structure" `Slow
            test_online_report_structure;
          Alcotest.test_case "adaptive pays off" `Slow
            test_online_adaptive_pays_off;
          Alcotest.test_case "engine and knob differential" `Slow
            test_online_engine_differential;
          Alcotest.test_case "loop off leaves the sweep alone" `Quick
            test_online_knobs_do_not_touch_the_sweep;
          Alcotest.test_case "spec validation" `Quick
            test_online_spec_validation;
          Alcotest.test_case "dataset checks" `Slow test_online_dataset_checks;
          Alcotest.test_case "specialize matches evaluate" `Slow
            test_specialize_matches_evaluate;
          Alcotest.test_case "profiles the train set only" `Slow
            test_online_profiles_train_only;
        ] );
      ( "profile-stage",
        [
          Alcotest.test_case "dataset runs equal a serial loop" `Slow
            test_profile_stage_matches_serial;
          Alcotest.test_case "raises the train dataset's fault" `Quick
            test_profile_stage_raises_train_fault;
        ] );
    ]
