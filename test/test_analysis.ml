(* Tests for Jitise_analysis: coverage classification, kernel size,
   break-even model, bitstream cache extrapolation. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module F = Jitise_frontend
module Ise = Jitise_ise
module An = Jitise_analysis
module W = Jitise_workloads
module Core = Jitise_core

let compile src = (F.Compiler.compile_string ~name:"t" src).F.Compiler.modul

let run m n =
  Vm.Machine.run m ~entry:"main" ~args:[ Ir.Eval.VInt (Int64.of_int n) ]

(* A program with all three coverage classes: a fixed-trip init loop
   (constant), an n-dependent loop (live), and a guarded branch that
   never runs (dead). *)
let coverage_src =
  "int tbl[16];\n\
   int never(int x) { return x * 99; }\n\
   int main(int n) {\n\
  \  int i;\n\
  \  int s = 0;\n\
  \  for (i = 0; i < 16; i = i + 1) { tbl[i] = i * 3; }\n\
  \  for (i = 0; i < n; i = i + 1) { s = s + tbl[i & 15]; }\n\
  \  if (s < -1000000) { s = never(s); }\n\
  \  return s;\n\
   }"

let profiles m = List.map (fun n -> (run m n).Vm.Machine.profile) [ 100; 200 ]

let classify () =
  let m = compile coverage_src in
  (m, An.Coverage.classify m (profiles m))

let test_coverage_classes () =
  let m, cov = classify () in
  ignore m;
  Alcotest.(check bool) "live code found" true (cov.An.Coverage.live_instrs > 0);
  Alcotest.(check bool) "const code found" true (cov.An.Coverage.const_instrs > 0);
  Alcotest.(check bool) "dead code found" true (cov.An.Coverage.dead_instrs > 0);
  let live, dead, const = An.Coverage.percentages cov in
  Alcotest.(check (float 1e-6)) "percentages sum to 100" 100.0
    (live +. dead +. const);
  (* the never() function is entirely dead *)
  let class_of = An.Coverage.index cov in
  Alcotest.(check bool) "never() is dead" true
    (class_of ~func:"never" ~label:0 = An.Coverage.Dead);
  Alcotest.(check bool) "unknown block is dead" true
    (class_of ~func:"nosuch" ~label:0 = An.Coverage.Dead);
  (* A block listed twice keeps its first classification. *)
  let first = List.hd cov.An.Coverage.blocks in
  let dup =
    {
      first with
      An.Coverage.classification =
        (if first.An.Coverage.classification = An.Coverage.Live then
           An.Coverage.Dead
         else An.Coverage.Live);
    }
  in
  let class_of =
    An.Coverage.index
      { cov with An.Coverage.blocks = cov.An.Coverage.blocks @ [ dup ] }
  in
  Alcotest.(check bool) "first entry wins" true
    (class_of ~func:first.An.Coverage.func ~label:first.An.Coverage.label
    = first.An.Coverage.classification)

let test_coverage_requires_two_profiles () =
  let m = compile coverage_src in
  let o = run m 50 in
  Alcotest.(check bool) "one profile rejected" true
    (try
       ignore (An.Coverage.classify m [ o.Vm.Machine.profile ]);
       false
     with Invalid_argument _ -> true)

(* Each block's class against its per-dataset counts, read from the
   profiles the classification was built from. *)
let test_coverage_live_blocks_vary () =
  let m, cov = classify () in
  let ps = profiles m in
  List.iter
    (fun (b : An.Coverage.block_class) ->
      let freqs =
        List.map
          (fun p ->
            Vm.Profile.count p ~func:b.An.Coverage.func ~label:b.An.Coverage.label)
          ps
      in
      let a = List.hd freqs and rest = List.tl freqs in
      match b.An.Coverage.classification with
      | An.Coverage.Live ->
          Alcotest.(check bool) "live varies" true
            (List.exists (fun c -> c <> a) rest)
      | An.Coverage.Constant ->
          Alcotest.(check bool) "const stable nonzero" true
            (a > 0L && List.for_all (fun c -> c = a) rest)
      | An.Coverage.Dead ->
          Alcotest.(check bool) "dead never runs" true
            (List.for_all (fun c -> c = 0L) freqs))
    cov.An.Coverage.blocks;
  List.iter
    (fun cls ->
      Alcotest.(check bool) "every class present" true
        (List.exists
           (fun (b : An.Coverage.block_class) -> b.An.Coverage.classification = cls)
           cov.An.Coverage.blocks))
    An.Coverage.[ Live; Constant; Dead ]

(* ------------------------------------------------------------------ *)
(* Kernel                                                              *)
(* ------------------------------------------------------------------ *)

let test_kernel_computation () =
  let m = compile coverage_src in
  let o = run m 10_000 in
  let k = An.Kernel.compute m o.Vm.Machine.profile in
  Alcotest.(check bool) "kernel covers >= 90% of time" true
    (k.An.Kernel.time_percent >= 90.0);
  Alcotest.(check bool) "kernel is a strict subset" true
    (k.An.Kernel.size_percent < 100.0);
  (* The kernel is the hottest-first run of blocks that reaches 90 % of
     the profiled cycles; its size is their static instructions over
     the program's. *)
  let costs = Vm.Profile.block_costs o.Vm.Machine.profile m in
  let total = List.fold_left (fun acc (_, c) -> Int64.add acc c) 0L costs in
  let target = Int64.of_float (0.9 *. Int64.to_float total) in
  let rec kernel covered = function
    | ((f, l), c) :: rest when covered < target ->
        let f = Option.get (Ir.Irmod.find_func m f) in
        Ir.Block.size (Ir.Func.block f l) + kernel (Int64.add covered c) rest
    | _ -> 0
  in
  Alcotest.(check bool) "size percent consistent" true
    (abs_float
       (k.An.Kernel.size_percent
       -. 100.0
          *. float_of_int (kernel 0L costs)
          /. float_of_int (Ir.Irmod.num_instrs m))
    < 1e-6)

(* ------------------------------------------------------------------ *)
(* Break-even                                                          *)
(* ------------------------------------------------------------------ *)

let split ~live_cycles ~const_cycles ~live_saved ~const_saved =
  { An.Breakeven.live_cycles; const_cycles; live_saved; const_saved }

let after = function
  | An.Breakeven.After s -> s
  | An.Breakeven.Never -> Alcotest.fail "expected finite break-even"

let test_breakeven_never () =
  let s = split ~live_cycles:1e6 ~const_cycles:1e5 ~live_saved:0.0 ~const_saved:0.0 in
  Alcotest.(check bool) "no savings, never" true
    (An.Breakeven.of_split s ~overhead_seconds:100.0 = An.Breakeven.Never);
  (* only one-time savings cannot amortize a larger overhead *)
  let s = split ~live_cycles:1e6 ~const_cycles:1e5 ~live_saved:0.0 ~const_saved:100.0 in
  Alcotest.(check bool) "const-only savings too small" true
    (An.Breakeven.of_split s ~overhead_seconds:100.0 = An.Breakeven.Never)

let test_breakeven_within_first_run () =
  let ct = Ir.Cost.cycle_time in
  (* the app saves 1e6 cycles per run; overhead worth 5e5 cycles *)
  let s = split ~live_cycles:2e6 ~const_cycles:0.0 ~live_saved:1e6 ~const_saved:0.0 in
  let t = after (An.Breakeven.of_split s ~overhead_seconds:(5e5 *. ct)) in
  (* half the run: (2e6 - 1e6)/2 cycles of adapted time *)
  Alcotest.(check (float 1e-9)) "half the adapted run" (5e5 *. ct) t

let test_breakeven_scaling_run () =
  let ct = Ir.Cost.cycle_time in
  (* needs x4 the baseline input: overhead = 4e6 saved cycles, run saves
     1e6 per baseline unit *)
  let s = split ~live_cycles:2e6 ~const_cycles:0.0 ~live_saved:1e6 ~const_saved:0.0 in
  let t = after (An.Breakeven.of_split s ~overhead_seconds:(4e6 *. ct)) in
  Alcotest.(check (float 1e-6)) "x4 scaled adapted time" (4.0 *. (2e6 -. 1e6) *. ct) t

let test_breakeven_monotone_in_overhead () =
  let s = split ~live_cycles:5e6 ~const_cycles:1e6 ~live_saved:2e6 ~const_saved:1e5 in
  let t1 = after (An.Breakeven.of_split s ~overhead_seconds:1.0) in
  let t2 = after (An.Breakeven.of_split s ~overhead_seconds:10.0) in
  Alcotest.(check bool) "more overhead, later break-even" true (t2 > t1)

let test_breakeven_const_savings_help () =
  let base = split ~live_cycles:5e6 ~const_cycles:1e6 ~live_saved:1e5 ~const_saved:0.0 in
  let boosted = { base with An.Breakeven.const_saved = 5e4 } in
  let t_base = after (An.Breakeven.of_split base ~overhead_seconds:10.0) in
  let t_boost = after (An.Breakeven.of_split boosted ~overhead_seconds:10.0) in
  Alcotest.(check bool) "one-time savings shorten break-even" true
    (t_boost < t_base)

let test_breakeven_split_costs () =
  let m = compile coverage_src in
  let o1 = run m 2000 and o2 = run m 4000 in
  let cov = An.Coverage.classify m [ o1.Vm.Machine.profile; o2.Vm.Machine.profile ] in
  let db = Jitise_pivpav.Database.create () in
  let cands = Fixtures.maxmisos m in
  let sel = Ise.Select.select db m o1.Vm.Machine.profile cands in
  let s = An.Breakeven.split_costs m o1.Vm.Machine.profile cov sel in
  Alcotest.(check bool) "live cycles dominate this program" true
    (s.An.Breakeven.live_cycles > s.An.Breakeven.const_cycles);
  Alcotest.(check bool) "savings split consistent" true
    (s.An.Breakeven.live_saved +. s.An.Breakeven.const_saved
    <= List.fold_left (fun a x -> a +. x.Ise.Select.saved_cycles) 0.0 sel +. 1e-9)

(* The linear-scan split that [split_costs] replaced: a [List.find_opt]
   per block, [Dead] when absent, summed in [block_costs] order and
   then selection order. *)
let naive_split m profile (cov : An.Coverage.t) sel =
  let class_of func label =
    match
      List.find_opt
        (fun (b : An.Coverage.block_class) ->
          b.An.Coverage.func = func && b.An.Coverage.label = label)
        cov.An.Coverage.blocks
    with
    | Some b -> b.An.Coverage.classification
    | None -> An.Coverage.Dead
  in
  let live = ref 0.0 and const = ref 0.0 in
  List.iter
    (fun ((f, l), cycles) ->
      match class_of f l with
      | An.Coverage.Live -> live := !live +. Int64.to_float cycles
      | An.Coverage.Constant -> const := !const +. Int64.to_float cycles
      | An.Coverage.Dead -> ())
    (Vm.Profile.block_costs profile m);
  let live_saved = ref 0.0 and const_saved = ref 0.0 in
  List.iter
    (fun (s : Ise.Select.scored) ->
      let c = s.Ise.Select.candidate in
      match class_of c.Ise.Candidate.func c.Ise.Candidate.block with
      | An.Coverage.Live -> live_saved := !live_saved +. s.Ise.Select.saved_cycles
      | An.Coverage.Constant ->
          const_saved := !const_saved +. s.Ise.Select.saved_cycles
      | An.Coverage.Dead -> ())
    sel;
  {
    An.Breakeven.live_cycles = !live;
    const_cycles = !const;
    live_saved = !live_saved;
    const_saved = !const_saved;
  }

(* Every registry app's own module, train profile, coverage and
   hardware candidates, as [Experiment.finish] passes them: the indexed
   split equals the naive one float for float, and is the split the
   experiment reports. *)
let test_breakeven_split_costs_reference () =
  let db = Jitise_pivpav.Database.create () in
  let hex (s : An.Breakeven.split) =
    Printf.sprintf "%h %h %h %h" s.An.Breakeven.live_cycles
      s.An.Breakeven.const_cycles s.An.Breakeven.live_saved
      s.An.Breakeven.const_saved
  in
  List.iter
    (fun w ->
      let r = Core.Experiment.evaluate db w in
      let m = r.Core.Experiment.compiled.F.Compiler.modul in
      let train = (Core.Experiment.train_outcome r).Vm.Machine.profile in
      let cov = r.Core.Experiment.coverage in
      let sel =
        List.map
          (fun (c : Core.Asip_sp.candidate_result) -> c.Core.Asip_sp.scored)
          r.Core.Experiment.report.Core.Asip_sp.candidates
      in
      let name = w.W.Workload.name in
      let indexed = An.Breakeven.split_costs m train cov sel in
      Alcotest.(check string) (name ^ " indexed = naive")
        (hex (naive_split m train cov sel))
        (hex indexed);
      Alcotest.(check string) (name ^ " reported split") (hex indexed)
        (hex r.Core.Experiment.split))
    W.Registry.all

(* Epsilon-aware comparisons: the boundary cases that used to fall to
   raw float equality. *)

let test_breakeven_epsilon_helpers () =
  Alcotest.(check bool) "equal is approx_le" true
    (An.Breakeven.approx_le 1.0 1.0);
  Alcotest.(check bool) "within one ulp-ish is approx_le" true
    (An.Breakeven.approx_le (0.1 +. 0.2) 0.3);
  Alcotest.(check bool) "clearly greater is not" false
    (An.Breakeven.approx_le 1.0001 1.0);
  Alcotest.(check bool) "approx_ge mirrors" true
    (An.Breakeven.approx_ge 0.3 (0.1 +. 0.2));
  (* relative scaling: a billion-cycle total tolerates a billion-scaled
     epsilon, not an absolute 1e-9 *)
  Alcotest.(check bool) "relative epsilon at large magnitudes" true
    (An.Breakeven.approx_le (1e12 +. 1e-3) 1e12);
  Alcotest.(check bool) "zero is not definitely positive" false
    (An.Breakeven.definitely_pos 0.0);
  Alcotest.(check bool) "sub-epsilon is not definitely positive" false
    (An.Breakeven.definitely_pos 1e-12);
  Alcotest.(check bool) "real value is definitely positive" true
    (An.Breakeven.definitely_pos 1e-3)

let test_breakeven_worthwhile_boundary () =
  Alcotest.(check bool) "foregone beyond overhead" true
    (An.Breakeven.worthwhile ~overhead_seconds:1.0 ~foregone_seconds:2.0);
  Alcotest.(check bool) "exact equality counts (ski rental)" true
    (An.Breakeven.worthwhile ~overhead_seconds:1.0 ~foregone_seconds:1.0);
  Alcotest.(check bool) "float-noise equality counts" true
    (An.Breakeven.worthwhile ~overhead_seconds:0.3
       ~foregone_seconds:(0.1 +. 0.2));
  Alcotest.(check bool) "below overhead is not worthwhile" false
    (An.Breakeven.worthwhile ~overhead_seconds:1.0 ~foregone_seconds:0.5);
  Alcotest.(check bool) "zero foregone never invests" false
    (An.Breakeven.worthwhile ~overhead_seconds:0.0 ~foregone_seconds:0.0)

let test_breakeven_of_split_boundary () =
  let ct = Ir.Cost.cycle_time in
  (* overhead exactly equal to one run's savings: the boundary must land
     in the within-first-run branch, not fall through to scale-out. *)
  let s =
    split ~live_cycles:2e6 ~const_cycles:0.0 ~live_saved:1e6 ~const_saved:0.0
  in
  let t = after (An.Breakeven.of_split s ~overhead_seconds:(1e6 *. ct)) in
  Alcotest.(check (float 1e-9)) "boundary amortizes within the run"
    (1e6 *. ct) t;
  (* infinitesimal savings are Never, not a near-infinite After *)
  let s =
    split ~live_cycles:2e6 ~const_cycles:0.0 ~live_saved:1e-12
      ~const_saved:0.0
  in
  Alcotest.(check bool) "sub-epsilon savings are Never" true
    (An.Breakeven.of_split s ~overhead_seconds:1.0 = An.Breakeven.Never)

(* ------------------------------------------------------------------ *)
(* Cache model                                                         *)
(* ------------------------------------------------------------------ *)

let costs =
  [
    { An.Cache_model.signature = "a"; generation_seconds = 100.0 };
    { An.Cache_model.signature = "b"; generation_seconds = 200.0 };
    { An.Cache_model.signature = "c"; generation_seconds = 300.0 };
    { An.Cache_model.signature = "d"; generation_seconds = 400.0 };
  ]

let test_cache_zero_rate_pays_everything () =
  Alcotest.(check (float 1e-6)) "no cache, full cost" 1000.0
    (An.Cache_model.residual_overhead ~hit_rate:0.0 ~cad_speedup:0.0 costs)

let test_cache_full_rate_pays_nothing () =
  (* 100 % hit rate rounds to all four unique bitstreams cached *)
  Alcotest.(check bool) "full cache nearly free" true
    (An.Cache_model.residual_overhead ~hit_rate:0.9999 ~cad_speedup:0.0 costs
    < 1e-6)

let test_cache_monotone () =
  let rates = [ 0.0; 0.25; 0.5; 0.75 ] in
  let overheads =
    List.map
      (fun h -> An.Cache_model.residual_overhead ~hit_rate:h ~cad_speedup:0.0 costs)
      rates
  in
  let rec non_increasing = function
    | a :: b :: r -> a >= b -. 1e-9 && non_increasing (b :: r)
    | _ -> true
  in
  Alcotest.(check bool) "monotone in hit rate" true (non_increasing overheads)

let test_cache_speedup_scales () =
  let full = An.Cache_model.residual_overhead ~hit_rate:0.0 ~cad_speedup:0.0 costs in
  let fast = An.Cache_model.residual_overhead ~hit_rate:0.0 ~cad_speedup:0.3 costs in
  Alcotest.(check (float 1e-6)) "linear CAD scaling" (0.7 *. full) fast

let test_cache_dedups_signatures () =
  let dup =
    costs
    @ [ { An.Cache_model.signature = "a"; generation_seconds = 100.0 } ]
  in
  Alcotest.(check (float 1e-6)) "duplicate signature is a natural hit" 1000.0
    (An.Cache_model.residual_overhead ~hit_rate:0.0 ~cad_speedup:0.0 dup)

let test_cache_validates_inputs () =
  Alcotest.(check bool) "bad hit rate" true
    (try
       ignore (An.Cache_model.residual_overhead ~hit_rate:1.5 ~cad_speedup:0.0 costs);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad speedup" true
    (try
       ignore (An.Cache_model.residual_overhead ~hit_rate:0.0 ~cad_speedup:1.0 costs);
       false
     with Invalid_argument _ -> true)

let test_cache_grid () =
  let s =
    split ~live_cycles:1e8 ~const_cycles:1e6 ~live_saved:5e7 ~const_saved:0.0
  in
  (* Table IV's corner cells, as Tables computes each cell: (0,0)
     worst, (0.9, 0.9) best *)
  let be hit_rate cad_speedup =
    let overhead_seconds =
      An.Cache_model.residual_overhead ~hit_rate ~cad_speedup costs
    in
    match An.Breakeven.of_split s ~overhead_seconds with
    | An.Breakeven.After t -> t
    | An.Breakeven.Never -> Alcotest.fail "cell never breaks even"
  in
  Alcotest.(check bool) "best corner beats worst" true (be 0.9 0.9 < be 0.0 0.0)

let () =
  Alcotest.run "analysis"
    [
      ( "coverage",
        [
          Alcotest.test_case "classes" `Quick test_coverage_classes;
          Alcotest.test_case "two profiles" `Quick test_coverage_requires_two_profiles;
          Alcotest.test_case "frequency patterns" `Quick test_coverage_live_blocks_vary;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "computation" `Quick test_kernel_computation;
        ] );
      ( "breakeven",
        [
          Alcotest.test_case "never" `Quick test_breakeven_never;
          Alcotest.test_case "within first run" `Quick test_breakeven_within_first_run;
          Alcotest.test_case "scaling run" `Quick test_breakeven_scaling_run;
          Alcotest.test_case "monotone" `Quick test_breakeven_monotone_in_overhead;
          Alcotest.test_case "const savings" `Quick test_breakeven_const_savings_help;
          Alcotest.test_case "split costs" `Quick test_breakeven_split_costs;
          Alcotest.test_case "split costs reference" `Slow
            test_breakeven_split_costs_reference;
          Alcotest.test_case "epsilon helpers" `Quick
            test_breakeven_epsilon_helpers;
          Alcotest.test_case "worthwhile boundary" `Quick
            test_breakeven_worthwhile_boundary;
          Alcotest.test_case "of_split boundary" `Quick
            test_breakeven_of_split_boundary;
        ] );
      ( "cache",
        [
          Alcotest.test_case "zero rate" `Quick test_cache_zero_rate_pays_everything;
          Alcotest.test_case "full rate" `Quick test_cache_full_rate_pays_nothing;
          Alcotest.test_case "monotone" `Quick test_cache_monotone;
          Alcotest.test_case "cad speedup" `Quick test_cache_speedup_scales;
          Alcotest.test_case "dedup" `Quick test_cache_dedups_signatures;
          Alcotest.test_case "validation" `Quick test_cache_validates_inputs;
          Alcotest.test_case "grid" `Quick test_cache_grid;
        ] );
    ]
