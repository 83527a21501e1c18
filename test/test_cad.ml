(* Tests for Jitise_cad: the tool-flow simulator's calibration against
   the paper's Table III and Section V-C, and its determinism; plus the
   bitstream store its runs feed, exercised through Asip_sp.finalize. *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Hw = Jitise_hwgen
module Cad = Jitise_cad
module Core = Jitise_core
module W = Jitise_workloads
module U = Jitise_util

let db = Pp.Database.create ()

(* A corpus of candidates of varying sizes from several kernels. *)
let projects =
  lazy
    (let srcs =
       [
         "double g; int main(int n) { double x = n * 1.0; g = x * 2.5 + 1.5; return 0; }";
         "double g; int main(int n) { double x = n * 1.0; g = (x * 2.5 + 1.5) * (x - 0.5) + x / 3.0; return 0; }";
         "int g; int main(int n) { g = ((n * 19 + 7) ^ (n >> 3)) * (n + 11); return 0; }";
         "double g; int main(int n) { double x = n * 1.0; double y = x * 0.5; g = (x / y + y / x) * (x + y) - (x - y) / (x * y + 1.0); return 0; }";
       ]
     in
     List.concat_map
       (fun src ->
         let m = (F.Compiler.compile_string ~name:"t" src).F.Compiler.modul in
         List.filter_map
           (fun (c : Ise.Candidate.t) ->
             let f = Option.get (Ir.Irmod.find_func m c.Ise.Candidate.func) in
             let dfg = Ir.Dfg.of_block f (Ir.Func.block f c.Ise.Candidate.block) in
             Some (Hw.Project.create db dfg c))
           (Fixtures.maxmisos m))
       srcs)

(* The flow with the CAD plane off, which never fails. *)
let implement ?tracer p =
  match Cad.Flow.implement_result ?tracer db p with
  | Ok run -> run
  | Error f ->
      Alcotest.failf "faultless flow failed at %s"
        (Cad.Flow.stage_name f.Cad.Flow.failed_stage)

let test_flow_runs_all_stages () =
  let p = List.hd (Lazy.force projects) in
  let run = implement p in
  let stages = List.map (fun s -> s.Cad.Flow.stage) run.Cad.Flow.stages in
  List.iter
    (fun st ->
      Alcotest.(check bool)
        (Cad.Flow.stage_name st ^ " present")
        true (List.mem st stages))
    [ Cad.Flow.Check_syntax; Cad.Flow.Synthesis; Cad.Flow.Translate;
      Cad.Flow.Map; Cad.Flow.Place_and_route; Cad.Flow.Bitgen ];
  Alcotest.(check bool) "total is the sum" true
    (abs_float
       (run.Cad.Flow.total_seconds
       -. List.fold_left (fun a s -> a +. s.Cad.Flow.seconds) 0.0 run.Cad.Flow.stages)
    < 1e-9)

let test_flow_constants_match_table3 () =
  let runs = List.map implement (Lazy.force projects) in
  let mean get =
    Jitise_util.Stats.mean (List.map get runs)
  in
  let syn = mean (fun r -> Cad.Flow.stage_seconds r Cad.Flow.Check_syntax) in
  let xst = mean (fun r -> Cad.Flow.stage_seconds r Cad.Flow.Synthesis) in
  let tra = mean (fun r -> Cad.Flow.stage_seconds r Cad.Flow.Translate) in
  let bitgen = mean (fun r -> Cad.Flow.stage_seconds r Cad.Flow.Bitgen) in
  Alcotest.(check bool) "syn ~ 4.22 s" true (abs_float (syn -. 4.22) < 0.5);
  Alcotest.(check bool) "xst ~ 10.60 s" true (abs_float (xst -. 10.60) < 1.0);
  Alcotest.(check bool) "tra ~ 8.99 s" true (abs_float (tra -. 8.99) < 2.0);
  Alcotest.(check bool) "bitgen ~ 151 s" true (abs_float (bitgen -. 151.0) < 6.0)

let test_flow_map_par_ranges () =
  List.iter
    (fun p ->
      let run = implement p in
      let map = Cad.Flow.stage_seconds run Cad.Flow.Map in
      let par = Cad.Flow.stage_seconds run Cad.Flow.Place_and_route in
      Alcotest.(check bool) "map in 30..456 s" true (map >= 30.0 && map <= 456.0);
      Alcotest.(check bool) "par in 40..728 s" true (par >= 40.0 && par <= 728.0);
      let ratio = par /. map in
      Alcotest.(check bool) "par/map in 1.2..2.6" true
        (ratio >= 1.2 && ratio <= 2.6))
    (Lazy.force projects)

let test_flow_bigger_candidates_take_longer () =
  let ps = Lazy.force projects in
  let area p = let l, _, _ = Hw.Project.area db p in l in
  let small = List.fold_left (fun a p -> if area p < area a then p else a) (List.hd ps) ps in
  let big = List.fold_left (fun a p -> if area p > area a then p else a) (List.hd ps) ps in
  if area big > 2 * area small then begin
    let rs = implement small and rb = implement big in
    Alcotest.(check bool) "bigger data path maps longer" true
      (Cad.Flow.stage_seconds rb Cad.Flow.Map
      > Cad.Flow.stage_seconds rs Cad.Flow.Map)
  end

let test_flow_deterministic () =
  let p = List.hd (Lazy.force projects) in
  let a = implement p and b = implement p in
  Alcotest.(check (float 1e-9)) "same total" a.Cad.Flow.total_seconds
    b.Cad.Flow.total_seconds

let test_flow_constant_seconds () =
  let p = List.hd (Lazy.force projects) in
  let run = implement p in
  let expected =
    Cad.Flow.stage_seconds run Cad.Flow.Check_syntax
    +. Cad.Flow.stage_seconds run Cad.Flow.Synthesis
    +. Cad.Flow.stage_seconds run Cad.Flow.Translate
    +. Cad.Flow.stage_seconds run Cad.Flow.Bitgen
  in
  Alcotest.(check (float 1e-9)) "const excludes map/par" expected
    (Cad.Flow.constant_seconds run)

let test_flow_bitgen_dominates_constants () =
  (* the paper: Bitgen is ~85 % of the constant overhead *)
  let p = List.hd (Lazy.force projects) in
  let run = implement p in
  let share =
    Cad.Flow.stage_seconds run Cad.Flow.Bitgen /. Cad.Flow.constant_seconds run
  in
  Alcotest.(check bool) "bitgen share in 80..90 %" true
    (share > 0.80 && share < 0.90)

let test_flow_c2v () =
  let p = List.hd (Lazy.force projects) in
  let c2v = Cad.Flow.c2v_seconds p in
  Alcotest.(check bool) "~3.22 s" true (abs_float (c2v -. 3.22) < 0.8)

let test_bitstream_properties () =
  List.iter
    (fun p ->
      let run = implement p in
      let b = run.Cad.Flow.bitstream in
      Alcotest.(check string) "keyed by signature" p.Hw.Project.name
        b.Cad.Bitstream.signature;
      Alcotest.(check bool) "has frames" true (b.Cad.Bitstream.frames > 0);
      Alcotest.(check int) "size = frames x frame bytes"
        (b.Cad.Bitstream.frames
        * Hw.Project.reconfig_frame_bytes)
        b.Cad.Bitstream.size_bytes)
    (Lazy.force projects)

let test_flow_syntax_error_raises () =
  let p = List.hd (Lazy.force projects) in
  let broken =
    { p with Hw.Project.vhdl = { p.Hw.Project.vhdl with Hw.Vhdl.source = "x" } }
  in
  Alcotest.(check bool) "syntax error raised" true
    (try
       ignore (implement broken);
       false
     with Cad.Flow.Syntax_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Flow tracing                                                        *)
(* ------------------------------------------------------------------ *)

let test_flow_tracer_spans () =
  (* one synthetic span per CAD stage, modelled durations *)
  let tracer = Jitise_util.Trace.create () in
  let p = List.hd (Lazy.force projects) in
  let run = implement ~tracer p in
  let spans = Jitise_util.Trace.events tracer in
  Alcotest.(check int) "one span per stage"
    (List.length run.Cad.Flow.stages)
    (List.length spans);
  List.iter
    (fun (s : Cad.Flow.stage_report) ->
      let name = "cad:" ^ Cad.Flow.stage_name s.Cad.Flow.stage in
      match
        List.find_opt (fun e -> e.Jitise_util.Trace.name = name) spans
      with
      | Some e ->
          Alcotest.(check (float 1e-9))
            (name ^ " carries the modelled duration")
            s.Cad.Flow.seconds e.Jitise_util.Trace.dur
      | None -> Alcotest.failf "no span named %s" name)
    run.Cad.Flow.stages

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* Every stage crashes: the very first attempt fails at Check_syntax. *)
let always_crash =
  { (U.Chaos.with_cad_defaults U.Chaos.none) with U.Chaos.cad_crash_rate = 1.0 }

let only_timing ~seed =
  {
    U.Chaos.none with
    U.Chaos.seed;
    cad_timing_rate = 1.0;
  }

let test_faults_disabled_is_noop () =
  let p = List.hd (Lazy.force projects) in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        ("no roll at " ^ stage) true
        (Cad.Faults.roll U.Chaos.none ~signature:"s" ~stage ~attempt:1
           ~relaxed:false ~complexity:1.0
        = None))
    [ "syn"; "xst"; "tra"; "map"; "par"; "bitgen" ];
  match Cad.Flow.implement_result db p with
  | Ok run ->
      Alcotest.(check (float 1e-9)) "same run as implement"
        (implement p).Cad.Flow.total_seconds run.Cad.Flow.total_seconds
  | Error _ -> Alcotest.fail "faults disabled must not fail"

let test_faults_roll_deterministic () =
  let c = U.Chaos.with_cad_defaults { U.Chaos.none with U.Chaos.seed = 42 } in
  let roll () =
    List.map
      (fun (stage, attempt) ->
        Cad.Faults.roll c ~signature:"ci_abc" ~stage ~attempt ~relaxed:false
          ~complexity:0.8)
      [ ("syn", 1); ("map", 1); ("par", 1); ("bitgen", 1); ("par", 2) ]
  in
  Alcotest.(check bool) "same tuple, same outcome" true (roll () = roll ());
  (* With defaults, a large population of signatures must show both
     outcomes: some failing rolls and mostly clean ones. *)
  let outcomes =
    List.init 400 (fun i ->
        Cad.Faults.roll c
          ~signature:(Printf.sprintf "ci_%d" i)
          ~stage:"par" ~attempt:1 ~relaxed:false ~complexity:0.8)
  in
  let failures = List.length (List.filter (( <> ) None) outcomes) in
  Alcotest.(check bool) "some failures injected" true (failures > 10);
  Alcotest.(check bool) "most runs clean" true (failures < 200)

let test_faults_relaxed_skips_timing () =
  (* Find a seed whose timing roll fails PAR, then check the relaxed
     resynthesis of the same attempt cannot fail that way. *)
  let seed =
    let rec find s =
      if s > 500 then Alcotest.fail "no timing failure in 500 seeds"
      else
        match
          Cad.Faults.roll (only_timing ~seed:s) ~signature:"ci_t" ~stage:"par"
            ~attempt:1 ~relaxed:false ~complexity:1.0
        with
        | Some Cad.Faults.Timing_failure -> s
        | _ -> find (s + 1)
    in
    find 0
  in
  Alcotest.(check bool) "relaxed attempt skips the timing roll" true
    (Cad.Faults.roll (only_timing ~seed) ~signature:"ci_t" ~stage:"par"
       ~attempt:1 ~relaxed:true ~complexity:1.0
    = None)

let test_validation_before_syntax_check () =
  (* Validation must run before the VHDL syntax check, for both the
     chaos configuration and the attempt number. *)
  let p = List.hd (Lazy.force projects) in
  let broken =
    { p with Hw.Project.vhdl = { p.Hw.Project.vhdl with Hw.Vhdl.source = "x" } }
  in
  let rejected ?(chaos = U.Chaos.none) ?(attempt = 1) () =
    try
      ignore (Cad.Flow.implement_result ~chaos ~attempt db broken);
      `No_error
    with
    | Invalid_argument _ -> `Invalid_argument
    | Cad.Flow.Syntax_error _ -> `Syntax_error
  in
  Alcotest.(check bool) "valid config reaches the syntax check" true
    (rejected () = `Syntax_error);
  Alcotest.(check bool) "bad CAD rate beats syntax error" true
    (rejected ~chaos:{ U.Chaos.none with U.Chaos.cad_crash_rate = 1.5 } ()
    = `Invalid_argument);
  Alcotest.(check bool) "attempt 0 beats syntax error" true
    (rejected ~attempt:0 () = `Invalid_argument)

let test_implement_result_failure () =
  let p = List.hd (Lazy.force projects) in
  match Cad.Flow.implement_result ~chaos:always_crash db p with
  | Ok _ -> Alcotest.fail "crash_rate 1.0 must fail"
  | Error f ->
      Alcotest.(check bool) "fails at the first stage" true
        (f.Cad.Flow.failed_stage = Cad.Flow.Check_syntax);
      Alcotest.(check bool) "tool crash" true
        (f.Cad.Flow.fault = Cad.Faults.Tool_crash);
      let clean = implement p in
      Alcotest.(check bool) "waste is positive and partial" true
        (f.Cad.Flow.wasted_seconds > 0.0
        && f.Cad.Flow.wasted_seconds < clean.Cad.Flow.total_seconds)

let test_relaxed_run_costs_more () =
  let p = List.hd (Lazy.force projects) in
  let plain = implement p in
  match Cad.Flow.implement_result ~relaxed:true db p with
  | Error _ -> Alcotest.fail "no faults, no failure"
  | Ok relaxed ->
      let s r stage = Cad.Flow.stage_seconds r stage in
      Alcotest.(check (float 1e-6)) "map costs 15 % extra"
        (1.15 *. s plain Cad.Flow.Map)
        (s relaxed Cad.Flow.Map);
      Alcotest.(check (float 1e-6)) "par costs 15 % extra"
        (1.15 *. s plain Cad.Flow.Place_and_route)
        (s relaxed Cad.Flow.Place_and_route);
      Alcotest.(check (float 1e-9)) "constants unchanged"
        (Cad.Flow.constant_seconds plain)
        (Cad.Flow.constant_seconds relaxed)

let test_bitstream_integrity () =
  let p = List.hd (Lazy.force projects) in
  let b = (implement p).Cad.Flow.bitstream in
  Alcotest.(check bool) "generated bitstreams are well-formed" true
    (Cad.Bitstream.well_formed b);
  Alcotest.(check bool) "corruption detected" false
    (Cad.Bitstream.well_formed (Cad.Bitstream.corrupt b))

(* ------------------------------------------------------------------ *)
(* Bitstream store (Section VI-A), exercised through Asip_sp.finalize  *)
(* ------------------------------------------------------------------ *)

(* fft and sor share a data path, so the shared store crosses an
   application boundary; finalized in this order. *)
let sweep_apps = [ "fft"; "sor"; "whetstone"; "adpcm" ]

let signature_of (s : Ise.Select.scored) =
  s.Ise.Select.candidate.Ise.Candidate.signature

(* A faulted sweep over [sweep_apps]: staged once, then finalized in
   order against [cache] (a fresh shared store, or run-local stores
   when [None]).  With one attempt per chain, the pinned fault seed
   leaves failed chains in the sweep.  Returns the staged values and
   the reports. *)
let faulted_sweep =
  let spec =
    Core.Spec.default
    |> Core.Spec.with_chaos
         (U.Chaos.with_cad_defaults { U.Chaos.none with U.Chaos.seed = 20110516 })
    |> Core.Spec.with_retry (U.Retry.with_max_attempts 1 U.Retry.default)
  in
  let prepared =
    lazy
      (List.map
         (fun n -> Core.Experiment.prepare ~spec db (Option.get (W.Registry.find n)))
         sweep_apps)
  in
  fun cache ->
    let spec =
      match cache with Some c -> Core.Spec.with_cache c spec | None -> spec
    in
    let prepared = Lazy.force prepared in
    ( List.map (fun p -> p.Core.Experiment.pre_staged) prepared,
      List.map
        (fun p ->
          let r = Core.Experiment.finish ~spec p in
          (r.Core.Experiment.workload.W.Workload.name, r.Core.Experiment.report))
        prepared )

(* Walk the reports in finalization order and check every hit against
   the app that first built its data path. *)
let check_attribution ~shared reports =
  let builder = Hashtbl.create 16 in
  List.iter
    (fun (app, (r : Core.Asip_sp.report)) ->
      if not shared then Hashtbl.reset builder;
      List.iter
        (fun (c : Core.Asip_sp.candidate_result) ->
          let signature = signature_of c.Core.Asip_sp.scored in
          match (c.Core.Asip_sp.cache_hit, Hashtbl.find_opt builder signature) with
          | None, None -> Hashtbl.replace builder signature app
          | None, Some b ->
              Alcotest.failf "%s rebuilt %s, already built by %s" app signature b
          | Some _, None ->
              Alcotest.failf "%s hit %s, which nobody built" app signature
          | Some hit, Some b ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %s attribution" app signature)
                (if b = app then "local" else "shared")
                (U.Artifact.hit_name hit))
        r.Core.Asip_sp.candidates)
    reports

let hit_totals reports =
  List.fold_left
    (fun (l, s) (_, r) ->
      let l', s' = Core.Asip_sp.cache_hit_counts r in
      (l + l', s + s'))
    (0, 0) reports

let test_cache_local_vs_shared () =
  let _, shared = faulted_sweep (Some (U.Artifact.create ())) in
  check_attribution ~shared:true shared;
  let local, cross = hit_totals shared in
  Alcotest.(check bool) "local hits within an app" true (local > 0);
  Alcotest.(check bool) "shared hits across apps" true (cross > 0);
  (* Without a shared store each run gets a fresh one: only local hits. *)
  let _, run_local = faulted_sweep None in
  check_attribution ~shared:false run_local;
  Alcotest.(check int) "no shared hits without a shared store" 0
    (snd (hit_totals run_local))

let test_cache_stats () =
  let store = U.Artifact.create () in
  let _, reports = faulted_sweep (Some store) in
  let built =
    List.fold_left
      (fun n (_, r) ->
        n
        + List.length
            (List.filter
               (fun (c : Core.Asip_sp.candidate_result) ->
                 c.Core.Asip_sp.cache_hit = None)
               r.Core.Asip_sp.candidates))
      0 reports
  in
  let st =
    List.find
      (fun (s : U.Artifact.stage_stats) -> s.U.Artifact.stage = "cad.bitstream")
      (U.Artifact.stats store).U.Artifact.by_stage
  in
  Alcotest.(check int) "one store entry per built candidate" built
    st.U.Artifact.entries;
  let local, shared = hit_totals reports in
  Alcotest.(check int) "store and reports agree on local hits" local
    st.U.Artifact.local_hits;
  Alcotest.(check int) "store and reports agree on shared hits" shared
    st.U.Artifact.shared_hits;
  let line =
    Format.asprintf "%a" Core.Asip_sp.pp_cache_summary (List.map snd reports)
  in
  let prefix =
    Printf.sprintf "%d bitstream(s), %d local + %d shared hit(s), " built local
      shared
  in
  Alcotest.(check string) "summary line counts" prefix
    (String.sub line 0 (min (String.length line) (String.length prefix)));
  Alcotest.(check bool) "summary line accounts bytes and saved CAD time" false
    (String.ends_with ~suffix:", 0 bytes, 0.0 s of CAD saved" line)

let test_cache_not_poisoned_by_failure () =
  let staged, reports = faulted_sweep (Some (U.Artifact.create ())) in
  let failed =
    List.concat_map
      (fun (st : Core.Asip_sp.staged) ->
        List.filter_map
          (function
            | Core.Asip_sp.Slot_ok sc -> (
                match sc.Core.Asip_sp.sc_chain.Core.Asip_sp.ch_result with
                | Error _ -> Some (signature_of sc.Core.Asip_sp.sc_scored)
                | Ok _ -> None)
            | Core.Asip_sp.Slot_failed _ -> None)
          st.Core.Asip_sp.stg_candidates)
      staged
  in
  Alcotest.(check bool) "the sweep has failed chains" true (failed <> []);
  List.iter
    (fun (app, (r : Core.Asip_sp.report)) ->
      List.iter
        (fun (c : Core.Asip_sp.candidate_result) ->
          let signature = signature_of c.Core.Asip_sp.scored in
          if c.Core.Asip_sp.cache_hit <> None && List.mem signature failed then
            Alcotest.failf "%s: failed data path %s served from the store" app
              signature)
        r.Core.Asip_sp.candidates)
    reports

let () =
  Alcotest.run "cad"
    [
      ( "flow",
        [
          Alcotest.test_case "all stages" `Quick test_flow_runs_all_stages;
          Alcotest.test_case "table III constants" `Quick
            test_flow_constants_match_table3;
          Alcotest.test_case "map/par ranges" `Quick test_flow_map_par_ranges;
          Alcotest.test_case "size scaling" `Quick
            test_flow_bigger_candidates_take_longer;
          Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
          Alcotest.test_case "constant seconds" `Quick test_flow_constant_seconds;
          Alcotest.test_case "bitgen dominates" `Quick
            test_flow_bitgen_dominates_constants;
          Alcotest.test_case "c2v" `Quick test_flow_c2v;
          Alcotest.test_case "bitstream" `Quick test_bitstream_properties;
          Alcotest.test_case "syntax error" `Quick test_flow_syntax_error_raises;
        ] );
      ( "cache",
        [
          Alcotest.test_case "local vs shared" `Quick test_cache_local_vs_shared;
          Alcotest.test_case "stats" `Quick test_cache_stats;
          Alcotest.test_case "tracer spans" `Quick test_flow_tracer_spans;
          Alcotest.test_case "never poisoned by failure" `Quick
            test_cache_not_poisoned_by_failure;
        ] );
      ( "faults",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_faults_disabled_is_noop;
          Alcotest.test_case "rolls deterministic" `Quick
            test_faults_roll_deterministic;
          Alcotest.test_case "relaxed skips timing" `Quick
            test_faults_relaxed_skips_timing;
          Alcotest.test_case "validation before syntax check" `Quick
            test_validation_before_syntax_check;
          Alcotest.test_case "implement_result failure" `Quick
            test_implement_result_failure;
          Alcotest.test_case "relaxed run costs more" `Quick
            test_relaxed_run_costs_more;
          Alcotest.test_case "bitstream integrity" `Quick
            test_bitstream_integrity;
        ] );
    ]
