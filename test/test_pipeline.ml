(* The staged pipeline engine: content-addressed artifact store wired
   through the whole Experiment/Asip_sp chain.

   The acceptance bar of the refactor, verified here:

   - golden: with a stage cache, reports are identical (up to the
     measured wall-clock fields) to the store-less engine — fault-free
     and faults-on, on pinned seeds;
   - incremental: a sweep that varies only the pruning filter
     re-executes ZERO compile/profile/coverage/kernel/reference-search
     stages — everything upstream of the changed knob is served from
     the store;
   - eviction-free determinism: re-evaluating against a warm store
     computes nothing and reproduces the same report. *)

module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Cad = Jitise_cad
module An = Jitise_analysis
module Core = Jitise_core
module U = Jitise_util

let find_workload name = Option.get (W.Registry.find name)

(* Two small embedded workloads that share a candidate signature, so
   the bitstream cache's cross-app path stays exercised alongside the
   stage cache. *)
let apps = [ "fft"; "sor" ]

let eval_apps ~spec db =
  List.map (fun n -> Core.Experiment.evaluate ~spec db (find_workload n)) apps

(* Same projection idea as test_integration: everything deterministic
   by construction, i.e. the report minus measured wall clocks and
   minus the stage-record log itself. *)
type candidate_projection = {
  p_signature : string;
  p_c2v : float;
  p_total : float;
  p_cache_hit : U.Artifact.hit option;
  p_attempts : int;
  p_wasted : float;
}

type app_projection = {
  p_app : string;
  p_selection : string list;
  p_candidates : candidate_projection list;
  p_dropped : int;
  p_const : float;
  p_map : float;
  p_par : float;
  p_sum : float;
  p_attempts_total : int;
  p_failed : int;
  p_ratio : float;
  p_ratio_max : float;
  p_break_even : An.Breakeven.result;
}

let project (r : Core.Experiment.app_result) : app_projection =
  let rep = r.Core.Experiment.report in
  let signature (s : Ise.Select.scored) =
    s.Ise.Select.candidate.Ise.Candidate.signature
  in
  {
    p_app = r.Core.Experiment.workload.W.Workload.name;
    p_selection = List.map signature rep.Core.Asip_sp.selection;
    p_candidates =
      List.map
        (fun (c : Core.Asip_sp.candidate_result) ->
          {
            p_signature = signature c.Core.Asip_sp.scored;
            p_c2v = c.Core.Asip_sp.c2v_seconds;
            p_total = c.Core.Asip_sp.total_seconds;
            p_cache_hit = c.Core.Asip_sp.cache_hit;
            p_attempts = c.Core.Asip_sp.attempts;
            p_wasted = c.Core.Asip_sp.wasted_seconds;
          })
        rep.Core.Asip_sp.candidates;
    p_dropped = List.length rep.Core.Asip_sp.dropped;
    p_const = rep.Core.Asip_sp.const_seconds;
    p_map = rep.Core.Asip_sp.map_seconds;
    p_par = rep.Core.Asip_sp.par_seconds;
    p_sum = rep.Core.Asip_sp.sum_seconds;
    p_attempts_total = rep.Core.Asip_sp.total_attempts;
    p_failed = rep.Core.Asip_sp.failed_attempts;
    p_ratio = rep.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio;
    p_ratio_max = rep.Core.Asip_sp.asip_ratio_max.Ise.Speedup.ratio;
    p_break_even = r.Core.Experiment.break_even;
  }

let check_identical what a b =
  List.iter2
    (fun x y ->
      let x = project x and y = project y in
      Alcotest.(check bool) (x.p_app ^ " " ^ what) true (x = y))
    a b

let records (r : Core.Experiment.app_result) =
  r.Core.Experiment.report.Core.Asip_sp.stage_records

(* CI pins a non-default seed via JITISE_CHAOS_SEED (same convention as
   test_integration); the assertions hold for any seed. *)
let fault_seed =
  match Sys.getenv_opt "JITISE_CHAOS_SEED" with
  | Some s -> int_of_string s
  | None -> 20110516

(* The CAD plane alone, at its default rates, under [fault_seed]. *)
let cad_faults =
  U.Chaos.with_cad_defaults { U.Chaos.none with U.Chaos.seed = fault_seed }

(* ------------------------------------------------------------------ *)
(* Golden: staged engine = store-less engine, two modes                *)
(* ------------------------------------------------------------------ *)

let test_golden_serial () =
  let db = Pp.Database.create () in
  let plain = eval_apps ~spec:Core.Spec.default db in
  let store = U.Artifact.create () in
  let spec = Core.Spec.with_stage_cache store Core.Spec.default in
  let staged = eval_apps ~spec db in
  check_identical "report identical with stage cache (serial)" plain staged;
  (* Eviction-free determinism: a warm store recomputes nothing and
     changes nothing. *)
  let again = eval_apps ~spec db in
  check_identical "report identical against a warm store" staged again;
  List.iter
    (fun r ->
      List.iter
        (fun (stage, computed) ->
          Alcotest.(check int)
            ((project r).p_app ^ ": warm " ^ stage ^ " computes nothing")
            0 computed)
        (Fixtures.computed_by_stage (records r)))
    again

let test_golden_faults () =
  let faulted spec =
    spec
    |> Core.Spec.with_chaos cad_faults
    |> Core.Spec.with_retry
         (U.Retry.with_max_attempts 3 U.Retry.default)
  in
  let db = Pp.Database.create () in
  let plain = eval_apps ~spec:(faulted Core.Spec.default) db in
  let serial_spec =
    faulted
      (Core.Spec.with_stage_cache (U.Artifact.create ()) Core.Spec.default)
  in
  let staged = eval_apps ~spec:serial_spec db in
  check_identical "faulted report identical with stage cache" plain staged

(* ------------------------------------------------------------------ *)
(* Golden: the disk backend changes nothing but persistence            *)
(* ------------------------------------------------------------------ *)

let tmp_root () =
  let path = Filename.temp_file "jitise-pipeline-store" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun name ->
        let p = Filename.concat dir name in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_root f =
  let root = tmp_root () in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

let total_computed rs =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc (_, computed) -> acc + computed)
        acc
        (Fixtures.computed_by_stage (records r)))
    0 rs

let test_golden_disk_serial () =
  with_root (fun root ->
      let db = Pp.Database.create () in
      let plain = eval_apps ~spec:Core.Spec.default db in
      let cold = eval_apps ~spec:(Core.Spec.with_store_dir root Core.Spec.default) db in
      check_identical "report identical with disk store (cold)" plain cold;
      (* The warm-restart contract: a NEW spec over the same root is a
         fresh process as far as the store is concerned — every hit
         crosses the serialization boundary — and must recompute ZERO
         stages while reproducing the report. *)
      let warm = eval_apps ~spec:(Core.Spec.with_store_dir root Core.Spec.default) db in
      check_identical "report identical after warm restart" cold warm;
      Alcotest.(check int) "warm restart computes nothing" 0
        (total_computed warm))

let test_golden_disk_faults () =
  with_root (fun root ->
      let faulted spec =
        spec
        |> Core.Spec.with_chaos cad_faults
        |> Core.Spec.with_retry (U.Retry.with_max_attempts 3 U.Retry.default)
      in
      let db = Pp.Database.create () in
      let plain = eval_apps ~spec:(faulted Core.Spec.default) db in
      let spec () = faulted (Core.Spec.with_store_dir root Core.Spec.default) in
      let cold = eval_apps ~spec:(spec ()) db in
      check_identical "faulted report identical with disk store" plain cold;
      let warm = eval_apps ~spec:(spec ()) db in
      check_identical "faulted report identical after warm restart" plain warm;
      Alcotest.(check int) "faulted warm restart computes nothing" 0
        (total_computed warm))

(* The profile stage drops each run's memory image, which its codec
   does not store: the outcomes a cold run computes and the ones a warm
   restart decodes encode to the same bytes, and neither carries an
   image. *)
let test_disk_outcomes_cold_equal_warm () =
  with_root (fun root ->
      let db = Pp.Database.create () in
      let spec () = Core.Spec.with_store_dir root Core.Spec.default in
      let w = find_workload "sor" in
      let cold = Core.Experiment.evaluate ~spec:(spec ()) db w in
      let warm = Core.Experiment.evaluate ~spec:(spec ()) db w in
      Alcotest.(check int) "warm restart computes nothing" 0
        (total_computed [ warm ]);
      let bytes (r : Core.Experiment.app_result) =
        U.Binio.encode Core.Codecs.profile_outcomes r.Core.Experiment.outcomes
      in
      Alcotest.(check string) "outcome bytes" (bytes cold) (bytes warm);
      List.iter
        (fun (what, (r : Core.Experiment.app_result)) ->
          List.iter
            (fun ((d : W.Workload.dataset), (o : Vm.Machine.outcome)) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %s: no memory image" what
                   d.W.Workload.label)
                true
                (Option.is_none o.Vm.Machine.memory))
            r.Core.Experiment.outcomes)
        [ ("cold", cold); ("warm", warm) ])

(* Corrupt and truncate store files under a warm root: the affected
   stages silently recompute, the report does not change, and the
   defective entries are the only extra computes. *)
let test_disk_corruption_degrades_to_recompute () =
  with_root (fun root ->
      let db = Pp.Database.create () in
      let spec () = Core.Spec.with_store_dir root Core.Spec.default in
      let cold = eval_apps ~spec:(spec ()) db in
      (* Damage every entry of two stages, differently. *)
      let damage stage f =
        let dir = Filename.concat root stage in
        Array.iter (fun name -> f (Filename.concat dir name)) (Sys.readdir dir)
      in
      damage "compile" (fun path ->
          let len = (Unix.stat path).Unix.st_size in
          Unix.truncate path (len / 3));
      damage "coverage" (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc "JTSEgarbage that is no envelope"));
      let warm = eval_apps ~spec:(spec ()) db in
      check_identical "report identical despite corrupt entries" cold warm;
      List.iter
        (fun r ->
          let app = (project r).p_app in
          List.iter
            (fun stage ->
              Alcotest.(check int)
                (Printf.sprintf "%s recomputes damaged %s" app stage)
                1
                (Fixtures.computed_of (records r) stage))
            [ "compile"; "coverage" ];
          List.iter
            (fun stage ->
              Alcotest.(check int)
                (Printf.sprintf "%s still hits intact %s" app stage)
                0
                (Fixtures.computed_of (records r) stage))
            [ "profile"; "kernel"; "prune"; "maxmiso"; "select" ])
        warm;
      (* The recomputed artifacts do not replace the damaged files (first
         put wins only for *valid* entries — the byte layer sees the
         corrupt file as present), so a THIRD run must behave like the
         second: recompute the damaged stages, hit everything else,
         report unchanged. *)
      let third = eval_apps ~spec:(spec ()) db in
      check_identical "third run still identical" cold third)

(* ------------------------------------------------------------------ *)
(* Incremental recomputation                                           *)
(* ------------------------------------------------------------------ *)

(* The headline acceptance criterion: across the points of the CLI's
   pruning-filter sweep ([jitise ablation]), the stages upstream of
   pruning are never re-executed — every one is a stage-cache hit,
   while the pruning stage itself recomputes at every point.  Serial,
   so the hit/miss counters are exact. *)
let prune_variants =
  List.map Ise.Prune.of_name [ "@25pS1L"; "@50pS3L"; "@75pS5L"; "@90pS8L" ]
  @ [ Ise.Prune.none ]

let test_prune_sweep_zero_recompute () =
  let db = Pp.Database.create () in
  let store = U.Artifact.create () in
  let upstream =
    [ "compile"; "profile"; "coverage"; "kernel"; "search-reference" ]
  in
  let runs =
    List.map
      (fun prune ->
        let spec =
          Core.Spec.default
          |> Core.Spec.with_prune prune
          |> Core.Spec.with_stage_cache store
        in
        eval_apps ~spec db)
      prune_variants
  in
  (* Sweep point 1 computes everything... *)
  List.iter
    (fun r ->
      List.iter
        (fun stage ->
          Alcotest.(check int)
            ((project r).p_app ^ " point 1 computes " ^ stage)
            1
            (Fixtures.computed_of (records r) stage))
        upstream)
    (List.hd runs);
  (* ...and every later point re-executes ZERO upstream stages. *)
  List.iteri
    (fun i point ->
      List.iter
        (fun r ->
          let app = (project r).p_app in
          let recs = records r in
          List.iter
            (fun stage ->
              Alcotest.(check int)
                (Printf.sprintf "%s point %d recomputes no %s" app (i + 2)
                   stage)
                0
                (Fixtures.computed_of recs stage);
              Alcotest.(check int)
                (Printf.sprintf "%s point %d hits %s" app (i + 2) stage)
                1
                (Fixtures.hits_of recs stage))
            upstream;
          (* The changed knob is pruning itself: it DOES recompute. *)
          Alcotest.(check int)
            (Printf.sprintf "%s point %d recomputes prune" app (i + 2))
            1
            (Fixtures.computed_of recs "prune"))
        point)
    (List.tl runs);
  (* The store agrees: one computation per app for each upstream stage
     over the whole sweep, the rest hits. *)
  let stats = U.Artifact.stats store in
  let by name =
    List.find (fun s -> s.U.Artifact.stage = name) stats.U.Artifact.by_stage
  in
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (stage ^ " computed once per app over the sweep")
        (List.length apps)
        (by stage).U.Artifact.computed;
      Alcotest.(check int)
        (stage ^ " hit on every later point")
        (List.length apps * (List.length prune_variants - 1))
        (by stage).U.Artifact.local_hits)
    upstream

(* ------------------------------------------------------------------ *)
(* Stage records as a consumable surface                               *)
(* ------------------------------------------------------------------ *)

let test_stage_records_cover_the_chain () =
  let db = Pp.Database.create () in
  let r =
    Core.Experiment.evaluate ~spec:Core.Spec.default db (find_workload "sor")
  in
  let stages =
    List.sort_uniq compare
      (List.map (fun x -> x.Core.Pipeline.rec_stage) (records r))
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("records include " ^ s) true (List.mem s stages))
    [ "compile"; "profile"; "coverage"; "kernel"; "search-reference";
      "prune"; "maxmiso"; "select"; "vhdl"; "implement" ];
  (* Without a store everything is computed, and the implemented
     candidates each ran vhdl + implement. *)
  let ncand =
    List.length r.Core.Experiment.report.Core.Asip_sp.selection
  in
  Alcotest.(check int) "one vhdl execution per selected candidate" ncand
    (Fixtures.computed_of (records r) "vhdl");
  Alcotest.(check int) "no hits without a store" 0
    (List.length (records r)
    - List.fold_left
        (fun acc (_, computed) -> acc + computed)
        0
        (Fixtures.computed_by_stage (records r)));
  (* The timeline surfaces the per-stage search events. *)
  let t = Core.Jit_manager.timeline r.Core.Experiment.report in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        ("timeline has a search-stage event for " ^ stage)
        true
        (List.exists
           (fun (e : Core.Jit_manager.event) ->
             contains e.Core.Jit_manager.what ("search stage " ^ stage))
           t.Core.Jit_manager.events))
    [ "prune"; "maxmiso"; "select" ]

(* The specialization deadline is spent in finalize, not in the CAD
   chain, so moving it must reuse every [implement] artifact. *)
let test_deadline_change_zero_recompute () =
  let db = Pp.Database.create () in
  let store = U.Artifact.create () in
  let spec deadline =
    Core.Spec.default
    |> Core.Spec.with_stage_cache store
    |> Core.Spec.with_chaos cad_faults
    |> Core.Spec.with_retry
         (U.Retry.default |> U.Retry.with_specialization_deadline deadline)
  in
  let cold = eval_apps ~spec:(spec None) db in
  let warm = eval_apps ~spec:(spec (Some 1_000_000.0)) db in
  check_identical "report identical under a non-binding deadline" cold warm;
  List.iter
    (fun r ->
      Alcotest.(check int)
        ((project r).p_app ^ " recomputes no implement stage")
        0
        (Fixtures.computed_of (records r) "implement"))
    warm

(* Only the CAD plane enters the [implement] digest: a warm run whose
   chaos config differs from the cold one in non-CAD fields alone reuses
   every CAD chain.  Every stage stalls (billed as waste, never killed);
   the store rates are set too, though only {!Core.Spec.with_store_dir}
   wires them into a backend, so they change the config and nothing
   else here. *)
let test_non_cad_chaos_zero_recompute () =
  let db = Pp.Database.create () in
  let store = U.Artifact.create () in
  let spec chaos =
    Core.Spec.default
    |> Core.Spec.with_stage_cache store
    |> Core.Spec.with_chaos chaos
  in
  ignore (eval_apps ~spec:(spec cad_faults) db);
  let stalled =
    {
      cad_faults with
      U.Chaos.stage_stall_rate = 1.0;
      stage_stall_seconds = 1.0;
      store_read_error_rate = 0.5;
      store_write_drop_rate = 0.5;
      store_torn_rate = 0.5;
    }
  in
  List.iter
    (fun r ->
      Alcotest.(check int)
        ((project r).p_app ^ " recomputes no implement stage")
        0
        (Fixtures.computed_of (records r) "implement"))
    (eval_apps ~spec:(spec stalled) db)

(* ... and changing one CAD rate does invalidate the chains. *)
let test_cad_rate_change_recomputes () =
  let db = Pp.Database.create () in
  let store = U.Artifact.create () in
  let spec chaos =
    Core.Spec.default
    |> Core.Spec.with_stage_cache store
    |> Core.Spec.with_chaos chaos
  in
  let implements rs =
    List.map (fun r -> Fixtures.computed_of (records r) "implement") rs
  in
  let cold = implements (eval_apps ~spec:(spec cad_faults) db) in
  Alcotest.(check bool) "the cold run implements candidates" true
    (List.for_all (fun n -> n > 0) cold);
  let harsher = { cad_faults with U.Chaos.cad_crash_rate = 0.05 } in
  Alcotest.(check (list int)) "every implement stage recomputed" cold
    (implements (eval_apps ~spec:(spec harsher) db))

(* ------------------------------------------------------------------ *)
(* Module digest: the content address of the search stages             *)
(* ------------------------------------------------------------------ *)

(* A module decoded from the store must digest like the one that was
   stored, or every warm run misses the stages keyed on it. *)
let test_digest_module_survives_the_store () =
  let codec = Core.Codecs.irmod in
  List.iter
    (fun w ->
      let m = (W.Workload.compile w).Jitise_frontend.Compiler.modul in
      let m' = Option.get (U.Binio.decode_opt codec (U.Binio.encode codec m)) in
      Alcotest.(check string)
        (w.W.Workload.name ^ " digest survives a round trip")
        (U.Digest.to_hex (Core.Pipeline.digest_module m))
        (U.Digest.to_hex (Core.Pipeline.digest_module m')))
    W.Registry.all

let test_digest_module_sees_one_constant () =
  let returning v =
    let open Jitise_ir in
    let f = Func.create ~name:"main" ~params:[] ~ret_ty:Ty.I32 in
    f.Func.blocks <-
      [|
        Block.create ~label:0 ~name:"entry"
          ~term:(Instr.Ret (Some (Instr.Const (Instr.Cint (v, Ty.I32)))));
      |];
    let m = Irmod.create ~name:"k" in
    Irmod.add_func m f;
    m
  in
  Alcotest.(check bool) "one constant apart, different digests" false
    (Core.Pipeline.digest_module (returning 1L)
    = Core.Pipeline.digest_module (returning 2L))

let () =
  Alcotest.run "pipeline-engine"
    [
      ( "golden",
        [
          Alcotest.test_case "serial" `Slow test_golden_serial;
          Alcotest.test_case "faults on" `Slow test_golden_faults;
        ] );
      ( "disk backend",
        [
          Alcotest.test_case "serial + warm restart" `Slow
            test_golden_disk_serial;
          Alcotest.test_case "faults + warm restart" `Slow
            test_golden_disk_faults;
          Alcotest.test_case "corruption degrades to recompute" `Slow
            test_disk_corruption_degrades_to_recompute;
          Alcotest.test_case "outcomes equal after warm restart" `Slow
            test_disk_outcomes_cold_equal_warm;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "prune sweep recomputes nothing upstream"
            `Slow test_prune_sweep_zero_recompute;
          Alcotest.test_case "deadline change recomputes no implement stage"
            `Slow test_deadline_change_zero_recompute;
          Alcotest.test_case "non-CAD chaos recomputes no implement stage"
            `Slow test_non_cad_chaos_zero_recompute;
          Alcotest.test_case "CAD rate change recomputes implement stages"
            `Slow test_cad_rate_change_recomputes;
        ] );
      ( "records",
        [
          Alcotest.test_case "cover the chain" `Slow
            test_stage_records_cover_the_chain;
        ] );
      ( "digest",
        [
          Alcotest.test_case "survives the store" `Quick
            test_digest_module_survives_the_store;
          Alcotest.test_case "sees one constant" `Quick
            test_digest_module_sees_one_constant;
        ] );
    ]
