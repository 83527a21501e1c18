(* Supervised stage execution under the cross-layer chaos model.

   The robustness contract, verified end to end through
   Experiment/Asip_sp/Pipeline:

   - chaos off reproduces the chaos-free pipeline byte for byte (the
     supervisor with the default policy is a pass-through);
   - a chaotic run is deterministic: a warm replay over the same
     (possibly torn) store root changes nothing;
   - degradation is per-candidate: a poisoned fan-out slot drops that
     one candidate to software, flagged [Stage_failure] and
     waste-billed, while the sweep completes;
   - a poisoned sequential stage fails the run with
     [Supervisor.Stage_failed] after bounded retries — never a hang,
     never a silent wrong answer;
   - the campaign case checks all of this at once, over storm seeds,
     six workloads, CAD faults and a disk store. *)

module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Cad = Jitise_cad
module Core = Jitise_core
module U = Jitise_util

let find_workload name = Option.get (W.Registry.find name)
let db = Pp.Database.create ()

(* Everything deterministic a chaotic run decides — the report minus
   measured wall clocks and the stage-record log. *)
let project (r : Core.Experiment.app_result) =
  let rep = r.Core.Experiment.report in
  let signature (s : Ise.Select.scored) =
    s.Ise.Select.candidate.Ise.Candidate.signature
  in
  ( List.map signature rep.Core.Asip_sp.selection,
    List.map
      (fun (c : Core.Asip_sp.candidate_result) ->
        ( signature c.Core.Asip_sp.scored,
          c.Core.Asip_sp.total_seconds,
          c.Core.Asip_sp.attempts,
          c.Core.Asip_sp.failed_attempts,
          c.Core.Asip_sp.wasted_seconds ))
      rep.Core.Asip_sp.candidates,
    List.map
      (fun (d : Core.Asip_sp.dropped) ->
        ( signature d.Core.Asip_sp.drop_scored,
          Core.Asip_sp.drop_reason_name d.Core.Asip_sp.drop_reason,
          d.Core.Asip_sp.drop_attempts,
          d.Core.Asip_sp.drop_wasted_seconds,
          d.Core.Asip_sp.drop_at_index ))
      rep.Core.Asip_sp.dropped,
    ( rep.Core.Asip_sp.sum_seconds,
      rep.Core.Asip_sp.wasted_seconds,
      rep.Core.Asip_sp.total_attempts,
      rep.Core.Asip_sp.failed_attempts,
      rep.Core.Asip_sp.stage_failures,
      rep.Core.Asip_sp.deadline_exceeded ),
    ( rep.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio,
      rep.Core.Asip_sp.asip_ratio_max.Ise.Speedup.ratio ) )

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun name ->
        let p = Filename.concat dir name in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let tmp_root what =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "jitise-chaos-%s-%d" what (Unix.getpid ()))

let evaluate ?(chaos = U.Chaos.none) ?(policy = U.Supervisor.default_policy)
    ?root name =
  let spec =
    Core.Spec.default
    |> Core.Spec.with_supervisor policy
    |> Core.Spec.with_chaos chaos
  in
  (* after [with_chaos]: the disk backend takes the store planes *)
  let spec =
    match root with
    | Some dir -> Core.Spec.with_store_dir dir spec
    | None -> spec
  in
  Core.Experiment.evaluate ~spec db (find_workload name)

let deadline_policy =
  { U.Supervisor.default_policy with
    U.Supervisor.stage_deadline_seconds = Some 60.0 }

(* CI pins a non-default seed via JITISE_CHAOS_SEED; every assertion
   holds for any seed, except the campaign's pinned outcomes, which are
   checked for the default seed only. *)
let chaos_seed =
  match Sys.getenv_opt "JITISE_CHAOS_SEED" with
  | Some s -> int_of_string s
  | None -> 4207

let test_chaos_off_is_golden () =
  let plain = Core.Experiment.evaluate ~spec:Core.Spec.default db
      (find_workload "sor")
  in
  let supervised = evaluate "sor" in
  Alcotest.(check bool) "chaos-off run is byte-identical" true
    (project plain = project supervised)

let test_pool_crash_degrades_per_candidate () =
  (* Every fan-out worker crashes: each selected candidate degrades to
     software — flagged and billed — and the sweep still completes. *)
  let chaos =
    { U.Chaos.none with U.Chaos.seed = 1; pool_crash_rate = 1.0 }
  in
  let r = evaluate ~chaos "sor" in
  let rep = r.Core.Experiment.report in
  let n_sel = List.length rep.Core.Asip_sp.selection in
  Alcotest.(check bool) "candidates were selected" true (n_sel > 0);
  Alcotest.(check int) "no candidate reached hardware" 0
    (List.length rep.Core.Asip_sp.candidates);
  Alcotest.(check int) "every slot dropped" n_sel
    (List.length rep.Core.Asip_sp.dropped);
  Alcotest.(check int) "every drop flagged as a stage failure" n_sel
    rep.Core.Asip_sp.stage_failures;
  List.iter
    (fun (d : Core.Asip_sp.dropped) ->
      Alcotest.(check bool) "flagged" true
        (d.Core.Asip_sp.drop_reason = Core.Asip_sp.Stage_failure);
      Alcotest.(check bool) "no CAD failure attached" true
        (match d.Core.Asip_sp.drop_cause with
        | Some (Core.Asip_sp.Supervision_error _) -> true
        | _ -> false))
    rep.Core.Asip_sp.dropped;
  (* Nothing reached hardware, so nothing is sped up and the overhead
     is never recovered. *)
  Alcotest.(check (float 0.0)) "ASIP ratio of software only" 1.0
    rep.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio;
  Alcotest.(check bool) "no break-even" true
    (r.Core.Experiment.break_even = Jitise_analysis.Breakeven.Never)

let test_stage_crash_fails_run_after_retries () =
  (* Every stage execution crashes on every attempt: the first
     sequential stage exhausts its supervised attempts and the run
     fails loudly with Stage_failed — bounded, not hung. *)
  let chaos =
    { U.Chaos.none with U.Chaos.seed = 1; stage_crash_rate = 1.0 }
  in
  match evaluate ~chaos "sor" with
  | (_ : Core.Experiment.app_result) ->
      Alcotest.fail "expected Supervisor.Stage_failed"
  | exception U.Supervisor.Stage_failed f ->
      Alcotest.(check int) "all supervised attempts ran" 3
        f.U.Supervisor.f_attempts;
      (match f.U.Supervisor.f_error with
      | U.Supervisor.Crash _ -> ()
      | e ->
          Alcotest.failf "expected Crash, got %s" (U.Supervisor.error_name e));
      Alcotest.(check bool) "backoff waste accounted" true
        (f.U.Supervisor.f_wasted_seconds > 0.0)

let test_stage_stall_hits_deadline () =
  (* Every attempt stalls far past the per-stage deadline: each one is
     killed at the deadline and billed exactly the deadline. *)
  let chaos =
    { U.Chaos.none with
      U.Chaos.seed = 1;
      stage_stall_rate = 1.0;
      stage_stall_seconds = 1000.0 }
  in
  let policy =
    { U.Supervisor.default_policy with
      U.Supervisor.stage_deadline_seconds = Some 30.0 }
  in
  match evaluate ~chaos ~policy "sor" with
  | (_ : Core.Experiment.app_result) ->
      Alcotest.fail "expected Supervisor.Stage_failed"
  | exception U.Supervisor.Stage_failed f ->
      (match f.U.Supervisor.f_error with
      | U.Supervisor.Stage_deadline d ->
          Alcotest.(check (float 1e-9)) "killed at the deadline" 30.0 d
      | e ->
          Alcotest.failf "expected Stage_deadline, got %s"
            (U.Supervisor.error_name e));
      Alcotest.(check bool) "each kill billed the full deadline" true
        (f.U.Supervisor.f_wasted_seconds >= 90.0)

let test_chaotic_store_run_is_exact () =
  (* All store planes at once over a real disk root: reads error, writes
     drop, envelopes tear — the run must still produce exactly the
     store-less report (the store is an optimization, never an input),
     and a warm replay over the damaged root must agree too. *)
  let root = tmp_root "test" in
  rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let chaos =
    { U.Chaos.none with
      U.Chaos.seed = chaos_seed;
      store_read_error_rate = 0.4;
      store_write_drop_rate = 0.4;
      store_torn_rate = 0.4 }
  in
  let eval_store () = evaluate ~chaos ~root "fft" in
  let baseline = Core.Experiment.evaluate ~spec:Core.Spec.default db
      (find_workload "fft")
  in
  let cold = eval_store () in
  let warm = eval_store () in
  Alcotest.(check bool) "chaotic store changes nothing" true
    (project baseline = project cold);
  Alcotest.(check bool) "warm replay over the damaged root agrees" true
    (project cold = project warm)

let test_store_chaos_after_store_raises () =
  (* [with_store_dir] wires the store planes into the disk backend it
     builds; store faults set after it could never reach that backend,
     so [with_chaos] refuses them instead of dropping them. *)
  let root = tmp_root "order" in
  rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let stored = Core.Spec.with_store_dir root Core.Spec.default in
  let none = { U.Chaos.none with U.Chaos.seed = chaos_seed } in
  List.iter
    (fun (plane, chaos) ->
      Alcotest.(check bool) (plane ^ " after the store raises") true
        (try
           ignore (Core.Spec.with_chaos chaos stored);
           false
         with Invalid_argument _ -> true);
      let ordered =
        Core.Spec.default |> Core.Spec.with_chaos chaos
        |> Core.Spec.with_store_dir root
      in
      Alcotest.(check bool) (plane ^ " before the store is kept") true
        (ordered.Core.Spec.chaos = chaos))
    [
      ("read errors", { none with U.Chaos.store_read_error_rate = 0.1 });
      ("write drops", { none with U.Chaos.store_write_drop_rate = 0.1 });
      ("torn writes", { none with U.Chaos.store_torn_rate = 0.1 });
      ("latency", { none with U.Chaos.store_latency_rate = 0.1 });
    ];
  (* The other planes do not touch the backend. *)
  ignore (Core.Spec.with_chaos (U.Chaos.with_cad_defaults none) stored);
  ignore
    (Core.Spec.with_chaos { none with U.Chaos.stage_crash_rate = 0.1 } stored)

(* ------------------------------------------------------------------ *)
(* Chaos campaign                                                      *)
(* ------------------------------------------------------------------ *)

(* Storm fault mixes (every chaos plane plus CAD faults) over six
   registry workloads and a real disk store, one seed at a time.  Each
   seed must keep the supervision contract: every run completes, no
   corrupt artifact is accepted, every degradation is flagged and
   waste-billed, no temp file outlives the store's own sweep, and the
   seed replays byte-identically, cold vs warm against the same
   (possibly torn) store root.  Small-to-medium workloads keep the campaign tractable; together
   they exercise every pipeline stage and both fan-out shapes (few and
   many selected candidates). *)
let campaign_apps =
  [ "adpcm"; "sor"; "fft"; "183.equake"; "429.mcf"; "whetstone" ]

let check_invariants add_violation name outcome =
  let violate fmt = Printf.ksprintf add_violation fmt in
  match outcome with
  | Error (_ : U.Supervisor.failure) -> ()
  | Ok (r : Core.Experiment.app_result) ->
      let rep = r.Core.Experiment.report in
      let n_sel = List.length rep.Core.Asip_sp.selection in
      let n_cand = List.length rep.Core.Asip_sp.candidates in
      let n_drop = List.length rep.Core.Asip_sp.dropped in
      if n_cand + n_drop <> n_sel then
        violate "%s: %d candidates + %d dropped <> %d selected" name n_cand
          n_drop n_sel;
      List.iter
        (fun (c : Core.Asip_sp.candidate_result) ->
          let run = c.Core.Asip_sp.run in
          if not (Cad.Bitstream.well_formed run.Cad.Flow.bitstream) then
            violate "%s: accepted candidate %s has a corrupt bitstream" name
              c.Core.Asip_sp.scored.Ise.Select.candidate.Ise.Candidate
                .signature;
          if c.Core.Asip_sp.wasted_seconds < 0.0 then
            violate "%s: negative waste on a candidate" name)
        rep.Core.Asip_sp.candidates;
      List.iter
        (fun (d : Core.Asip_sp.dropped) ->
          if d.Core.Asip_sp.drop_wasted_seconds < 0.0 then
            violate "%s: negative waste on a drop" name;
          if
            d.Core.Asip_sp.drop_reason = Core.Asip_sp.Stage_failure
            &&
            match d.Core.Asip_sp.drop_cause with
            | Some (Core.Asip_sp.Supervision_error _) -> false
            | _ -> true
          then
            violate "%s: stage-failure drop carries no supervision error" name)
        rep.Core.Asip_sp.dropped;
      let flagged =
        List.length
          (List.filter
             (fun (d : Core.Asip_sp.dropped) ->
               d.Core.Asip_sp.drop_reason = Core.Asip_sp.Stage_failure)
             rep.Core.Asip_sp.dropped)
      in
      if flagged <> rep.Core.Asip_sp.stage_failures then
        violate "%s: stage_failures %d but %d flagged drops" name
          rep.Core.Asip_sp.stage_failures flagged

(* One seed of the campaign: its contract violations and a one-line
   summary of what the faults did to the cold run. *)
let campaign_seed seed =
  let chaos = U.Chaos.with_cad_defaults (Fixtures.storm ~seed) in
  let run ~root name =
    match evaluate ~chaos ~policy:deadline_policy ~root name with
    | r -> Ok r
    | exception U.Supervisor.Stage_failed f -> Error f
  in
  let root = tmp_root (Printf.sprintf "campaign-%d" seed) in
  let cleanup () = rm_rf root in
  cleanup ();
  Fun.protect ~finally:cleanup @@ fun () ->
  let cold = List.map (run ~root) campaign_apps in
  (* Warm replay over the same (possibly torn) store: corrupt entries
     must degrade to recomputation, never change the outcome. *)
  let warm = List.map (run ~root) campaign_apps in
  let violations = ref [] in
  let add_violation msg =
    violations := Printf.sprintf "seed %d: %s" seed msg :: !violations
  in
  let violate fmt = Printf.ksprintf add_violation fmt in
  let replay = function
    | Ok r -> Ok (project r)
    | Error (f : U.Supervisor.failure) ->
        Error
          ( f.U.Supervisor.f_site,
            U.Supervisor.error_name f.U.Supervisor.f_error,
            f.U.Supervisor.f_attempts,
            f.U.Supervisor.f_wasted_seconds )
  in
  List.iteri
    (fun j name ->
      let c = List.nth cold j in
      check_invariants add_violation name c;
      if replay c <> replay (List.nth warm j) then
        violate "%s: warm replay diverged from the cold run" name)
    campaign_apps;
  let orphans = List.length (Fixtures.store_tmp_files root) in
  if orphans <> 0 then
    violate "%d orphan temp files survived the store's own sweep" orphans;
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 cold in
  let report f = sum (function Ok r -> f r.Core.Experiment.report | Error _ -> 0) in
  let wasted =
    List.fold_left
      (fun acc -> function
        | Ok (r : Core.Experiment.app_result) ->
            acc +. r.Core.Experiment.report.Core.Asip_sp.wasted_seconds
        | Error (f : U.Supervisor.failure) -> acc +. f.U.Supervisor.f_wasted_seconds)
      0.0 cold
  in
  ( List.rev !violations,
    Printf.sprintf
      "seed %d: run_failures %d stage_failures %d dropped %d \
       failed_attempts %d wasted_seconds %.3f"
      seed
      (sum (function Error _ -> 1 | Ok _ -> 0))
      (report (fun rep -> rep.Core.Asip_sp.stage_failures))
      (report (fun rep -> List.length rep.Core.Asip_sp.dropped))
      (report (fun rep -> rep.Core.Asip_sp.failed_attempts))
      wasted )

let test_chaos_campaign () =
  let results = List.map campaign_seed (List.init 3 (fun i -> chaos_seed + i)) in
  Alcotest.(check (list string)) "no contract violations" []
    (List.concat_map fst results);
  (* Pinned outcomes for the default base seed, so a change in what the
     faults do fails a test instead of passing unnoticed. *)
  if chaos_seed = 4207 then
    Alcotest.(check (list string)) "per-seed fault outcomes"
      [
        "seed 4207: run_failures 0 stage_failures 0 dropped 1 \
         failed_attempts 7 wasted_seconds 5406.467";
        "seed 4208: run_failures 0 stage_failures 0 dropped 0 \
         failed_attempts 8 wasted_seconds 3999.668";
        "seed 4209: run_failures 0 stage_failures 0 dropped 0 \
         failed_attempts 5 wasted_seconds 3499.171";
      ]
      (List.map snd results)

let () =
  Alcotest.run "chaos"
    [
      ( "pipeline",
        [
          Alcotest.test_case "chaos off is golden" `Quick
            test_chaos_off_is_golden;
          Alcotest.test_case "pool crash degrades per candidate" `Quick
            test_pool_crash_degrades_per_candidate;
          Alcotest.test_case "stage crash fails the run" `Quick
            test_stage_crash_fails_run_after_retries;
          Alcotest.test_case "stage stall hits the deadline" `Quick
            test_stage_stall_hits_deadline;
          Alcotest.test_case "chaotic store is exact" `Quick
            test_chaotic_store_run_is_exact;
          Alcotest.test_case "store chaos after the store raises" `Quick
            test_store_chaos_after_store_raises;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "three storm seeds over six apps" `Slow
            test_chaos_campaign;
        ] );
    ]
