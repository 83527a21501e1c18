(* End-to-end specialization benchmark.

   One process measures one workload as a closed loop: a single caller
   runs the workload's units back to back, each unit a call into a
   public entry point ([Experiment.evaluate], [Experiment.sweep],
   [Jit_manager.online]) timed from outside.  A round runs every unit
   once, in an order drawn from [--seed], in a fresh child process of
   this executable, as a user's [jitise] process would; rounds repeat
   until [--seconds] is used up.  Outputs are checked against pinned
   digests (project.ml) and never depend on the seed.

   Modes (run.py forwards its arguments here):
     --workload W --seed N --seconds S --trace 0|1   measure one workload
     --verify                                        recompute golden digests
     --smoke                                         emit metric names fast
   Knobs, stamped into the output: --vm-engine threaded|reference and
   --vm-link/--vm-fuse/--vm-ci-native/--vm-regalloc 0|1 (leave-one-out
   runs); --chrome-trace FILE writes the traced round as a Chrome trace.
   README.md defines every metric. *)

module Core = Jitise_core
module U = Jitise_util
module W = Jitise_workloads
module Pp = Jitise_pivpav
module Vm = Jitise_vm
module Ise = Jitise_ise
module JM = Jitise_core.Jit_manager

let now = Unix.gettimeofday

type kind = Cold | Warm | Online

(* Why each workload exists is in README.md; in short: cold is where
   compile/VM/search work shows, warm bypasses the VM and stresses the
   store and codecs, and online is the only one that runs the
   closed-loop controller. *)
let workloads =
  [ ("sweep.cold", Cold); ("sweep.warm", Warm); ("online.phased", Online) ]

type config = {
  name : string;
  kind : kind;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  engine : Vm.Machine.engine;
  tuning : Vm.Machine.tuning;
  trace_file : string option;
}

let base_spec cfg =
  Core.Spec.default
  |> Core.Spec.with_vm_engine cfg.engine
  |> Core.Spec.with_vm_tuning cfg.tuning

let find name =
  match W.Registry.find name with Some w -> w | None -> failwith name

(* The smoke subset keeps a name check under 20 s. *)
let apps cfg =
  match (cfg.kind, cfg.smoke) with
  | Online, false -> W.Registry.phased
  | Online, true -> [ find "phased.sweep" ]
  | _, false -> W.Registry.all
  | _, true -> [ find "sor"; find "fft" ]

(* ------------------------------------------------------------------ *)
(* Scratch directories, inside the working directory                   *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let scratch_root = ".perfbench-tmp"

let scratch =
  lazy
    (let dir = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
     List.iter
       (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
       [ scratch_root; dir ];
     at_exit (fun () ->
         rm_rf dir;
         try Sys.rmdir scratch_root with Sys_error _ -> ());
     dir)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Lazy.force scratch) (string_of_int !n)

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

type output =
  | Apps of Core.Experiment.app_result list
  | Loops of JM.online_report list

let with_store ?tracer root spec =
  match tracer with
  | None -> Core.Spec.with_store_dir root spec
  | Some t ->
      let backend = Ledger.traced_backend t (U.Store_disk.backend ~root ()) in
      Core.Spec.with_stage_cache (U.Artifact.create ~backend ()) spec

(* Fill a fresh disk store with every app of the workload. *)
let fill cfg =
  let root = fresh_dir () in
  let spec = with_store root (base_spec cfg) in
  let db = Pp.Database.create () in
  List.iter (fun w -> ignore (Core.Experiment.evaluate ~spec db w)) (apps cfg);
  root

(* One round's units in registry order: a label and an untimed
   preparation returning the timed call and an untimed cleanup.  The
   traced round splits [evaluate] into its two public halves so the
   ledger can time [finish]. *)
let plan cfg ~warm_root ?tracer db =
  let spec =
    match tracer with
    | None -> base_spec cfg
    | Some t -> Core.Spec.with_tracer t (base_spec cfg)
  in
  let evaluate spec w =
    match tracer with
    | None -> Core.Experiment.evaluate ~spec db w
    | Some _ ->
        let p = Core.Experiment.prepare ~spec db w in
        U.Trace.span tracer ~cat:"bench" "finish" (fun () ->
            Core.Experiment.finish ~spec p)
  in
  let per_app f = List.map (fun w -> (w.W.Workload.name, f w)) (apps cfg) in
  match cfg.kind with
  | Cold ->
      per_app (fun w () ->
          let root = fresh_dir () in
          let spec = with_store ?tracer root spec in
          ((fun () -> Apps [ evaluate spec w ]), fun () -> rm_rf root))
  | Warm ->
      (* the round's process is new, so is its artifact front-end *)
      let spec = with_store ?tracer warm_root spec in
      per_app (fun w () -> ((fun () -> Apps [ evaluate spec w ]), ignore))
  | Online ->
      let spec = Core.Spec.with_prune Ise.Prune.none spec in
      per_app (fun w () -> ((fun () -> Loops [ JM.online ~spec db w ]), ignore))

let results outputs =
  List.concat_map (function Some (Apps rs) -> rs | _ -> []) outputs

let reports outputs =
  List.concat_map (function Some (Loops os) -> os | _ -> []) outputs

(* The round's projection, or why it cannot be trusted. *)
let projection cfg outputs =
  if List.mem None outputs then Error "a unit failed"
  else
    match cfg.kind with
    | Online -> Project.online (reports outputs)
    | Cold -> Ok (Project.sweep (results outputs))
    | Warm ->
        let recomputed =
          List.concat_map
            (fun (a : Core.Experiment.app_result) ->
              List.filter
                (fun (rc : Core.Pipeline.record) ->
                  rc.Core.Pipeline.rec_outcome = Core.Pipeline.Computed)
                a.Core.Experiment.report.Core.Asip_sp.stage_records)
            (results outputs)
        in
        if recomputed <> [] then
          Error
            (Printf.sprintf "warm pass recomputed %d stages"
               (List.length recomputed))
        else Ok (Project.sweep (results outputs))

(* ------------------------------------------------------------------ *)
(* One round                                                           *)
(* ------------------------------------------------------------------ *)

type sample = {
  label : string;
  secs : float;  (** raw *)
  calib : float;  (** mean kernel time just before and just after *)
  minor : float;  (** words allocated, all domains *)
  promoted : float;
  majors : float;
}

type round = {
  samples : sample list;  (** registry order *)
  failed : int;  (** units that raised *)
  digest : (string, string) result;  (** projection digest, or why there is none *)
  heap_words : int;  (** peak major heap of the round's process *)
}

let sum = U.Stats.sum
let median = U.Stats.median

(* Calibrated seconds: [raw * nominal / calibration]. *)
let calibrated ~calib raw = raw *. Calib.nominal_s /. calib

let csecs s = calibrated ~calib:s.calib s.secs

let gc_counts () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.promoted_words, float_of_int s.Gc.major_collections)

(* The median of [k] kernel runs after a full major GC. *)
let calibrate k =
  Gc.full_major ();
  median (List.init k (fun _ -> Calib.sample ()))

(* Every unit is preceded by a full major GC and a calibration sample,
   and one more sample closes the round; a unit is calibrated by the
   mean of the samples on either side of it, so the calibration tracks
   host speed during that unit.  A sample is the median of enough kernel
   runs that a round has about ten, so a round of few units is not
   calibrated by a few noisy runs.  The kernel's first run in a process
   pays for growing the heap, so it is discarded.  Units run in an order
   drawn from [prng], or in registry order without one. *)
let run_round cfg ~warm_root ?tracer prng =
  let db = Pp.Database.create () in
  let units = Array.of_list (List.mapi (fun i u -> (i, u)) (plan cfg ~warm_root ?tracer db)) in
  Option.iter (fun p -> U.Prng.shuffle p units) prng;
  let k = max 1 (10 / Array.length units) in
  ignore (calibrate 1);
  let measured =
    Array.map
      (fun (i, (label, prep)) ->
        let run, cleanup = prep () in
        let before = calibrate k in
        let m0, p0, j0 = gc_counts () in
        let t0 = now () in
        let out =
          match U.Trace.span tracer ~cat:"bench" ("unit:" ^ label) run with
          | o -> Some o
          | exception e ->
              Printf.eprintf "perfbench: %s: %s\n%!" label (Printexc.to_string e);
              None
        in
        let secs = now () -. t0 in
        let m1, p1, j1 = gc_counts () in
        cleanup ();
        let s =
          { label; secs; calib = 0.0; minor = m1 -. m0; promoted = p1 -. p0; majors = j1 -. j0 }
        in
        (i, before, s, out))
      units
  in
  let last = calibrate k in
  let n = Array.length measured in
  let ordered =
    Array.to_list
      (Array.mapi
         (fun j (i, before, s, out) ->
           let after =
             if j + 1 < n then (fun (_, b, _, _) -> b) measured.(j + 1) else last
           in
           (i, { s with calib = (before +. after) /. 2.0 }, out))
         measured)
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let samples = List.map (fun (_, s, _) -> s) ordered in
  let outputs = List.map (fun (_, _, o) -> o) ordered in
  ( {
      samples;
      failed = List.length (List.filter Option.is_none outputs);
      digest = Result.map Project.digest (projection cfg outputs);
      heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    },
    outputs )

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced round                                 *)
(* ------------------------------------------------------------------ *)

type metric = {
  m_name : string;
  m_unit : string;
  m_value : float;
  m_samples : float list;  (** per-round (or per-setup) values, for the spread *)
}

let metric m_name m_unit ?(samples = []) m_value =
  let m_value = if Float.is_finite m_value then m_value else 0.0 in
  { m_name; m_unit; m_value; m_samples = samples }

let geomean xs =
  match List.filter (fun x -> x > 0.0) xs with
  | [] -> 0.0
  | pos -> U.Stats.geomean pos

let calibs rounds = List.concat_map (fun r -> List.map (fun s -> s.calib) r.samples) rounds

(* From the traced round [tr], its outputs and its ledger [l].  A layer
   that does not run on a workload reports 0. *)
let layers cfg (tr : round) outputs (l : Ledger.t) ~fused =
  let k = Calib.nominal_s /. median (calibs [ tr ]) in
  let s x = k *. x in
  let compute stage = s (Option.value ~default:0.0 (List.assoc_opt stage l.Ledger.compute)) in
  let rs = results outputs and os = reports outputs in
  let instrs app =
    sum
      (List.concat_map
         (fun (a : Core.Experiment.app_result) ->
           if a.Core.Experiment.workload.W.Workload.name <> app then []
           else
             List.map
               (fun (_, (o : Vm.Machine.outcome)) ->
                 Int64.to_float o.Vm.Machine.profile.Vm.Profile.executed_instrs)
               a.Core.Experiment.outcomes)
         rs)
  in
  let profiled = l.Ledger.profile_by_app in
  let mips apps =
    let t = s (sum (List.filter_map (fun a -> List.assoc_opt a profiled) apps)) in
    if t > 0.0 then sum (List.map instrs apps) /. t /. 1e6 else 0.0
  in
  let count f xs = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 xs) in
  let reps (a : Core.Experiment.app_result) = a.Core.Experiment.report in
  let records = List.concat_map (fun a -> (reps a).Core.Asip_sp.stage_records) rs in
  let online = cfg.kind = Online in
  let ratio (o : JM.online_report) =
    o.JM.o_adaptive.JM.run_cycles /. o.JM.o_oracle.JM.run_cycles
  in
  let adaptive = List.map (fun o -> (o.JM.o_app, ratio o)) os in
  [
    metric "frontend.compile_s" "s" (compute "compile");
    metric "vm.profile_s" "s" (compute "profile");
    metric "vm.minstr_per_s" "Minstr/s" (mips (List.map fst profiled));
  ]
  @ List.map
      (fun app -> metric ("vm.minstr_per_s." ^ app) "Minstr/s" (mips [ app ]))
      W.Registry.names
  @ [
      metric "vm.fused_windows" "count" (float_of_int fused);
      metric "analysis.coverage_s" "s" (compute "coverage");
      metric "analysis.kernel_s" "s" (compute "kernel");
      metric "analysis.finish_s" "s" (s l.Ledger.finish_s);
      metric "ise.search_reference_s" "s" (compute "search-reference");
      metric "ise.prune_s" "s" (compute "prune");
      metric "ise.maxmiso_s" "s" (compute "maxmiso");
      metric "ise.select_s" "s" (compute "select");
      metric "ise.alternates_s" "s" (compute "alternates");
      metric "ise.candidates" "count"
        (count (fun a -> (reps a).Core.Asip_sp.all_candidates) rs);
      metric "ise.selected" "count"
        (count (fun a -> List.length (reps a).Core.Asip_sp.selection) rs);
      metric "hwgen.vhdl_s" "s" (compute "vhdl");
      metric "cad.implement_s" "s" (compute "implement");
      metric "cad.bitstream_hits" "count"
        (count
           (fun a ->
             List.length
               (List.filter
                  (fun (c : Core.Asip_sp.candidate_result) ->
                    c.Core.Asip_sp.cache_hit <> None)
                  (reps a).Core.Asip_sp.candidates))
           rs);
      metric "pipeline.stage_execs" "count" (float_of_int l.Ledger.stage_execs);
      metric "pipeline.hit_ratio" "ratio"
        (if records = [] then 0.0
         else
           count
             (fun (r : Core.Pipeline.record) ->
               match r.Core.Pipeline.rec_outcome with Core.Pipeline.Hit _ -> 1 | _ -> 0)
             records
           /. float_of_int (List.length records));
      metric "pipeline.unstaged_s" "s" (if online then 0.0 else s l.Ledger.unit_self_s);
      metric "store.gets" "count" (float_of_int l.Ledger.gets);
      metric "store.get_s" "s" (s l.Ledger.get_s);
      metric "store.get_mb" "MB" (float_of_int l.Ledger.get_bytes /. 1e6);
      metric "store.puts" "count" (float_of_int l.Ledger.puts);
      metric "store.put_s" "s" (s l.Ledger.put_s);
      metric "store.put_mb" "MB" (float_of_int l.Ledger.put_bytes /. 1e6);
      metric "store.decode_s" "s" (s l.Ledger.decode_s);
      metric "jit_manager.prepare_s" "s" (if online then s l.Ledger.stage_s else 0.0);
      metric "jit_manager.loop_s" "s"
        (if online then s l.Ledger.unit_self_s else 0.0);
      metric "jit_manager.cad_launched" "count"
        (count (fun o -> o.JM.o_cad_launched) os);
      metric "jit_manager.cad_cancelled" "count"
        (count (fun o -> o.JM.o_cad_cancelled) os);
    ]
  @ List.map
      (fun app ->
        metric ("jit_manager.adaptive_vs_oracle." ^ app) "ratio"
          (Option.value ~default:0.0 (List.assoc_opt app adaptive)))
      W.Registry.phased_names
  @ [
      metric "woolcano.reconfigurations" "count"
        (count (fun o -> o.JM.o_adaptive.JM.run_reconfigurations) os);
      metric "woolcano.evictions" "count"
        (count (fun o -> o.JM.o_adaptive.JM.run_evictions) os);
      metric "woolcano.stall_mcycles" "Mcycles"
        (sum (List.map (fun o -> o.JM.o_adaptive.JM.run_stall_cycles) os) /. 1e6);
      metric "model.asip_ratio_geomean" "ratio"
        (geomean
           (List.map (fun a -> (reps a).Core.Asip_sp.asip_ratio.Ise.Speedup.ratio) rs));
      metric "model.adaptive_vs_oracle_geomean" "ratio"
        (geomean (List.map snd adaptive));
    ]

(* ------------------------------------------------------------------ *)
(* Rounds in child processes                                           *)
(* ------------------------------------------------------------------ *)

(* What a round's process hands back; the parent is the same
   executable, so [Marshal] is safe. *)
type child = { round : round; layers : metric list }

let knob_args cfg =
  let b x = if x then "1" else "0" in
  let t = cfg.tuning in
  [
    "--vm-engine"; Vm.Machine.engine_name cfg.engine;
    "--vm-link"; b t.Vm.Machine.link; "--vm-fuse"; b t.Vm.Machine.fuse;
    "--vm-ci-native"; b t.Vm.Machine.ci_native; "--vm-regalloc";
    b t.Vm.Machine.regalloc;
  ]

(* [in_order] runs the units in registry order: the first round, whose
   heap peak must not depend on the seed. *)
let child_main cfg ~warm_root ~in_order =
  let tracer = if cfg.trace then Some (U.Trace.create ()) else None in
  Vm.Machine.reset_fusion_stats ();
  let prng = if in_order then None else Some (U.Prng.create ~seed:cfg.seed) in
  let round, outputs = run_round cfg ~warm_root ?tracer prng in
  let layers =
    match tracer with
    | None -> []
    | Some t ->
        Option.iter (U.Trace.write t) cfg.trace_file;
        let fused = List.fold_left (fun acc (_, n) -> acc + n) 0 (Vm.Machine.fusion_stats ()) in
        layers cfg round outputs (Ledger.of_events (U.Trace.events t)) ~fused
  in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout { round; layers } [];
  flush stdout

let spawn_round ?(in_order = false) cfg ~warm_root ~seed ~traced =
  let args =
    [ Sys.executable_name; "--round"; "--workload"; cfg.name; "--seed"; string_of_int seed;
      "--store"; warm_root; "--trace"; (if traced then "1" else "0") ]
    @ (if in_order then [ "--in-order" ] else [])
    @ (if cfg.smoke then [ "--smoke" ] else [])
    @ (match cfg.trace_file with Some f when traced -> [ "--chrome-trace"; f ] | _ -> [])
    @ knob_args cfg
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  set_binary_mode_in ic true;
  let c = try Some (Marshal.from_channel ic : child) with End_of_file | Failure _ -> None in
  match (Unix.close_process_in ic, c) with
  | Unix.WEXITED 0, Some c -> c
  | _ -> failwith (cfg.name ^ ": round process failed")

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

(* Every round must project identically; outside smoke mode the digest
   must also equal the pinned golden one. *)
let check cfg rounds =
  let digests = List.map (fun r -> r.digest) rounds in
  let golden = List.assoc cfg.name Project.golden in
  let verdict =
    match digests with
    | [] -> Error "no rounds"
    | Error e :: _ -> Error e
    | Ok d :: _ when List.exists (fun x -> x <> Ok d) digests ->
        Error "rounds disagree"
    | Ok d :: _ when (not cfg.smoke) && d <> golden ->
        Error (Printf.sprintf "digest %s <> golden %s" d golden)
    | Ok d :: _ -> Ok d
  in
  (match verdict with
  | Error e -> Printf.eprintf "perfbench: %s: incorrect output: %s\n%!" cfg.name e
  | Ok _ -> ());
  verdict

(* Per-unit median of [f] over rounds, in registry order. *)
let unit_medians f rounds =
  match rounds with
  | [] -> []
  | r :: _ ->
      List.mapi
        (fun i (s : sample) ->
          (s.label, median (List.map (fun r -> f (List.nth r.samples i)) rounds)))
        r.samples

type measured = {
  rounds : round list;  (** untraced *)
  setups : float list;  (** calibrated seconds *)
  heap_words : int;  (** peak of the first round's process (registry order) *)
}

let raw_pass m = sum (List.map snd (unit_medians (fun s -> s.secs) m.rounds))

let end_to_end m =
  let per_round f = List.map f m.rounds in
  let heap_mb = float_of_int (m.heap_words * (Sys.word_size / 8)) /. 1e6 in
  let alloc r = sum (List.map (fun s -> s.minor) r.samples) /. 1e6 in
  [
    metric "pass_s" "s"
      ~samples:(per_round (fun r -> sum (List.map csecs r.samples)))
      (sum (List.map snd (unit_medians csecs m.rounds)));
    metric "app_geomean_s" "s"
      ~samples:(per_round (fun r -> geomean (List.map csecs r.samples)))
      (geomean (List.map snd (unit_medians csecs m.rounds)));
    metric "setup_s" "s" ~samples:m.setups (median m.setups);
    metric "alloc_mwords" "Mwords" ~samples:(per_round alloc)
      (sum (List.map snd (unit_medians (fun s -> s.minor) m.rounds)) /. 1e6);
    metric "heap_peak_mb" "MB" ~samples:[ heap_mb ] heap_mb;
  ]

(* The per-layer set: the traced round's layers plus the harness. *)
let per_layer m (tr : child) =
  let gc f = sum (List.map snd (unit_medians f m.rounds)) in
  let traced_raw = sum (List.map (fun s -> s.secs) tr.round.samples) in
  tr.layers
  @ [
      metric "gc.major_collections" "count" (gc (fun s -> s.majors));
      metric "gc.promoted_mwords" "Mwords" (gc (fun s -> s.promoted) /. 1e6);
      metric "calib_s" "s" (median (calibs m.rounds));
      metric "raw.pass_s" "s" (raw_pass m);
      metric "trace.overhead_ratio" "ratio" ((traced_raw /. raw_pass m) -. 1.0);
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num x = Printf.sprintf "%.17g" x

let spread m =
  match m.m_samples with
  | [] -> (0, 0.0, 0.0, 0.0)
  | xs ->
      ( List.length xs,
        median xs,
        U.Stats.percentile 25.0 xs,
        U.Stats.percentile 75.0 xs )

(* A detail line (run metadata and each metric's spread), then the
   result line, on stdout; a table on stderr. *)
let report cfg m ~rounds ~verdict ms =
  let attempted = List.fold_left (fun acc r -> acc + List.length r.samples) 0 rounds in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 rounds in
  let t = cfg.tuning in
  Printf.eprintf "%-44s %-9s %4s %14s %14s %14s %14s\n" "metric" "unit" "n"
    "value" "median" "p25" "p75";
  let stats =
    List.map
      (fun (m : metric) ->
        let n, med, p25, p75 = spread m in
        Printf.eprintf "%-44s %-9s %4d %14.6g%s\n" m.m_name m.m_unit n m.m_value
          (if n = 0 then ""
           else Printf.sprintf " %14.6g %14.6g %14.6g" med p25 p75);
        Printf.sprintf "%S: {\"unit\": %S, \"n\": %d, \"median\": %s, \"p25\": %s, \"p75\": %s}"
          m.m_name m.m_unit n (num med) (num p25) (num p75))
      ms
  in
  Printf.printf
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
     \"rounds\": %d, \"meta\": {\"vm\": {\"engine\": %S, \"link\": %b, \
     \"fuse\": %b, \"ci_native\": %b, \"regalloc\": %b}, \"ocaml\": %S, \
     \"cores\": %d, \"calib_nominal_s\": %s, \"calib_s\": %s, \"raw_pass_s\": %s}, \
     \"digest\": %S, \"stats\": {%s}}\n"
    cfg.name cfg.seed (num cfg.seconds)
    (if cfg.trace then 1 else 0)
    (List.length rounds)
    (Vm.Machine.engine_name cfg.engine)
    t.Vm.Machine.link t.Vm.Machine.fuse t.Vm.Machine.ci_native
    t.Vm.Machine.regalloc Sys.ocaml_version
    (Domain.recommended_domain_count ())
    (num Calib.nominal_s) (num (median (calibs m.rounds))) (num (raw_pass m))
    (match verdict with Ok d -> d | Error e -> "error: " ^ e)
    (String.concat ", " stats);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (Result.is_ok verdict) attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (num m.m_value) m.m_unit)
          ms))

(* ------------------------------------------------------------------ *)
(* Driving one workload                                                *)
(* ------------------------------------------------------------------ *)

(* Set-up is what a restarted process pays before its first unit: the
   PivPav database and opening the workload's disk store (a fresh one
   for sweep.cold, the filled one for sweep.warm).  It is repeated and
   the median reported, so work moved into set-up shows without one slow
   repetition deciding it.  sweep.warm's store is filled once before
   that; the fill is a cold pass, which sweep.cold measures. *)
let setup cfg =
  let warm_root = if cfg.kind = Warm then fill cfg else "" in
  let rep () =
    let root =
      match cfg.kind with Cold -> Some (fresh_dir ()) | Warm -> Some warm_root | _ -> None
    in
    let before = calibrate 1 in
    let t0 = now () in
    ignore (Sys.opaque_identity (Pp.Database.create ()));
    Option.iter
      (fun root -> ignore (Sys.opaque_identity (Core.Spec.with_store_dir root (base_spec cfg))))
      root;
    let secs = now () -. t0 in
    let after = calibrate 1 in
    if cfg.kind = Cold then Option.iter rm_rf root;
    calibrated ~calib:((before +. after) /. 2.0) secs
  in
  (List.init (if cfg.smoke then 1 else 5) (fun _ -> rep ()), warm_root)

(* Keep starting rounds while the next one should finish within
   [seconds]; at least two, so every unit has more than one sample.  The
   first round runs in registry order and gives the heap peak, which
   must not depend on the seed; the others run in seed order. *)
let measure cfg ~warm_root prng =
  let t0 = now () in
  let rec go acc n =
    let c =
      spawn_round cfg ~warm_root ~seed:(U.Prng.int prng 1_000_000_000) ~traced:false
        ~in_order:(n = 0)
    in
    let acc = c.round :: acc and n = n + 1 in
    let elapsed = now () -. t0 in
    if n >= 2 && elapsed +. (elapsed /. float_of_int n) > cfg.seconds then List.rev acc
    else go acc n
  in
  go [] 0

let run cfg =
  let prng = U.Prng.create ~seed:cfg.seed in
  let setups, warm_root = setup cfg in
  let rounds = measure cfg ~warm_root prng in
  let m = { rounds; setups; heap_words = (List.hd rounds).heap_words } in
  if cfg.trace then begin
    let tr = spawn_round cfg ~warm_root ~seed:(U.Prng.int prng 1_000_000_000) ~traced:true in
    let all = rounds @ [ tr.round ] in
    report cfg m ~rounds:all ~verdict:(check cfg all) (per_layer m tr)
  end
  else report cfg m ~rounds ~verdict:(check cfg rounds) (end_to_end m)

(* Smoke: one traced round per workload on the small subset, emitting
   both metric sets' names and units for run.py to compare with
   BENCHMARK.json. *)
let smoke cfg =
  let names ms =
    String.concat ", " (List.map (fun m -> Printf.sprintf "[%S, %S]" m.m_name m.m_unit) ms)
  in
  let ok = ref true in
  let rows =
    List.map
      (fun (name, kind) ->
        let cfg = { cfg with name; kind; smoke = true } in
        let setups, warm_root = setup cfg in
        let tr = spawn_round cfg ~warm_root ~seed:cfg.seed ~traced:true in
        if Result.is_error (check cfg [ tr.round ]) then ok := false;
        let m = { rounds = [ tr.round ]; setups; heap_words = tr.round.heap_words } in
        if warm_root <> "" then rm_rf warm_root;
        Printf.sprintf "%S: {\"end_to_end\": [%s], \"per_layer\": [%s]}" name
          (names (end_to_end m)) (names (per_layer m tr)))
      workloads
  in
  Printf.printf "{\"correct\": %b, \"workloads\": {%s}}\n" !ok (String.concat ", " rows);
  if not !ok then exit 1

(* Recompute every workload's digest with the Reference engine as the
   oracle, untimed, and compare with the pinned ones. *)
let verify cfg =
  let digests =
    List.map
      (fun (name, kind) ->
        let cfg = { cfg with name; kind; engine = Vm.Machine.Reference } in
        let warm_root = if kind = Warm then fill cfg else "" in
        let c = spawn_round cfg ~warm_root ~seed:cfg.seed ~traced:false in
        let d = match c.round.digest with Ok d -> d | Error e -> "error: " ^ e in
        let golden = List.assoc name Project.golden in
        Printf.printf "%-14s %s %s\n%!" name d
          (if d = golden then "ok" else "MISMATCH (golden " ^ golden ^ ")");
        (name, d, golden))
      workloads
  in
  let sweeps =
    List.filter_map
      (fun (n, d, _) -> if String.starts_with ~prefix:"sweep." n then Some d else None)
      digests
  in
  if List.exists (fun (_, d, g) -> d <> g) digests then exit 1;
  if List.length (List.sort_uniq compare sweeps) <> 1 then begin
    prerr_endline "perfbench: cold and warm projections differ";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \                [--vm-engine threaded|reference] [--vm-link 0|1] [--vm-fuse 0|1]\n\
    \                [--vm-ci-native 0|1] [--vm-regalloc 0|1] [--chrome-trace FILE]\n\
    \       main.exe --verify | --smoke";
  exit 2

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | k :: rest when List.mem k [ "--verify"; "--smoke"; "--round"; "--in-order" ] ->
        parse ((k, "") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = List.assoc_opt k args in
  let flag k = List.mem_assoc k args in
  let int k ~default =
    match get k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let bool k ~default =
    match get k with
    | None -> default
    | Some "1" -> true
    | Some "0" -> false
    | Some _ -> usage ()
  in
  let d = Vm.Machine.default_tuning in
  let name = Option.value (get "--workload") ~default:"sweep.cold" in
  let kind = match List.assoc_opt name workloads with Some k -> k | None -> usage () in
  let cfg =
    {
      name;
      kind;
      seed = int "--seed" ~default:1;
      seconds = float_of_int (int "--seconds" ~default:20);
      trace = bool "--trace" ~default:false;
      smoke = flag "--smoke";
      engine =
        (match get "--vm-engine" with
        | None -> Vm.Machine.default_engine
        | Some e -> ( match Vm.Machine.engine_of_string e with Some e -> e | None -> usage ()));
      tuning =
        {
          d with
          Vm.Machine.link = bool "--vm-link" ~default:d.Vm.Machine.link;
          fuse = bool "--vm-fuse" ~default:d.Vm.Machine.fuse;
          ci_native = bool "--vm-ci-native" ~default:d.Vm.Machine.ci_native;
          regalloc = bool "--vm-regalloc" ~default:d.Vm.Machine.regalloc;
        };
      trace_file = get "--chrome-trace";
    }
  in
  if flag "--round" then
    child_main cfg ~warm_root:(Option.value (get "--store") ~default:"") ~in_order:(flag "--in-order")
  else if flag "--verify" then verify cfg
  else if flag "--smoke" then smoke cfg
  else run cfg
