(** The online just-in-time customization controller.

    The paper's system performs the ASIP specialization process
    {e concurrently} with application execution: the program keeps
    running on the plain CPU while candidates are identified and pushed
    through the CAD flow; once bitstreams are ready, the ASIP is
    reconfigured and the binary hot-swapped.  This module simulates
    that timeline and answers the question behind Table II's last
    column in dynamic form: given an application that keeps processing
    input, when does the JIT-customized system overtake a plain-CPU
    system that started at the same moment?

    Timeline model (all in simulated seconds):

    {v
      t=0            profiling run completes, ASIP-SP starts
      0 .. T_sp      app continues at native speed (the CAD tools run
                     on the host, not the target CPU)
      T_sp           reconfiguration (ICAP) + hot swap
      T_sp + dt      app continues at native/ratio speed
      break even     when cumulative work of the JIT system equals the
                     plain system's  (equivalently: lost time T_rc is
                     amortized and the head start overcome)
    v}

    When the report carries failures (fault injection was on), the
    timeline also shows the recovery machinery at work: candidates
    recovered after failed attempts, and candidates abandoned to
    software. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Cad = Jitise_cad
module Wool = Jitise_woolcano

type event = {
  at_seconds : float;   (** simulated time since specialization start *)
  what : string;
}

type timeline = {
  events : event list;           (** chronological *)
  specialization_seconds : float;  (** full ASIP-SP duration *)
  reconfiguration_seconds : float;
  speedup : float;               (** application ratio after adaptation *)
}

(** Simulate the concurrent-specialization timeline for a profiled
    module.  [report] must come from {!Asip_sp.run_spec} on the same
    profile.

    [jobs] is the number of concurrent CAD tool-flow instances on the
    host machine (default 1).  Candidates are dispatched greedily to
    the earliest-free instance in selection order, so
    [specialization_seconds] is the {e makespan} of that schedule —
    with [jobs = 1] it degenerates to the sequential sum the paper
    assumes.  Note this models host-side CAD parallelism only: the
    candidate search is not parallelized here, and the dispatch order
    is fixed, so the model is an upper bound on what a smarter
    scheduler could do with the same job count. *)
let timeline ?(jobs = 1) (report : Asip_sp.report) : timeline =
  if jobs < 1 then
    invalid_arg
      (Printf.sprintf "Jit_manager.timeline: jobs must be >= 1 (got %d)" jobs);
  let events = ref [] in
  let emit at_seconds fmt =
    Printf.ksprintf (fun what -> events := { at_seconds; what } :: !events) fmt
  in
  let sig_of (s : Ise.Select.scored) =
    s.Ise.Select.candidate.Ise.Candidate.signature
  in
  emit 0.0 "profiling complete; candidate search starts";
  (* The staged engine's execution records replace the old ad-hoc
     search tuple: each search stage (prune, MAXMISO, select) becomes
     its own event inside the measured search window, and a
     stage-cache hit is visible as such. *)
  let search_stages = [ "prune"; "maxmiso"; "select" ] in
  let t_search = ref 0.0 in
  List.iter
    (fun (r : Pipeline.record) ->
      if List.mem r.Pipeline.rec_stage search_stages then begin
        t_search :=
          Float.min report.Asip_sp.search_wall_seconds
            (!t_search +. r.Pipeline.rec_wall_seconds);
        emit !t_search "search stage %s: %s (%.2f ms)" r.Pipeline.rec_stage
          (Pipeline.outcome_name r.Pipeline.rec_outcome)
          (1000.0 *. r.Pipeline.rec_wall_seconds)
      end)
    report.Asip_sp.stage_records;
  emit (report.Asip_sp.search_wall_seconds)
    "candidate search done: %d candidates selected"
    (List.length report.Asip_sp.selection);
  (* [jobs] CAD flows run on the host machine; every lane becomes free
     when the search completes. *)
  let lanes = Array.make jobs report.Asip_sp.search_wall_seconds in
  let earliest_lane () =
    let best = ref 0 in
    Array.iteri (fun i t -> if t < lanes.(!best) then best := i) lanes;
    !best
  in
  (* Slots in original selection order: each position holds either an
     implemented candidate or a dropped one. *)
  let drops_at = Hashtbl.create 8 in
  List.iter
    (fun (d : Asip_sp.dropped) ->
      Hashtbl.replace drops_at d.Asip_sp.drop_at_index d)
    report.Asip_sp.dropped;
  let remaining = ref report.Asip_sp.candidates in
  for idx = 0 to List.length report.Asip_sp.selection - 1 do
    match Hashtbl.find_opt drops_at idx with
    | Some d ->
        (* Abandoned: the failed attempts still occupied a CAD lane. *)
        let lane = earliest_lane () in
        let t1 = lanes.(lane) +. d.Asip_sp.drop_wasted_seconds in
        lanes.(lane) <- t1;
        emit t1 "%s: abandoned (%s, %d failed attempt(s)); staying in software"
          (sig_of d.Asip_sp.drop_scored)
          (Asip_sp.drop_reason_name d.Asip_sp.drop_reason)
          d.Asip_sp.drop_attempts
    | None -> (
        match !remaining with
        | [] -> ()
        | c :: rest -> (
            remaining := rest;
            match c.Asip_sp.cache_hit with
            | Some kind ->
                emit
                  lanes.(earliest_lane ())
                  "%s: bitstream cache hit (%s)"
                  (sig_of c.Asip_sp.scored) (Jitise_util.Artifact.hit_name kind)
            | None ->
                let lane = earliest_lane () in
                let t0 = lanes.(lane) in
                if c.Asip_sp.failed_attempts > 0 then
                  emit
                    (t0 +. c.Asip_sp.wasted_seconds)
                    "%s: recovered after %d failed attempt(s) (%.0f s wasted \
                     incl. backoff)"
                    (sig_of c.Asip_sp.scored) c.Asip_sp.failed_attempts
                    c.Asip_sp.wasted_seconds;
                let t1 =
                  t0 +. c.Asip_sp.wasted_seconds +. c.Asip_sp.total_seconds
                in
                lanes.(lane) <- t1;
                emit t1
                  "%s: bitstream ready (map %.0f s, par %.0f s, bitgen %.0f s)"
                  (sig_of c.Asip_sp.scored)
                  (Cad.Flow.stage_seconds c.Asip_sp.run Cad.Flow.Map)
                  (Cad.Flow.stage_seconds c.Asip_sp.run Cad.Flow.Place_and_route)
                  (Cad.Flow.stage_seconds c.Asip_sp.run Cad.Flow.Bitgen)))
  done;
  let specialization_seconds = Array.fold_left Float.max 0.0 lanes in
  (* Reconfigure every bitstream into the UDI slots. *)
  let asip = Wool.Asip.create () in
  List.iter
    (fun (c : Asip_sp.candidate_result) ->
      ignore (Wool.Asip.load asip c.Asip_sp.run.Cad.Flow.bitstream))
    report.Asip_sp.candidates;
  let reconfiguration_seconds = asip.Wool.Asip.reconfig_seconds in
  let t_ready = specialization_seconds +. reconfiguration_seconds in
  emit t_ready "ASIP reconfigured (%d slots, %.1f ms ICAP time); binary hot-swapped"
    (Wool.Asip.occupancy asip)
    (1000.0 *. reconfiguration_seconds);
  let speedup = report.Asip_sp.asip_ratio.Ise.Speedup.ratio in
  (* Plain system processes work at rate 1.  The JIT system processes at
     rate 1 until t_ready (specialization happens off-CPU), loses
     reconfiguration time, then runs at rate [speedup].  It overtakes
     once speedup * (T - t_ready) = (T - specialization_seconds):
     i.e. it must win back the reconfiguration stall. *)
  let overtake_seconds =
    if speedup <= 1.0 +. 1e-9 then
      if reconfiguration_seconds <= 0.0 then Some t_ready else None
    else begin
      (* work_jit(T) = specialization_seconds + speedup * (T - t_ready)
         work_plain(T) = T  ->  equal at: *)
      let t_star =
        (speedup *. t_ready -. specialization_seconds) /. (speedup -. 1.0)
      in
      Some (Float.max t_ready t_star)
    end
  in
  (match overtake_seconds with
  | Some t_star ->
      emit t_star "JIT system overtakes the plain-CPU system"
  | None -> emit t_ready "no net speedup: the plain CPU is never overtaken");
  {
    events =
      List.stable_sort
        (fun a b -> compare a.at_seconds b.at_seconds)
        (List.rev !events);
    specialization_seconds;
    reconfiguration_seconds;
    speedup;
  }

let pp_timeline ppf t =
  List.iter
    (fun e ->
      Format.fprintf ppf "%12s  %s@\n"
        (Jitise_util.Duration.to_hms e.at_seconds)
        e.what)
    t.events

(* ================================================================== *)
(* Closed-loop (online) adaptive specialization                        *)
(* ================================================================== *)

module F = Jitise_frontend
module W = Jitise_workloads
module An = Jitise_analysis

(** The event-driven controller proper.  Where {!timeline} replays a
    precomputed plan against a whole-run profile, {!online} closes the
    loop: the application runs on the VM with a per-block monitor; the
    controller watches a sliding-window phase profile
    ({!Vm.Profile.Window}), detects phase changes, launches CAD for a
    custom instruction only once the ski-rental rule
    ({!An.Breakeven.worthwhile}) says the savings it has already
    foregone cover the predicted overhead, cancels in-flight CAD on
    phase exit (the launch is forgotten, so its completion never
    arrives), loads finished bitstreams into the modeled
    partial-reconfiguration fabric ({!Wool.Asip}) — charging the
    reconfiguration stall on the same clock the VM runs on — and
    hot-swaps the CI binding between software and hardware cost
    through the VM's swap cells.

    Three baselines of the same adapted module differ only in
    controller policy, so their outcomes (return value, control flow)
    are identical: they run as three clock lanes of one monitored VM
    execution, and their native-cycle totals are directly comparable:

    - {e adaptive}: the closed loop described above;
    - {e oracle}: whole-run offline specialization — the top-[slots]
      candidates by offline saved cycles, bitstreams ready at t=0
      (their CAD is not billed), paying only the reconfiguration
      stalls; the strongest static baseline a fabric of that size
      admits;
    - {e nospec}: every CI permanently at its software cost — the
      plain-CPU system. *)

(** Per-data-path controller state.  Loop unrolling clones a phase
    kernel's expression inside its block, so several CIs of the adapted
    module share one structural signature — and therefore one
    bitstream, one slot and one build/launch decision.  The controller
    tracks the {e group}: [oc_ids] are all CI numbers dispatching this
    data path, and a bind applies to every one of them. *)
type ci_entry = {
  mutable oc_ids : int list;  (** CI numbers in the adapted module *)
  oc_sig : string;  (** structural signature (fabric key) *)
  oc_home : string * int;  (** home (function, block) of the candidate *)
  mutable oc_block : int;
      (** the home block's dense VM id, resolved when a monitored run
          starts ({!Vm.Machine.control}) *)
  oc_sw : float;  (** software cycles per dispatch *)
  oc_hw : float;  (** hardware cycles per dispatch *)
  oc_cad_seconds : float;  (** predicted CAD latency, scaled *)
  mutable oc_saved_offline : float;
      (** offline saved-cycles rank, summed over the group (oracle) *)
  oc_bits : Cad.Bitstream.t;
  mutable oc_built : bool;  (** a bitstream exists (CAD completed) *)
  mutable oc_inflight : float option;
      (** CAD launched: its completion time *)
  mutable oc_bound : bool;  (** currently dispatching at hardware cost *)
  mutable oc_foregone : float;
      (** seconds of savings foregone by staying in software during the
          current phase; decays while cold, resets on investment *)
  mutable oc_hot : bool;
  mutable oc_cold_windows : int;
}

let copies e = List.length e.oc_ids

(** Cycle totals and fabric counters of one baseline: one clock lane
    of the monitored run. *)
type online_run = {
  run_label : string;
  run_cycles : float;  (** native cycles, stalls included *)
  run_vm_cycles : float;
  run_ret : Ir.Eval.value option;
  run_stall_cycles : float;  (** reconfiguration stalls charged *)
  run_reconfigurations : int;
  run_evictions : int;
  run_swaps : int;  (** software->hardware rebinds *)
}

type online_report = {
  o_app : string;
  o_dataset : string;  (** dataset label the loop ran on *)
  o_slots : int;
  o_policy : Wool.Asip.policy;
  o_window : int;
  o_cis : int;  (** implemented custom instructions available *)
  o_adaptive : online_run;
  o_oracle : online_run;
  o_nospec : online_run;
  o_events : event list;  (** adaptive controller events, chronological *)
  o_windows : int;  (** phase-profile windows closed *)
  o_phase_exits : int;
  o_cad_launched : int;
  o_cad_completed : int;
  o_cad_cancelled : int;
}

(* A CI counts as hot when its home block filled at least 1/16 of the
   last closed window; an in-flight CAD is cancelled after the home
   block stays cold for [cold_exit] consecutive windows; an eviction is
   only worth it when the newcomer's benefit beats the victim's by
   [hysteresis] (prevents slot thrash between equal-benefit phases). *)
let hot_fraction = 16
let cold_exit = 2
let hysteresis = 1.25

let entries_of_slots ~latency_scale (slots : Asip_sp.candidate_result list) :
    ci_entry list =
  let by_sig : (string, ci_entry) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iteri
    (fun i (c : Asip_sp.candidate_result) ->
      let s = c.Asip_sp.scored in
      let cand = s.Ise.Select.candidate in
      let est = s.Ise.Select.estimate in
      match Hashtbl.find_opt by_sig cand.Ise.Candidate.signature with
      | Some e ->
          (* A clone of an already-seen data path: same bitstream, same
             slot, one more dispatch site per block execution. *)
          e.oc_ids <- e.oc_ids @ [ i ];
          e.oc_saved_offline <-
            e.oc_saved_offline +. s.Ise.Select.saved_cycles
      | None ->
          let e =
            {
              oc_ids = [ i ];
              oc_sig = cand.Ise.Candidate.signature;
              oc_home = (cand.Ise.Candidate.func, cand.Ise.Candidate.block);
              oc_block = -1;
              oc_sw = float_of_int est.Pp.Estimator.sw_cycles;
              oc_hw = float_of_int est.Pp.Estimator.hw_cycles;
              oc_cad_seconds =
                (c.Asip_sp.total_seconds +. c.Asip_sp.wasted_seconds)
                /. latency_scale;
              oc_saved_offline = s.Ise.Select.saved_cycles;
              oc_bits = c.Asip_sp.run.Cad.Flow.bitstream;
              (* The online world starts cold: nothing is built until
                 this run's own CAD completes.  The exception is a
                 {e shared}-cache hit on the group's first data path —
                 the pre-generated bitstream-library case. *)
              oc_built = c.Asip_sp.cache_hit <> None;
              oc_inflight = None;
              oc_bound = false;
              oc_foregone = 0.0;
              oc_hot = false;
              oc_cold_windows = 0;
            }
          in
          Hashtbl.add by_sig e.oc_sig e;
          order := e :: !order)
    slots;
  List.rev !order

(* One baseline of the online report: a clock lane of the single
   monitored run ({!Vm.Machine.control}), with its own CI entries,
   fabric and counters.  [ln_init] runs at monitor start, after every CI
   of the lane is bound to its software cost; [ln_step] runs on each
   closed phase window. *)
type lane = {
  ln_label : string;
  ln_entries : ci_entry list;
  ln_asip : Wool.Asip.t;
  ln_init : lane -> Vm.Machine.control -> unit;
  ln_step :
    lane -> Vm.Machine.control -> Vm.Profile.Window.w -> now:float -> unit;
  mutable ln_stalls : float;  (** reconfiguration stall cycles charged *)
  mutable ln_swaps : int;  (** software -> hardware rebinds *)
}

let lane ~(spec : Spec.t) ~label ~entries ?(init = fun _ _ -> ())
    ?(step = fun _ _ _ ~now:_ -> ()) () =
  let cfg = spec.Spec.online in
  {
    ln_label = label;
    ln_entries = entries;
    ln_asip = Wool.Asip.create ~slots:cfg.Spec.slots ~policy:cfg.Spec.evict ();
    ln_init = init;
    ln_step = step;
    ln_stalls = 0.0;
    ln_swaps = 0;
  }

let stall (ln : lane) (ctl : Vm.Machine.control) cyc =
  ctl.Vm.Machine.ctl_stall cyc;
  ln.ln_stalls <- ln.ln_stalls +. cyc

(* One monitored run of the adapted module, every lane on the same
   block trace: the lanes differ only in per-dispatch CI cost and
   stalls, which never change the values computed.  One phase window
   serves every lane; on each close it advances once, then the lanes
   step in order.  Returns each lane's run and the windows closed. *)
let monitored_run ~(spec : Spec.t) ~(adapt : Adapt.t)
    ~(dataset : W.Workload.dataset) (lanes : lane array) :
    online_run array * int =
  let cfg = spec.Spec.online in
  let window =
    Vm.Profile.Window.create ~size:cfg.Spec.window ~decay:cfg.Spec.decay
      ~blocks:(Ir.Irmod.num_blocks adapt.Adapt.modul)
  in
  let ctls = ref [||] in
  let monitor cs =
    ctls := cs;
    (* Every CI starts in software mode: the adapted module's registry
       binds hardware cost statically, which is only earned once the
       fabric holds the bitstream. *)
    Array.iteri
      (fun i ln ->
        let ctl = cs.(i) in
        List.iter
          (fun e ->
            let func, label = e.oc_home in
            e.oc_block <- ctl.Vm.Machine.ctl_block ~func ~label;
            List.iter (fun id -> ctl.Vm.Machine.ctl_bind id e.oc_sw) e.oc_ids)
          ln.ln_entries;
        ln.ln_init ln ctl)
      lanes;
    fun bid ->
      if Vm.Profile.Window.observe window bid then begin
        Vm.Profile.Window.advance window;
        Array.iteri
          (fun i ln ->
            let ctl = cs.(i) in
            let now =
              Vm.Machine.seconds_of_cycles (ctl.Vm.Machine.ctl_native ())
            in
            ln.ln_step ln ctl window ~now)
          lanes
      end
  in
  let outcome =
    Vm.Machine.run ~cis:adapt.Adapt.registry ~engine:spec.Spec.vm_engine
      ~tuning:spec.Spec.vm_tuning ~lanes:(Array.length lanes) ~monitor
      adapt.Adapt.modul ~entry:"main"
      ~args:[ Ir.Eval.VInt (Int64.of_int dataset.W.Workload.n) ]
  in
  ( Array.mapi
      (fun i ln ->
        let ctl = !ctls.(i) in
        {
          run_label = ln.ln_label;
          run_cycles = ctl.Vm.Machine.ctl_native ();
          run_vm_cycles = ctl.Vm.Machine.ctl_vm ();
          run_ret = outcome.Vm.Machine.ret;
          run_stall_cycles = ln.ln_stalls;
          run_reconfigurations = ln.ln_asip.Wool.Asip.reconfigurations;
          run_evictions = ln.ln_asip.Wool.Asip.evictions;
          run_swaps = ln.ln_swaps;
        })
      lanes,
    Vm.Profile.Window.windows window )

(* Rebind a lane's entries against its fabric state: evicted CIs fall
   back to software; resident-and-ready CIs claim hardware cost.
   [emit] takes a preformatted string so callers can pass a silent
   sink. *)
let sync_bindings ~(emit : float -> string -> unit) (ln : lane)
    (ctl : Vm.Machine.control) ~now =
  let asip = ln.ln_asip in
  List.iter
    (fun e ->
      if e.oc_bound then begin
        if not (Wool.Asip.dispatch_ready asip ~now_seconds:now e.oc_sig)
        then begin
          e.oc_bound <- false;
          List.iter (fun id -> ctl.Vm.Machine.ctl_bind id e.oc_sw) e.oc_ids;
          emit now
            (Printf.sprintf "%s x%d: lost its slot; back to software"
               e.oc_sig (copies e))
        end
      end
      else if Wool.Asip.dispatch_ready asip ~now_seconds:now e.oc_sig
      then begin
        e.oc_bound <- true;
        ln.ln_swaps <- ln.ln_swaps + 1;
        List.iter (fun id -> ctl.Vm.Machine.ctl_bind id e.oc_hw) e.oc_ids;
        emit now
          (Printf.sprintf
             "%s x%d: hot-swapped to hardware (%.0f -> %.0f cycles/call)"
             e.oc_sig (copies e) e.oc_sw e.oc_hw)
      end)
    ln.ln_entries

(** Close the loop over one workload.  Specializes from the train
    profile alone with {!Experiment.specialize} (compile, train-dataset
    profile, search, CAD — reusing the staged pipeline, supervisor,
    caches and fault model exactly as the batch path does), adapts the
    binary once, then runs nospec / oracle / adaptive as three lanes of
    one monitored run on the last dataset.  The loop itself is a
    sequential simulated-time computation on the calling domain. *)
let online ?(spec = Spec.default) (db : Pp.Database.t) (w : W.Workload.t) :
    online_report =
  let cfg = spec.Spec.online in
  let dataset =
    match List.rev w.W.Workload.datasets with
    | d :: _ -> d
    | [] -> invalid_arg "Jit_manager.online: workload has no datasets"
  in
  let compiled, report = Experiment.specialize ~spec db w in
  let slots = report.Asip_sp.candidates in
  let adapt =
    Adapt.apply compiled.F.Compiler.modul
      (List.map (fun (c : Asip_sp.candidate_result) -> c.Asip_sp.scored) slots)
  in
  let events = ref [] in
  let emit at_seconds what = events := { at_seconds; what } :: !events in
  let quiet _ _ = () in
  let phase_exits = ref 0 in
  let launched = ref 0 in
  let completed = ref 0 in
  let cancelled = ref 0 in

  (* ---- no-specialization baseline: software cost forever ---- *)
  let nospec =
    lane ~spec ~label:"nospec"
      ~entries:(entries_of_slots ~latency_scale:1.0 slots)
      ()
  in

  (* ---- oracle: static whole-run specialization, top slots ---- *)
  let oracle_entries = entries_of_slots ~latency_scale:1.0 slots in
  let oracle_top =
    (* Offline ranking: highest whole-run saved cycles first (summed
       over a data path's clones), truncated to the fabric size; ties
       break on the signature for determinism. *)
    List.filteri
      (fun i _ -> i < cfg.Spec.slots)
      (List.sort
         (fun a b ->
           match compare b.oc_saved_offline a.oc_saved_offline with
           | 0 -> compare a.oc_sig b.oc_sig
           | c -> c)
         oracle_entries)
  in
  let oracle_init ln ctl =
    let asip = ln.ln_asip in
    List.iter
      (fun e ->
        let _, reconfigured, _ =
          Wool.Asip.begin_load asip ~now_seconds:0.0 e.oc_bits
        in
        if reconfigured then
          stall ln ctl
            (Wool.Arch.reconfiguration_seconds e.oc_bits /. Ir.Cost.cycle_time))
      oracle_top;
    (* The stalls advanced the clock past every deadline: bind now so
       the oracle pays hardware cost from the very first dispatch. *)
    let now = Vm.Machine.seconds_of_cycles (ctl.Vm.Machine.ctl_native ()) in
    sync_bindings ~emit:quiet ln ctl ~now
  in
  let oracle_step ln ctl _win ~now = sync_bindings ~emit:quiet ln ctl ~now in
  let oracle =
    lane ~spec ~label:"oracle" ~entries:oracle_entries ~init:oracle_init
      ~step:oracle_step ()
  in

  (* ---- adaptive: the closed loop ---- *)
  let hot_threshold = max 1 (cfg.Spec.window / hot_fraction) in
  let adaptive_step ln ctl win ~now =
    let asip = ln.ln_asip and entries = ln.ln_entries in
    (* 1. Hot/cold classification and foregone-savings accounting.  A
       CI still in software during a hot window forgoes (sw - hw)
       cycles per execution: that is the "rent" the ski-rental rule
       weighs against the investment.  Cold windows decay the claim —
       stale evidence should not trigger a launch after the phase
       moved on. *)
    List.iter
      (fun e ->
        let n_last = Vm.Profile.Window.last win e.oc_block in
        if e.oc_bound && n_last > 0 then Wool.Asip.touch asip e.oc_sig;
        (* Refresh the recorded benefit every window, resident or not:
           the decayed rate of a phase that went cold sinks, so its
           occupant becomes evictable once a new phase heats up. *)
        let rate = Vm.Profile.Window.rate win e.oc_block in
        Wool.Asip.set_benefit asip e.oc_sig
          (rate *. (e.oc_sw -. e.oc_hw) *. float_of_int (copies e));
        if n_last >= hot_threshold then begin
          e.oc_hot <- true;
          e.oc_cold_windows <- 0;
          if not e.oc_bound then
            e.oc_foregone <-
              e.oc_foregone
              +. float_of_int (n_last * copies e)
                 *. (e.oc_sw -. e.oc_hw)
                 *. Ir.Cost.cycle_time
        end
        else begin
          e.oc_foregone <- e.oc_foregone *. cfg.Spec.decay;
          if e.oc_hot then begin
            e.oc_cold_windows <- e.oc_cold_windows + 1;
            if e.oc_cold_windows >= cold_exit then begin
              e.oc_hot <- false;
              e.oc_cold_windows <- 0;
              e.oc_foregone <- 0.0;
              incr phase_exits;
              emit now
                (Printf.sprintf "%s: phase exit (cold for %d windows)"
                   e.oc_sig cold_exit);
              match e.oc_inflight with
              | None -> ()
              | Some _ ->
                  e.oc_inflight <- None;
                  incr cancelled;
                  emit now
                    (Printf.sprintf "%s: cancelled in-flight CAD" e.oc_sig)
            end
          end
        end)
      entries;
    (* 2. CAD completions. *)
    List.iter
      (fun e ->
        match e.oc_inflight with
        | Some done_at when now >= done_at ->
            e.oc_inflight <- None;
            e.oc_built <- true;
            incr completed;
            emit now
              (Printf.sprintf "%s: CAD complete, bitstream ready" e.oc_sig)
        | _ -> ())
      entries;
    (* 3. Reconcile bindings with the fabric (evictions first). *)
    sync_bindings ~emit ln ctl ~now;
    (* 4. Investment decisions for hot CIs still in software. *)
    List.iter
      (fun e ->
        if e.oc_hot && not e.oc_bound then begin
          let benefit = Wool.Asip.benefit_of asip e.oc_sig in
          let reconfig_s = Wool.Arch.reconfiguration_seconds e.oc_bits in
          if e.oc_built then begin
            if Wool.Asip.find asip e.oc_sig = None then begin
              let evict_ok =
                match Wool.Asip.peek_victim asip with
                | None -> true
                | Some victim ->
                    benefit > hysteresis *. Wool.Asip.benefit_of asip victim
              in
              if
                evict_ok
                && An.Breakeven.worthwhile ~overhead_seconds:reconfig_s
                     ~foregone_seconds:e.oc_foregone
              then begin
                let _, reconfigured, _ =
                  Wool.Asip.begin_load asip ~now_seconds:now e.oc_bits
                in
                if reconfigured then
                  stall ln ctl (reconfig_s /. Ir.Cost.cycle_time);
                e.oc_foregone <- 0.0;
                emit now
                  (Printf.sprintf "%s: reconfiguring a slot (%.0f cycle stall)"
                     e.oc_sig
                     (reconfig_s /. Ir.Cost.cycle_time))
              end
            end
          end
          else begin
            match e.oc_inflight with
            | Some _ -> ()
            | None ->
                let overhead = e.oc_cad_seconds +. reconfig_s in
                if
                  An.Breakeven.worthwhile ~overhead_seconds:overhead
                    ~foregone_seconds:e.oc_foregone
                then begin
                  e.oc_inflight <- Some (now +. e.oc_cad_seconds);
                  incr launched;
                  emit now
                    (Printf.sprintf "%s: CAD launched, %.4fs predicted"
                       e.oc_sig e.oc_cad_seconds)
                end
          end
        end)
      entries;
    (* 5. Fresh loads whose stall already elapsed can bind right away
       (re-read the clock: the stall in step 4 advanced it). *)
    let now = Vm.Machine.seconds_of_cycles (ctl.Vm.Machine.ctl_native ()) in
    sync_bindings ~emit ln ctl ~now
  in
  let adaptive =
    lane ~spec ~label:"adaptive"
      ~entries:(entries_of_slots ~latency_scale:cfg.Spec.latency_scale slots)
      ~step:adaptive_step ()
  in
  (* One execution, three clock lanes, started and stepped in this
     order.  No lane reads another's state. *)
  let runs, windows =
    monitored_run ~spec ~adapt ~dataset [| nospec; oracle; adaptive |]
  in
  {
    o_app = w.W.Workload.name;
    o_dataset = dataset.W.Workload.label;
    o_slots = cfg.Spec.slots;
    o_policy = cfg.Spec.evict;
    o_window = cfg.Spec.window;
    o_cis = List.length slots;
    o_adaptive = runs.(2);
    o_oracle = runs.(1);
    o_nospec = runs.(0);
    o_events = List.rev !events;
    o_windows = windows;
    o_phase_exits = !phase_exits;
    o_cad_launched = !launched;
    o_cad_completed = !completed;
    o_cad_cancelled = !cancelled;
  }

let pp_online_run ppf (r : online_run) =
  Format.fprintf ppf
    "%-9s %14.0f cycles  (vm %14.0f, stalls %9.0f, reconf %d, evict %d, \
     swaps %d)"
    r.run_label r.run_cycles r.run_vm_cycles r.run_stall_cycles
    r.run_reconfigurations r.run_evictions r.run_swaps

let pp_online ppf (o : online_report) =
  Format.fprintf ppf "== %s [%s]  slots=%d policy=%s window=%d cis=%d ==@\n"
    o.o_app o.o_dataset o.o_slots
    (Wool.Asip.policy_name o.o_policy)
    o.o_window o.o_cis;
  (* controller events live on a milliseconds scale — an hh:mm:ss stamp
     would render every line as 00:00:00 *)
  List.iter
    (fun e ->
      Format.fprintf ppf "%9.2f ms  %s@\n"
        (e.at_seconds *. 1000.0)
        e.what)
    o.o_events;
  Format.fprintf ppf "%a@\n%a@\n%a@\n" pp_online_run o.o_adaptive
    pp_online_run o.o_oracle pp_online_run o.o_nospec;
  let vs label (base : online_run) =
    let a = o.o_adaptive.run_cycles in
    if base.run_cycles > 0.0 then
      Format.fprintf ppf "adaptive vs %-8s %+.2f%%@\n" label
        ((a -. base.run_cycles) /. base.run_cycles *. 100.0)
  in
  vs "oracle:" o.o_oracle;
  vs "nospec:" o.o_nospec;
  Format.fprintf ppf
    "windows %d  phase-exits %d  cad launched %d / completed %d / \
     cancelled %d@\n"
    o.o_windows o.o_phase_exits o.o_cad_launched o.o_cad_completed
    o.o_cad_cancelled
