(** The ASIP Specialization Process (Figure 2 of the paper).

    Three phases, run concurrently with application execution in the
    real system:

    + {b Candidate Search} — prune the profiled bitcode with a
      [@{p}pS{k}L] filter, identify candidates with MAXMISO, estimate
      them against the PivPav database and select the profitable ones.
      Wall-clock measured (milliseconds — the paper's "real" column).
    + {b Netlist Generation} — data-path VHDL, netlist extraction
      through the PivPav cache, CAD project creation (simulated
      seconds, the "C2V" constant).
    + {b Instruction Implementation} — the CAD flow proper: syntax
      check, synthesis, translate, map, place-and-route, bitstream
      generation (simulated seconds, calibrated to Tables II/III).

    The report aggregates exactly the quantities Table II prints.

    Since the staged-pipeline refactor this module is mostly {e stage
    definitions}: each phase of the chain is a first-class
    {!Pipeline.stage} with a digest function over its canonical inputs,
    and {!Pipeline.exec} supplies tracing, execution records and —
    when [spec.stage_cache] is set — content-addressed whole-stage
    memoization, so a sweep point only re-runs stages whose inputs
    changed.  What remains here besides the stage bodies is the
    degradation ladder and the report aggregation.

    The process is split into two halves so a sweep over many
    applications can parallelize the expensive work while keeping the
    bitstream-cache accounting deterministic:

    - {!stage} does everything costly — search, estimation, selection,
      VHDL generation and the simulated CAD flow (including the full
      per-candidate retry chain when fault injection is on) — and is
      safe to run for several applications concurrently (it never
      touches the shared cache);
    - {!finalize} replays the staged candidates against the (run-local
      or shared) bitstream store {e in selection order} and aggregates
      the report.  Running finalization sequentially in a fixed
      application order makes parallel sweeps report-identical to
      serial ones.

    {b Failure handling} (when the CAD plane of [spec.chaos] is on): every
    candidate's CAD chain is governed by [spec.retry] — transient
    failures are retried after an exponential backoff, a timing-closure
    failure switches the retry to a relaxed resynthesis, and a chain
    that exhausts its attempts degrades gracefully: the instruction
    stays in software (the selection already holds every profitable
    candidate, so there is no alternate to build in its place).  A
    whole-specialization deadline ([spec.retry], consulted whatever
    planes are on) bounds the total simulated time; candidates past it
    are dropped (cache hits are still taken — they are free).  All of
    this is deterministic in the chaos seed, and fault chains are
    computed in the parallel phase from per-candidate seeds, so the
    recovery behaviour is identical however many domains run the
    sweep.

    {!run_spec} composes the two for the single-application case. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Hw = Jitise_hwgen
module Cad = Jitise_cad
module U = Jitise_util

(** Why a selected candidate was abandoned (left in software). *)
type drop_reason =
  | Retries_exhausted  (** every permitted CAD attempt failed *)
  | Specialization_deadline
      (** the whole-specialization budget was already exhausted, so no
          CAD attempt was even started *)
  | Stage_failure
      (** the supervision layer gave up on one of the candidate's
          pipeline stages (chaos crashes exhausted the retry budget, or
          a stall overran the stage deadline) — the candidate was
          poisoned before any CAD chain existed *)

let drop_reason_name = function
  | Retries_exhausted -> "retries exhausted"
  | Specialization_deadline -> "specialization deadline"
  | Stage_failure -> "stage failure"

type candidate_result = {
  scored : Ise.Select.scored;
  c2v_seconds : float;
  run : Cad.Flow.run;
  cache_hit : U.Artifact.hit option;
      (** [Some Local] — this application already built an identical
          data path (same structural signature); [Some Shared] — a
          different application in the same sweep built it (the
          Section VI-A cross-application cache); [None] — a miss, the
          full CAD bill is paid *)
  total_seconds : float;  (** c2v + all CAD stages; 0 on a cache hit *)
  attempts : int;
      (** CAD attempts run to land this slot, successful and failed; 0
          on a cache hit *)
  failed_attempts : int;  (** failures among [attempts] *)
  wasted_seconds : float;
      (** simulated seconds burnt on failed attempts and backoffs on
          the road to this result (0 when the first attempt succeeded) *)
}

(** What ended an abandoned slot. *)
type drop_cause =
  | Cad_failure of Cad.Flow.failure  (** the chain's final CAD failure *)
  | Supervision_error of string
      (** the printable supervision or chaos error that poisoned the
          slot's stages *)

(** A selected candidate that could not be implemented at all: the
    instruction stays in software. *)
type dropped = {
  drop_scored : Ise.Select.scored;
  drop_reason : drop_reason;
  drop_cause : drop_cause option;
      (** [None] when dropped before any attempt ran *)
  drop_attempts : int;  (** attempts run at this slot (all failed) *)
  drop_wasted_seconds : float;
  drop_at_index : int;  (** position in the original selection order *)
}

type report = {
  (* Candidate search *)
  search_wall_seconds : float;      (** measured, the "real" column *)
  pruning_efficiency : float;       (** paper's "pruner effic" column *)
  searched_blocks : int;            (** blk column of Table II *)
  searched_instrs : int;            (** ins column of Table II *)
  (* Selection *)
  selection : Ise.Select.scored list;
  all_candidates : int;  (** identified before profitability filtering *)
  (* Hardware generation *)
  candidates : candidate_result list;
      (** implemented slots, in selection order *)
  dropped : dropped list;  (** abandoned slots, in selection order *)
  const_seconds : float;   (** sum of constant-time stages (incl. C2V) *)
  map_seconds : float;
  par_seconds : float;
  wasted_seconds : float;
      (** simulated seconds burnt on failed CAD attempts and backoffs,
          over implemented and dropped slots alike; 0 with faults off *)
  sum_seconds : float;     (** total ASIP-SP overhead, including waste *)
  total_attempts : int;    (** CAD attempts run (successes + failures) *)
  failed_attempts : int;
  stage_failures : int;
      (** slots dropped by the supervision layer ({!Stage_failure}) *)
  deadline_exceeded : bool;
      (** the specialization deadline expired during this run *)
  (* Speedups *)
  asip_ratio : Ise.Speedup.t;
      (** with pruning + selection, over the {e implemented} slots —
          degradation lowers it *)
  asip_ratio_max : Ise.Speedup.t;      (** all MAXMISOs, no pruning *)
  (* Engine *)
  stage_records : Pipeline.record list;
      (** every pipeline-stage execution behind this report (search,
          per-candidate hwgen/CAD, and — when staged through
          {!Experiment} — the frontend/VM/analysis stages), with wall
          time and computed/hit outcome.  Measured data: excluded from
          report-identity comparisons. *)
}

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let find_func_exn (m : Ir.Irmod.t) name =
  match Ir.Irmod.find_func m name with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf "Asip_sp: function %S not found in module %S" name
           m.Ir.Irmod.mname)

(* MAXMISO identification over a list of blocks. *)
let identify (m : Ir.Irmod.t) blocks =
  List.concat_map
    (fun (fname, label) ->
      match Ir.Irmod.find_func m fname with
      | None -> []
      | Some f ->
          let dfg = Ir.Dfg.of_block f (Ir.Func.block f label) in
          Ise.Maxmiso.of_block dfg ~func:fname)
    blocks

(* Identification + estimation + selection over a list of blocks. *)
let search_blocks (db : Pp.Database.t) (m : Ir.Irmod.t)
    (profile : Vm.Profile.t) blocks =
  let candidates = identify m blocks in
  (candidates, Ise.Select.select db m profile candidates)

(** One CAD attempt of a candidate's retry chain. *)
type attempt_info = {
  att_failure : Cad.Flow.failure option;  (** [None] = succeeded *)
  att_backoff_seconds : float;
      (** simulated cool-down after this (failed) attempt *)
}

(** A candidate's full retry chain, computed deterministically from the
    fault seed: either the run that finally succeeded or the permanent
    failure that ended it. *)
type chain = {
  ch_attempts : attempt_info list;  (** in order; last one decides *)
  ch_result : (Cad.Flow.run, Cad.Flow.failure * drop_reason) result;
}

let chain_failed_attempts ch =
  List.length (List.filter (fun a -> a.att_failure <> None) ch.ch_attempts)

(** Simulated seconds burnt on the failed attempts and backoffs of a
    chain (excludes the successful run itself and the C2V time). *)
let chain_wasted_seconds ch =
  List.fold_left
    (fun acc a ->
      match a.att_failure with
      | None -> acc
      | Some f -> acc +. f.Cad.Flow.wasted_seconds +. a.att_backoff_seconds)
    0.0 ch.ch_attempts

(* Binary codec for the implement stage's artifact, composed here next
   to the types from the shared pieces in {!Codecs}. *)
module B = U.Binio

let drop_reason_codec : drop_reason B.codec =
  (* Enum codecs encode by list index: removing or reordering a
     constructor requires a [Store_disk.version] bump.  [Stage_failure]
     never actually appears in persisted chains — supervision failures
     happen outside the CAD chain — but the codec must cover the
     type. *)
  B.enum ~name:"drop_reason"
    [ Retries_exhausted; Specialization_deadline; Stage_failure ]

let attempt_info_codec : attempt_info B.codec =
  B.codec
    (fun b a ->
      B.w_option Codecs.flow_failure.B.enc b a.att_failure;
      B.w_float b a.att_backoff_seconds)
    (fun r ->
      let att_failure = B.r_option Codecs.flow_failure.B.dec r in
      let att_backoff_seconds = B.r_float r in
      { att_failure; att_backoff_seconds })

let chain_codec : chain B.codec =
  B.codec
    (fun b ch ->
      B.w_list attempt_info_codec.B.enc b ch.ch_attempts;
      match ch.ch_result with
      | Ok run ->
          B.w_byte b 0;
          Codecs.flow_run.B.enc b run
      | Error (f, reason) ->
          B.w_byte b 1;
          Codecs.flow_failure.B.enc b f;
          drop_reason_codec.B.enc b reason)
    (fun r ->
      let ch_attempts = B.r_list attempt_info_codec.B.dec r in
      let ch_result =
        match B.r_byte r with
        | 0 -> Ok (Codecs.flow_run.B.dec r)
        | 1 ->
            let f = Codecs.flow_failure.B.dec r in
            let reason = drop_reason_codec.B.dec r in
            Error (f, reason)
        | n -> B.corrupt "bad chain result tag %d" n
      in
      { ch_attempts; ch_result })

(* The [implement] stage's artifact: the C2V seconds and the chain. *)
let implement_codec : (float * chain) B.codec = B.pair B.float chain_codec

(* Run a candidate's CAD chain under the retry policy.  Pure in
   (project, chaos CAD plane, max_attempts): safe in the parallel
   phase. *)
let build_chain ?tracer ~chaos ~max_attempts db (project : Hw.Project.t) :
    chain =
  let key = project.Hw.Project.name in
  let rec go attempt relaxed rev =
    match
      Cad.Flow.implement_result ?tracer ~chaos ~attempt ~relaxed db project
    with
    | Ok run ->
        let rev = { att_failure = None; att_backoff_seconds = 0.0 } :: rev in
        { ch_attempts = List.rev rev; ch_result = Ok run }
    | Error f ->
        let last = attempt >= max_attempts in
        let backoff =
          if last then 0.0 else U.Retry.backoff_seconds ~key ~attempt
        in
        let rev =
          { att_failure = Some f; att_backoff_seconds = backoff } :: rev
        in
        if last then
          {
            ch_attempts = List.rev rev;
            ch_result = Error (f, Retries_exhausted);
          }
        else
          go (attempt + 1)
            (relaxed || f.Cad.Flow.fault = Cad.Faults.Timing_failure)
            rev
  in
  go 1 false []

(** One candidate staged for finalization: the (speedup-scaled) C2V
    seconds and the precomputed retry chain. *)
type staged_candidate = {
  sc_scored : Ise.Select.scored;
  sc_c2v : float;
  sc_chain : chain;
  sc_sup_wasted : float;
      (** simulated seconds of chaos stalls and supervision backoffs
          survived while staging this candidate's stages; 0 with chaos
          off.  Billed against the specialization budget in
          {!finalize}, in selection order. *)
}

(** What the supervision layer left of one candidate slot after the
    per-candidate fan-out: either its staged result, or the failure that
    poisoned it (that slot alone — the rest of the batch is kept). *)
type slot =
  | Slot_ok of staged_candidate
  | Slot_failed of slot_failure

and slot_failure = {
  sf_scored : Ise.Select.scored;
  sf_error : string;  (** printable supervision/chaos error *)
  sf_attempts : int;  (** supervised attempts at the failing site *)
  sf_wasted_seconds : float;
      (** simulated stalls and backoffs burnt before giving up *)
}

(** Output of the parallel-safe half of the process: everything up to
    — but excluding — bitstream-cache accounting, budget enforcement
    and report aggregation. *)
type staged = {
  stg_search_wall : float;
  stg_nopruning_wall : float;
  stg_pruning : Ise.Prune.selection;
  stg_all_candidates : int;
  stg_selection : Ise.Select.scored list;
  stg_total_cycles : float;
  stg_asip_ratio : Ise.Speedup.t;
  stg_asip_ratio_max : Ise.Speedup.t;
  stg_candidates : slot list;  (** in selection order *)
  stg_records : Pipeline.record list;
      (** stage-execution records accumulated so far (including any
          upstream stages run under the same {!Pipeline.ctx}) *)
}

(* ------------------------------------------------------------------ *)
(* Stage definitions.  Each stage's digest hashes exactly the canonical
   inputs its output depends on: the IR module, the profile counts, and
   the relevant Spec knobs (pruning filter, fault and retry
   configuration — seeds included).  The module and profile digests
   are computed lazily once per staging so that the default store-less
   configuration pays nothing for them. *)

(** The per-application search environment threaded through the search
    stages. *)
type env = {
  env_db : Pp.Database.t;
  env_m : Ir.Irmod.t;
  env_profile : Vm.Profile.t;
  env_mdigest : U.Digest.t Lazy.t;
  env_pdigest : U.Digest.t Lazy.t;
}

let make_env db m profile =
  {
    env_db = db;
    env_m = m;
    env_profile = profile;
    env_mdigest = lazy (Pipeline.digest_module m);
    env_pdigest = lazy (Pipeline.digest_profile profile);
  }

(* Open digest context over (module, profile) — the prefix every search
   stage extends with its own knobs. *)
let base_digest env =
  let c = U.Digest.create () in
  U.Digest.add_digest c (Lazy.force env.env_mdigest);
  U.Digest.add_digest c (Lazy.force env.env_pdigest);
  c

let add_candidate c (cd : Ise.Candidate.t) =
  U.Digest.add_string c cd.Ise.Candidate.func;
  U.Digest.add_int c cd.Ise.Candidate.block;
  U.Digest.add_string c cd.Ise.Candidate.signature

(* Phase 1a: reference search without pruning (for the efficiency
   metric and the ASIP-ratio upper bound of Table I).  Depends on the
   module and profile only. *)
let reference_stage : (env, Ise.Select.scored list) Pipeline.stage =
  Pipeline.stage ~cat:"search" "search-reference"
    ~digest:(fun _spec env -> U.Digest.finish (base_digest env))
    ~codec:Codecs.scored_list
    (fun _ctx env ->
      let all_blocks =
        List.concat_map
          (fun (f : Ir.Func.t) ->
            List.init (Ir.Func.num_blocks f) (fun l -> (f.Ir.Func.name, l)))
          env.env_m.Ir.Irmod.funcs
      in
      snd (search_blocks env.env_db env.env_m env.env_profile all_blocks))

(* Phase 1b, step 1: the [@{p}pS{k}L] pruning filter. *)
let prune_stage : (env, Ise.Prune.selection) Pipeline.stage =
  Pipeline.stage ~cat:"search" "prune"
    ~digest:(fun spec env ->
      let c = base_digest env in
      Pipeline.add_prune c spec.Spec.prune;
      U.Digest.finish c)
    ~codec:Codecs.prune_selection
    (fun ctx env ->
      Ise.Prune.apply ctx.Pipeline.spec.Spec.prune env.env_m env.env_profile)

(* Phase 1b, step 2: MAXMISO identification over the surviving blocks.
   Digested on the block list itself, so any pruning configuration that
   selects the same blocks shares the artifact. *)
let maxmiso_stage :
    (env * Ise.Prune.selection, Ise.Candidate.t list) Pipeline.stage =
  Pipeline.stage ~cat:"search" "maxmiso"
    ~digest:(fun _spec (env, pruning) ->
      let c = base_digest env in
      U.Digest.add_list c
        (fun (fn, l) ->
          U.Digest.add_string c fn;
          U.Digest.add_int c l)
        pruning.Ise.Prune.blocks;
      U.Digest.finish c)
    ~codec:Codecs.candidates
    (fun _ctx (env, pruning) -> identify env.env_m pruning.Ise.Prune.blocks)

(* Phase 1b, step 3: PivPav estimation + profitability selection. *)
let select_stage :
    (env * Ise.Candidate.t list, Ise.Select.scored list) Pipeline.stage =
  Pipeline.stage ~cat:"search" "select"
    ~digest:(fun _spec (env, candidates) ->
      let c = base_digest env in
      U.Digest.add_list c (add_candidate c) candidates;
      U.Digest.finish c)
    ~codec:Codecs.scored_list
    (fun _ctx (env, candidates) ->
      Ise.Select.select env.env_db env.env_m env.env_profile candidates)

(* Phase 2: data-path VHDL + netlist + CAD project.  Depends on the IR
   structure and the candidate identity, not on the profile — a
   retuned profile reuses every data path. *)
let vhdl_stage : (env * Ise.Select.scored, Hw.Project.t) Pipeline.stage =
  Pipeline.stage ~cat:"hwgen" "vhdl"
    ~digest:(fun _spec (env, s) ->
      let c = U.Digest.create () in
      U.Digest.add_digest c (Lazy.force env.env_mdigest);
      add_candidate c s.Ise.Select.candidate;
      U.Digest.finish c)
    ~codec:Codecs.project
    (fun _ctx (env, s) ->
      let cd = s.Ise.Select.candidate in
      let f = find_func_exn env.env_m cd.Ise.Candidate.func in
      let dfg = Ir.Dfg.of_block f (Ir.Func.block f cd.Ise.Candidate.block) in
      Hw.Project.create env.env_db dfg cd)

(* Phase 3: the candidate's full CAD retry chain plus its C2V
   constant.  The chain is a pure function of the project, the chaos
   CAD plane and the attempt limit (rolls are keyed by seed +
   signature + stage + attempt), so the digest hashes exactly those —
   the seed and the CAD rates only when the plane is on, so a config
   that differs only in other planes reuses every chain.  The
   specialization deadline is spent in {!finalize}, not here, so
   changing it reuses every chain too. *)
let chain_stage :
    (env * Ise.Select.scored * Hw.Project.t, float * chain) Pipeline.stage =
  Pipeline.stage ~cat:"cad" "implement"
    ~digest:(fun spec (env, s, _project) ->
      let c = U.Digest.create () in
      U.Digest.add_digest c (Lazy.force env.env_mdigest);
      add_candidate c s.Ise.Select.candidate;
      let ch = spec.Spec.chaos in
      let cad_on = U.Chaos.cad_on ch in
      U.Digest.add_bool c cad_on;
      if cad_on then begin
        U.Digest.add_int c ch.U.Chaos.seed;
        U.Digest.add_float c ch.U.Chaos.cad_crash_rate;
        U.Digest.add_float c ch.U.Chaos.cad_congestion_rate;
        U.Digest.add_float c ch.U.Chaos.cad_timing_rate;
        U.Digest.add_float c ch.U.Chaos.cad_corruption_rate
      end;
      U.Digest.add_int c spec.Spec.retry.U.Retry.max_attempts;
      U.Digest.finish c)
    ~codec:implement_codec
    (fun ctx (env, _s, project) ->
      let spec = ctx.Pipeline.spec in
      let c2v = Cad.Flow.c2v_seconds project in
      let chain =
        build_chain ?tracer:spec.Spec.tracer ~chaos:spec.Spec.chaos
          ~max_attempts:spec.Spec.retry.U.Retry.max_attempts env.env_db project
      in
      (c2v, chain))

(** Phase 1 + the per-candidate hardware generation, with no shared
    state beyond the (thread-safe) PivPav database and the (thread-safe)
    artifact store: safe to run for many applications concurrently.
    The candidates of this one application run serially, on the
    calling domain.  Use this entry point to share a
    {!Pipeline.ctx} (and its record log) with upstream stages, as
    {!Experiment.prepare} does; {!stage} wraps it for standalone use. *)
let stage_in (ctx : Pipeline.ctx) (db : Pp.Database.t) (m : Ir.Irmod.t)
    (profile : Vm.Profile.t) ~total_cycles : staged =
  let spec = ctx.Pipeline.spec in
  let env = make_env db m profile in
  let selection_nopruning, nopruning_wall =
    wall (fun () -> Pipeline.exec ctx reference_stage env)
  in
  let (pruning, candidates, selection), search_wall =
    wall (fun () ->
        let pruning = Pipeline.exec ctx prune_stage env in
        let candidates = Pipeline.exec ctx maxmiso_stage (env, pruning) in
        let selection = Pipeline.exec ctx select_stage (env, candidates) in
        (pruning, candidates, selection))
  in
  let asip_ratio = Ise.Speedup.of_selection ~total_cycles selection in
  let asip_ratio_max =
    Ise.Speedup.of_selection ~total_cycles selection_nopruning
  in
  (* Phases 2 and 3 for every selected candidate, serially:
     [Experiment.sweep] already spreads the applications over domains,
     and this per-candidate work (VHDL plus the simulated CAD chain) is
     too small to pay for domains of its own.  The flow simulation and
     its fault chain are deterministically seeded by the candidate
     signature, and the chaos pool plane rolls per candidate site, so
     outcomes do not depend on the sweep's domain count.  Failures are
     isolated per slot: a candidate whose stages the supervisor gave up
     on (or whose pool-plane roll the chaos model poisoned) degrades
     that one slot to [Slot_failed] — everyone else's completed work is
     kept.  Each slot gets its own waste meter so the simulated cost of
     surviving (or not) chaos is billed in slot order.  Real bugs —
     exceptions that are neither chaos injections nor supervision
     verdicts — propagate. *)
  let chaos = spec.Spec.chaos in
  let stage_slot (s : Ise.Select.scored) =
    let meter = U.Supervisor.meter () in
    let detail = s.Ise.Select.candidate.Ise.Candidate.signature in
    let failed ~attempts error =
      Slot_failed
        {
          sf_scored = s;
          sf_error = error;
          sf_attempts = attempts;
          sf_wasted_seconds = U.Supervisor.spent meter;
        }
    in
    try
      if U.Chaos.pool_crash chaos ~site:(ctx.Pipeline.app ^ "/" ^ detail)
      then U.Chaos.inject "pool" detail;
      let project = Pipeline.exec ctx ~detail ~meter vhdl_stage (env, s) in
      let c2v, chain =
        Pipeline.exec ctx ~detail ~meter chain_stage (env, s, project)
      in
      Slot_ok
        {
          sc_scored = s;
          sc_c2v = c2v;
          sc_chain = chain;
          sc_sup_wasted = U.Supervisor.spent meter;
        }
    with
    | U.Supervisor.Stage_failed f ->
        failed ~attempts:f.U.Supervisor.f_attempts
          (U.Supervisor.error_name f.U.Supervisor.f_error)
    | U.Chaos.Injected what -> failed ~attempts:1 ("worker crash: " ^ what)
  in
  let stg_candidates = List.map stage_slot selection in
  {
    stg_search_wall = search_wall;
    stg_nopruning_wall = nopruning_wall;
    stg_pruning = pruning;
    stg_all_candidates = List.length candidates;
    stg_selection = selection;
    stg_total_cycles = total_cycles;
    stg_asip_ratio = asip_ratio;
    stg_asip_ratio_max = asip_ratio_max;
    stg_candidates;
    stg_records = Pipeline.records ctx;
  }

(** Standalone staging: a fresh {!Pipeline.ctx} from [spec] and [app]
    (trace-span labels and artifact-store attribution). *)
let stage ?(spec = Spec.default) ?(app = "") (db : Pp.Database.t)
    (m : Ir.Irmod.t) (profile : Vm.Profile.t) ~total_cycles : staged =
  stage_in (Pipeline.context ~spec ~app ()) db m profile ~total_cycles

(* The bitstream store's one key (Section VI-A): a built data path's
   bitstream under the digest of its structural signature.  No codec,
   so bitstreams never reach a persistent backend. *)
let bitstream_key : Cad.Bitstream.t U.Artifact.key =
  U.Artifact.key "cad.bitstream"

(** Replay the staged candidates against the bitstream store (the
    shared one from [spec.cache] if present, a fresh run-local one
    otherwise), in selection order, and aggregate the report.  Cheap
    and sequential: a sweep calls this once per application in a fixed
    order so that local/shared hit attribution is deterministic.

    Each slot probes the store with {!U.Artifact.find} and records its
    bitstream with {!U.Artifact.put} only after its chain {e
    succeeded}, so a failed run is never served to another
    application.  This is also where recovery policy is applied: the
    whole-specialization deadline is spent in selection order, and a
    slot that cannot be built becomes a {!dropped} one. *)
let finalize ?(spec = Spec.default) ~app (st : staged) : report =
  let store =
    match spec.Spec.cache with Some s -> s | None -> U.Artifact.create ()
  in
  let budget =
    U.Retry.budget spec.Spec.retry.U.Retry.specialization_deadline_seconds
  in
  (* Decide one slot: supervision failure (waste billed, software
     fallback), cache hit (free, always allowed; survived chaos stalls
     still billed), successful chain (billed against the budget,
     recorded in the cache), or permanent CAD failure (waste billed,
     nothing recorded, software fallback).  A slot reached after the
     budget ran out is dropped unbilled, unless it is a cache hit. *)
  let resolve idx (slot : slot) : (candidate_result, dropped) Either.t =
    let drop drop_scored drop_reason ?cause ~attempts wasted =
      Either.Right
        {
          drop_scored;
          drop_reason;
          drop_cause = cause;
          drop_attempts = attempts;
          drop_wasted_seconds = wasted;
          drop_at_index = idx;
        }
    in
    match slot with
    | Slot_failed sf ->
        if U.Retry.exhausted budget then
          drop sf.sf_scored Specialization_deadline ~attempts:0 0.0
        else begin
          U.Retry.spend budget sf.sf_wasted_seconds;
          drop sf.sf_scored Stage_failure
            ~cause:(Supervision_error sf.sf_error) ~attempts:sf.sf_attempts
            sf.sf_wasted_seconds
        end
    | Slot_ok sc -> (
        let s = sc.sc_scored in
        let digest =
          U.Digest.of_string s.Ise.Select.candidate.Ise.Candidate.signature
        in
        let built run ~hit ~c2v ~total ~attempts ~failed ~wasted =
          Either.Left
            {
              scored = s;
              c2v_seconds = c2v;
              run;
              cache_hit = hit;
              total_seconds = total;
              attempts;
              failed_attempts = failed;
              wasted_seconds = wasted;
            }
        in
        match sc.sc_chain.ch_result with
        | Ok run -> (
            match U.Artifact.find store bitstream_key ~app ~digest with
            | Some (_, hit) ->
                (* The bitstream is free, but the chaos stalls survived
                   while staging this candidate's stages were still
                   simulated time: bill them (a hit is always taken,
                   even past the deadline). *)
                U.Retry.spend budget sc.sc_sup_wasted;
                built run ~hit:(Some hit) ~c2v:0.0 ~total:0.0 ~attempts:0
                  ~failed:0 ~wasted:sc.sc_sup_wasted
            | None ->
                if U.Retry.exhausted budget then
                  drop s Specialization_deadline ~attempts:0 0.0
                else begin
                  let wasted =
                    chain_wasted_seconds sc.sc_chain +. sc.sc_sup_wasted
                  in
                  let total = sc.sc_c2v +. run.Cad.Flow.total_seconds in
                  U.Retry.spend budget (total +. wasted);
                  U.Artifact.put store bitstream_key ~app ~digest
                    run.Cad.Flow.bitstream;
                  built run ~hit:None ~c2v:sc.sc_c2v ~total
                    ~attempts:(List.length sc.sc_chain.ch_attempts)
                    ~failed:(chain_failed_attempts sc.sc_chain)
                    ~wasted
                end)
        | Error (f, reason) ->
            (* No cache probe: fault rolls are seeded by the signature
               alone, so a permanently failing signature fails
               identically in every application of the sweep and can
               never have been recorded — the probe would be a
               guaranteed miss. *)
            if U.Retry.exhausted budget then
              drop s Specialization_deadline ~attempts:0 0.0
            else begin
              let wasted =
                sc.sc_c2v +. chain_wasted_seconds sc.sc_chain
                +. sc.sc_sup_wasted
              in
              U.Retry.spend budget wasted;
              drop s reason ~cause:(Cad_failure f)
                ~attempts:(List.length sc.sc_chain.ch_attempts)
                wasted
            end)
  in
  let results = List.mapi resolve st.stg_candidates in
  let candidates =
    List.filter_map
      (function Either.Left c -> Some c | Either.Right _ -> None)
      results
  in
  let dropped =
    List.filter_map
      (function Either.Right d -> Some d | Either.Left _ -> None)
      results
  in
  let sum get =
    List.fold_left
      (fun acc c -> if c.cache_hit <> None then acc else acc +. get c)
      0.0 candidates
  in
  let const_seconds =
    sum (fun c -> c.c2v_seconds +. Cad.Flow.constant_seconds c.run)
  in
  let map_seconds = sum (fun c -> Cad.Flow.stage_seconds c.run Cad.Flow.Map) in
  let par_seconds =
    sum (fun c -> Cad.Flow.stage_seconds c.run Cad.Flow.Place_and_route)
  in
  let wasted_seconds =
    List.fold_left
      (fun acc (c : candidate_result) -> acc +. c.wasted_seconds)
      0.0 candidates
    +. List.fold_left (fun acc d -> acc +. d.drop_wasted_seconds) 0.0 dropped
  in
  let total_attempts =
    List.fold_left
      (fun acc (c : candidate_result) -> acc + c.attempts)
      0 candidates
    + List.fold_left (fun acc d -> acc + d.drop_attempts) 0 dropped
  in
  let failed_attempts =
    List.fold_left
      (fun acc (c : candidate_result) -> acc + c.failed_attempts)
      0 candidates
    + List.fold_left (fun acc d -> acc + d.drop_attempts) 0 dropped
  in
  let stage_failures =
    List.length (List.filter (fun d -> d.drop_reason = Stage_failure) dropped)
  in
  let deadline_exceeded =
    U.Retry.exhausted budget
    || List.exists (fun d -> d.drop_reason = Specialization_deadline) dropped
  in
  let pruning_efficiency =
    let safe x = Float.max x 1e-9 in
    st.stg_asip_ratio.Ise.Speedup.ratio /. safe st.stg_search_wall
    /. (st.stg_asip_ratio_max.Ise.Speedup.ratio /. safe st.stg_nopruning_wall)
  in
  (* Degradation changes what is actually in hardware; the speedup is
     over the implemented slots.  When nothing is dropped that list IS
     the selection, and this is the staged value's fold, bit for bit. *)
  let asip_ratio =
    Ise.Speedup.of_selection ~total_cycles:st.stg_total_cycles
      (List.map (fun c -> c.scored) candidates)
  in
  {
    search_wall_seconds = st.stg_search_wall;
    pruning_efficiency;
    searched_blocks = List.length st.stg_pruning.Ise.Prune.blocks;
    searched_instrs = st.stg_pruning.Ise.Prune.selected_instrs;
    selection = st.stg_selection;
    all_candidates = st.stg_all_candidates;
    candidates;
    dropped;
    const_seconds;
    map_seconds;
    par_seconds;
    wasted_seconds;
    sum_seconds = const_seconds +. map_seconds +. par_seconds +. wasted_seconds;
    total_attempts;
    failed_attempts;
    stage_failures;
    deadline_exceeded;
    asip_ratio;
    asip_ratio_max = st.stg_asip_ratio_max;
    stage_records = st.stg_records;
  }

(** Run the complete specialization process on a profiled module.

    @param spec the unified pipeline configuration ({!Spec.default}
    reproduces the paper's setup: [@50pS3L] pruning, EAPR CAD flow,
    serial, run-local cache, no fault injection; selection has no
    settings and keeps every profitable candidate of up to
    {!Ise.Select.max_inputs} inputs)
    @param app application name for cache attribution and trace labels
    (defaults to the module name)
    @param total_cycles native cycles of the profiling run, for the
    application-level speedup accounting *)
let run_spec ?(spec = Spec.default) ?app (db : Pp.Database.t)
    (m : Ir.Irmod.t) (profile : Vm.Profile.t) ~total_cycles : report =
  let app = match app with Some a -> a | None -> m.Ir.Irmod.mname in
  finalize ~spec ~app (stage ~spec ~app db m profile ~total_cycles)

(** Per-application local and shared bitstream-cache hit counts of a
    report. *)
let cache_hit_counts (r : report) : int * int =
  List.fold_left
    (fun (l, s) c ->
      match c.cache_hit with
      | Some U.Artifact.Local -> (l + 1, s)
      | Some U.Artifact.Shared -> (l, s + 1)
      | None -> (l, s))
    (0, 0) r.candidates

(** The [[cache]] line for a shared bitstream store: data paths built
    (one store entry each), local and shared hits, the built
    bitstreams' bytes and the CAD seconds the hits avoided, summed over
    every report finalized against the store. *)
let pp_cache_summary ppf (reports : report list) =
  let candidates = List.concat_map (fun r -> r.candidates) reports in
  let built, hits = List.partition (fun c -> c.cache_hit = None) candidates in
  let count kind =
    List.length (List.filter (fun c -> c.cache_hit = Some kind) hits)
  in
  let bitstream c = c.run.Cad.Flow.bitstream in
  Format.fprintf ppf
    "%d bitstream(s), %d local + %d shared hit(s), %d bytes, %.1f s of CAD saved"
    (List.length built) (count U.Artifact.Local) (count U.Artifact.Shared)
    (List.fold_left
       (fun acc c -> acc + (bitstream c).Cad.Bitstream.size_bytes)
       0 built)
    (List.fold_left
       (fun acc c -> acc +. (bitstream c).Cad.Bitstream.generation_seconds)
       0.0 hits)

(** Per-candidate cache cost records for the Table IV extrapolation. *)
let candidate_costs (r : report) : Jitise_analysis.Cache_model.candidate_cost list =
  List.map
    (fun c ->
      {
        Jitise_analysis.Cache_model.signature =
          c.scored.Ise.Select.candidate.Ise.Candidate.signature;
        generation_seconds = c.total_seconds;
      })
    r.candidates
