(** The staged pipeline engine.

    The ASIP specialization process is an explicit stage chain (profile
    → prune → MAXMISO → estimate/select → netlist → CAD implement), and
    PRs 1–2 hand-wove tracing, retry, fault handling and bitstream
    caching into each call site of that chain.  This module makes the
    stages first-class instead: a [('i, 'o) stage] bundles a name, an
    optional {e digest function} over its canonical inputs and a run
    function, and {!exec} wraps every stage uniformly with

    - a {!Jitise_util.Trace} span (same [stage:detail:app] labels the
      monolithic orchestrator used),
    - a {!record} of wall time and outcome for
      [Jit_manager.timeline]/[Experiment]/test consumption, and
    - optional memoization through a content-addressed
      {!Jitise_util.Artifact} store ([spec.stage_cache]).

    The digest function hashes exactly the inputs the stage's output
    depends on — the IR module, profile counts, the relevant [Spec] knobs,
    fault/retry configuration and seeds — so a sweep point re-runs only
    the stages whose inputs actually changed: varying only the pruning
    filter across sweep points reuses the compile/profile/coverage/
    kernel/reference-search artifacts outright, with the same
    Local/Shared hit attribution as the bitstream store.

    With [spec.stage_cache = None] (the default) the engine degrades to
    pure tracing + recording: no digests are computed and behaviour is
    identical to the pre-refactor orchestrator.  Stage bodies must be
    deterministic functions of their inputs for memoization to be
    sound; everything measured (wall clocks) lives outside the stage
    values, in {!record}s. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module Ise = Jitise_ise
module U = Jitise_util

(** How one stage execution was satisfied. *)
type outcome =
  | Computed  (** the stage body ran *)
  | Hit of U.Artifact.hit
      (** served from the artifact store; [Local] if this application
          built it, [Shared] if another one did *)
  | Failed of string
      (** the supervisor gave up on the execution ({!U.Supervisor}
          error name); the matching {!U.Supervisor.Stage_failed}
          exception was re-raised to the caller *)

let outcome_name = function
  | Computed -> "computed"
  | Hit h -> U.Artifact.hit_name h ^ " stage-cache hit"
  | Failed e -> "failed: " ^ e

(** One stage execution, as consumed by [Jit_manager.timeline]. *)
type record = {
  rec_stage : string;
  rec_wall_seconds : float;  (** measured; ~0 on a hit *)
  rec_outcome : outcome;
}

(** Per-application execution context: the spec, the app label for
    trace spans and cache attribution, and the record log.  The log is
    mutex-protected, so a context is safe to share between domains.
    Each application's stages run one after another on the domain that
    calls {!exec}; a stage body may fan out on {!Jitise_util.Pool} (the
    profile stage runs its datasets concurrently), but records are
    written only by [exec], on that domain. *)
type ctx = {
  spec : Spec.t;
  app : string;
  records : record list ref;
  lock : Mutex.t;
  sup : U.Supervisor.t;
      (** the run's supervisor: policy from [spec.supervisor] and one
          run budget per context *)
}

let context ?(spec = Spec.default) ?(app = "") () =
  {
    spec;
    app;
    records = ref [];
    lock = Mutex.create ();
    sup = U.Supervisor.create ~policy:spec.Spec.supervisor ();
  }

(** Records in execution order: every stage of one context runs on
    the calling domain, so this is program order. *)
let records ctx = List.rev !(ctx.records)

type ('i, 'o) stage = {
  stage_name : string;
  stage_cat : string;  (** trace-span category *)
  stage_digest : (Spec.t -> 'i -> U.Digest.t) option;
      (** digest of the canonical inputs; [None] = never memoized
          (e.g. a stage whose output is not worth storing) *)
  stage_key : 'o U.Artifact.key;
  stage_body : ctx -> 'i -> 'o;
}

(** Define a stage.  Call once, at module initialization: the stage
    value owns the typed artifact-store slot for its name, and the name
    must be unique across the program.  [codec] makes the stage's
    artifacts persistable through a byte backend (see
    {!Jitise_util.Artifact} and {!Codecs}); without one the stage is
    memoized in-process only. *)
let stage ?(cat = "pipeline") ?digest ?codec name body =
  {
    stage_name = name;
    stage_cat = cat;
    stage_digest = digest;
    stage_key = U.Artifact.key ?codec name;
    stage_body = body;
  }

(** Execute a stage under supervision: trace span, chaos stage-plane
    injection, artifact-store probe (when both a store and a digest
    function exist), body on miss, record either way.  [detail]
    extends the span label ([name:detail:app]) for per-candidate
    stages without splintering the stats key.

    The span label doubles as the supervision {e site}: chaos stalls
    and crashes are rolled per (site, attempt) {e before} the store
    probe, so warm and cold runs see identical injections, and a
    chaos-injected crash is retried by the supervisor (with the
    deterministic backoff of the site key) up to the policy's attempt
    budget.  [meter] redirects the execution's simulated waste into a
    per-item account — per-candidate fan-outs use one meter per
    candidate so the waste can be billed sequentially in
    [Asip_sp.finalize]; without it the waste charges the context's run
    budget directly.

    On terminal supervision failure a {!Failed} record is noted and
    {!U.Supervisor.Stage_failed} propagates; non-transient exceptions
    propagate unchanged (bugs stay visible). *)
let exec ?detail ?meter ctx (s : ('i, 'o) stage) (input : 'i) : 'o =
  let label =
    let base =
      match detail with None -> s.stage_name | Some d -> s.stage_name ^ ":" ^ d
    in
    if ctx.app = "" then base else base ^ ":" ^ ctx.app
  in
  U.Trace.span ctx.spec.Spec.tracer ~cat:s.stage_cat label (fun () ->
      let t0 = Unix.gettimeofday () in
      let note rec_outcome =
        let r =
          {
            rec_stage = s.stage_name;
            rec_wall_seconds = Unix.gettimeofday () -. t0;
            rec_outcome;
          }
        in
        Mutex.protect ctx.lock (fun () -> ctx.records := r :: !(ctx.records))
      in
      let chaos = ctx.spec.Spec.chaos in
      let attempt_body ~attempt ~stall =
        (match U.Chaos.stage_stall chaos ~site:label ~attempt with
        | Some seconds -> stall seconds
        | None -> ());
        if U.Chaos.stage_crash chaos ~site:label ~attempt then
          U.Chaos.inject "stage" label;
        match (ctx.spec.Spec.stage_cache, s.stage_digest) with
        | Some store, Some digest_of -> (
            let digest = digest_of ctx.spec input in
            match U.Artifact.find store s.stage_key ~app:ctx.app ~digest with
            | Some (v, h) -> (Hit h, v)
            | None ->
                let v = s.stage_body ctx input in
                U.Artifact.put store s.stage_key ~app:ctx.app ~digest v;
                (Computed, v))
        | _ -> (Computed, s.stage_body ctx input)
      in
      match
        U.Supervisor.supervise ctx.sup ~site:label
          ~transient:U.Chaos.is_injected ?meter attempt_body
      with
      | outcome, v ->
          note outcome;
          v
      | exception (U.Supervisor.Stage_failed f as e) ->
          note (Failed (U.Supervisor.error_name f.U.Supervisor.f_error));
          raise e)

(* ------------------------------------------------------------------ *)
(* Canonical-input digest helpers shared by the stage definitions in
   Asip_sp and Experiment.  Everything a stage's output depends on must
   be fed; nothing measured may be. *)

module D = U.Digest

let digest_module (m : Ir.Irmod.t) =
  D.of_string (U.Binio.encode Codecs.irmod m)

(** Digest of a profile's sorted (func, label, count) triples plus the
    dynamic instruction count. *)
let digest_profile (p : Vm.Profile.t) =
  let c = D.create () in
  List.iter
    (fun (fn, l, n) ->
      D.add_string c fn;
      D.add_int c l;
      D.add_int64 c n)
    (Vm.Profile.to_list p);
  D.add_int64 c p.Vm.Profile.executed_instrs;
  D.finish c

let add_prune c (p : Ise.Prune.t) =
  D.add_float c p.Ise.Prune.coverage_percent;
  D.add_int c p.Ise.Prune.top_blocks
