(** The staged pipeline engine.

    The ASIP specialization process is an explicit stage chain (profile
    → prune → MAXMISO → estimate/select → netlist → CAD implement); a
    [('i, 'o) stage] bundles a name, an optional {e digest function}
    over its canonical inputs, an optional artifact {e codec}, and a
    run function.  {!exec} wraps every stage uniformly with a trace
    span, a {!record} of wall time and outcome, and — when
    [spec.stage_cache] is set and the stage has a digest — memoization
    through the content-addressed {!Jitise_util.Artifact} store.  With
    a persistent store backend ([Spec.with_store_dir]) stages whose
    keys carry a codec are also served across process restarts.

    Stage bodies must be deterministic functions of their inputs for
    memoization to be sound; everything measured (wall clocks) lives
    outside the stage values, in {!record}s. *)

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

val outcome_name : outcome -> string

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

val context : ?spec:Spec.t -> ?app:string -> unit -> ctx
(** A fresh per-run context. *)

val records : ctx -> record list
(** Records in execution order: every stage of one context runs on
    the calling domain, so this is program order. *)

type ('i, 'o) stage

val stage :
  ?cat:string ->
  ?digest:(Spec.t -> 'i -> U.Digest.t) ->
  ?codec:'o U.Binio.codec ->
  string ->
  (ctx -> 'i -> 'o) ->
  ('i, 'o) stage
(** Define a stage.  Call once, at module initialization: the stage
    value owns the typed artifact-store slot for its name, and the name
    must be unique across the program.  Without [digest] the stage is
    never memoized; [codec] additionally makes its artifacts
    persistable through a byte backend (see {!Jitise_util.Artifact} and
    {!Codecs}) — without one the stage is memoized in-process only. *)

val exec :
  ?detail:string -> ?meter:U.Supervisor.meter -> ctx -> ('i, 'o) stage -> 'i -> 'o
(** Execute a stage under supervision ([ctx.sup]): trace span, chaos
    stage-plane injection (stalls and transient crashes, rolled per
    (span label, attempt) {e before} the store probe so warm and cold
    runs replay identically), artifact-store probe (when both a store
    and a digest function exist), body on miss, record either way.
    [detail] extends the span label ([name:detail:app]) for
    per-candidate stages without splintering the stats key; [meter]
    redirects simulated supervision waste into a per-item account
    instead of the context's run budget (per-candidate fan-outs bill
    it sequentially later).

    @raise U.Supervisor.Stage_failed when retries, the stage deadline
    or the run deadline give out; a {!Failed} record is noted first.
    Non-transient exceptions from the stage body propagate
    unchanged. *)

(** {1 Canonical-input digest helpers}

    Shared by the stage definitions in {!Asip_sp} and {!Experiment}.
    Everything a stage's output depends on must be fed; nothing
    measured may be. *)

val digest_module : Ir.Irmod.t -> U.Digest.t
(** Digest of the module's {!Codecs.irmod} bytes, the same encoding the
    store keeps: structurally equal modules digest equally, and a
    module decoded from the store digests like the one that was
    encoded, so warm runs hit the downstream stages. *)

val digest_profile : Vm.Profile.t -> U.Digest.t
(** Digest of a profile's sorted (func, label, count) triples plus the
    dynamic instruction count. *)

val add_prune : U.Digest.ctx -> Ise.Prune.t -> unit
