(** Unified pipeline configuration.

    One value configures the whole sweep engine: the pruning filter
    plus the engine knobs — shared bitstream cache, span tracer, stage
    cache (and its backend), and the fault, retry and supervision
    policies.  Candidate selection has no knobs: every profitable
    candidate is implemented, as in the paper.  The domain count is an
    argument of {!Experiment.sweep}, its only reader.

    Build a spec from {!default} with the [with_*] setters:

    {[
      let spec =
        Spec.default
        |> Spec.with_cache (Jitise_util.Artifact.create ())
        |> Spec.with_store_dir "/var/cache/jitise"
      in
      Experiment.sweep ~jobs:4 ~spec db
    ]} *)

module Ise = Jitise_ise
module U = Jitise_util
module Vm = Jitise_vm
module Wool = Jitise_woolcano

(** Closed-loop (online) specialization knobs — consulted only by
    [Jit_manager.online]; the batch sweep and its stage digests never
    read them, so loop-off output is unaffected. *)
type online = {
  slots : int;  (** partial-reconfiguration slots on the fabric *)
  evict : Wool.Asip.policy;  (** eviction policy when all slots are full *)
  window : int;  (** block executions per phase-profile window *)
  decay : float;  (** history weight when a window closes, in [0, 1) *)
  latency_scale : float;
      (** divide simulated CAD seconds by this factor; > 1 models a
          pre-generated bitstream library / CAD farm (see DESIGN.md
          §12) *)
}

val default_online : online

type t = {
  prune : Ise.Prune.t;  (** block filter, default the paper's [@50pS3L] *)
  cache : U.Artifact.t option;
      (** shared bitstream store, keyed by structural signature;
          [None] (the default) reuses data paths within one
          specialization run only, [Some store] also shares them
          across applications (Section VI-A).  Separate from
          [stage_cache], so a stage cache alone never shares
          bitstreams across applications. *)
  tracer : U.Trace.t option;
      (** when set, every pipeline stage records a span; export with
          {!U.Trace.write} *)
  stage_cache : U.Artifact.t option;
      (** content-addressed artifact store for whole-stage memoization
          ([None], the default, recomputes every stage).  [Some store]
          lets a sweep point reuse any stage artifact whose input
          digest is unchanged — e.g. a sweep varying only [prune]
          re-executes zero compile/profile/coverage/kernel stages.
          Orthogonal to [cache], which shares {e bitstreams} across
          applications at a finer grain. *)
  retry : U.Retry.policy;
      (** CAD recovery policy: attempts per data path (they matter only
          when the CAD plane of [chaos] is on) and the
          whole-specialization deadline (always spent; the default has
          none) *)
  vm_engine : Vm.Machine.engine;
      (** VM execution engine used by the profiling stage (default
          {!Vm.Machine.Threaded}).  Outcomes — and therefore reports
          and stage digests — are engine-invariant; the knob exists for
          semantics cross-checks and benchmarking. *)
  vm_tuning : Vm.Machine.tuning;
      (** threaded-engine optimization knobs (block linking,
          compare-and-branch fusion, CI-native dispatch, typed
          registers; default
          {!Vm.Machine.default_tuning}).  Like [vm_engine], outcomes
          are tuning-invariant, so the field is excluded from stage
          digests. *)
  chaos : U.Chaos.config;
      (** the one fault model: stage crashes/stalls, pool worker
          poisoning, store I/O faults and CAD tool-flow failures, under
          one seed; {!U.Chaos.none} (the default) reproduces the
          fault-free pipeline byte for byte *)
  supervisor : U.Supervisor.policy;
      (** supervision policy for pipeline-stage executions: transient
          retry, per-stage stall deadline, whole-run waste deadline.
          With the default policy and [chaos] off, supervision is
          behaviour-neutral. *)
  online : online;
      (** closed-loop runtime configuration ({!default_online});
          consulted only by the online controller *)
}

val default : t

val with_prune : Ise.Prune.t -> t -> t

val with_cache : U.Artifact.t -> t -> t
val with_tracer : U.Trace.t -> t -> t

val with_stage_cache : U.Artifact.t -> t -> t
(** Memoize stages through [store]; {!U.Artifact.backend_kind} tells
    which byte backend, if any, it sits on. *)

val with_store_dir : string -> t -> t
(** [with_store_dir dir t] builds a fresh artifact store over
    {!U.Store_disk} rooted at [dir] (created if missing) and installs
    it as [stage_cache] — the one-call way to get persistent, warm-
    restartable stage memoization.  The store chaos planes are wired
    in from [t.chaos] at construction time, so apply {!with_chaos}
    {e before} this when combining them. *)

val with_retry : U.Retry.policy -> t -> t
(** @raise Invalid_argument on an invalid retry policy. *)

val with_vm_engine : Vm.Machine.engine -> t -> t

val with_vm_tuning : Vm.Machine.tuning -> t -> t
(** @raise Invalid_argument when [max_linked_blocks < 1]. *)

val with_chaos : U.Chaos.config -> t -> t
(** @raise Invalid_argument on an out-of-range chaos configuration, or
    when [stage_cache] already sits on a byte backend and the config
    has a positive store-plane rate: that backend was wired with the
    earlier config, so set chaos before {!with_store_dir}. *)

val with_supervisor : U.Supervisor.policy -> t -> t
(** @raise Invalid_argument on an invalid supervision policy. *)

val with_online : online -> t -> t
(** @raise Invalid_argument when [slots < 1], [window < 1], [decay]
    outside [0, 1) or [latency_scale <= 0]. *)
