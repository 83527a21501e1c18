(** Unified pipeline configuration.

    One value configures the whole sweep engine: the pruning filter
    plus the engine knobs — the shared bitstream cache, the span
    tracer, the stage cache and the fault, retry and supervision
    policies.  Selection has no knobs, and the domain count is an
    argument of {!Experiment.sweep}.

    Build a spec from {!default} with the [with_*] setters:

    {[
      let spec =
        Spec.default
        |> Spec.with_cache (Jitise_util.Artifact.create ())
        |> Spec.with_tracer (Jitise_util.Trace.create ())
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
      (** divide simulated CAD seconds by this factor.  1.0 charges the
          full offline CAD wall time (hundreds of seconds — no feasible
          VM run amortizes it); larger values model a pre-generated
          bitstream library / CAD farm where most of the flow is
          already done and only residual work plus the reconfiguration
          remains (cf. the FPGA-extended GPC system in PAPERS.md). *)
}

let default_online =
  {
    slots = 2;
    evict = Wool.Asip.Lru;
    window = 2048;
    decay = 0.5;
    latency_scale = 100_000.0;
  }

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

let default =
  {
    prune = Ise.Prune.at_50p_s3l;
    cache = None;
    tracer = None;
    stage_cache = None;
    retry = U.Retry.default;
    vm_engine = Vm.Machine.default_engine;
    vm_tuning = Vm.Machine.default_tuning;
    chaos = U.Chaos.none;
    supervisor = U.Supervisor.default_policy;
    online = default_online;
  }

let validate_online (o : online) =
  if o.slots < 1 then
    invalid_arg
      (Printf.sprintf "Spec.with_online: slots must be >= 1 (got %d)" o.slots);
  if o.window < 1 then
    invalid_arg
      (Printf.sprintf "Spec.with_online: window must be >= 1 (got %d)" o.window);
  if o.decay < 0.0 || o.decay >= 1.0 then
    invalid_arg
      (Printf.sprintf "Spec.with_online: decay must be in [0, 1) (got %g)"
         o.decay);
  if o.latency_scale <= 0.0 then
    invalid_arg
      (Printf.sprintf "Spec.with_online: latency_scale must be > 0 (got %g)"
         o.latency_scale)

let with_prune prune t = { t with prune }

let with_cache cache t = { t with cache = Some cache }
let with_tracer tracer t = { t with tracer = Some tracer }

let with_stage_cache store t = { t with stage_cache = Some store }

(* The store chaos planes ride on the spec's chaos config and the
   backend is wrapped at construction time, so [with_chaos] must come
   first; it refuses store faults once a byte backend exists. *)
let with_store_dir dir t =
  let backend =
    U.Chaos.wrap_backend t.chaos
      (U.Store_disk.backend ~chaos:t.chaos ~root:dir ())
  in
  with_stage_cache (U.Artifact.create ~backend ()) t

let with_retry retry t =
  U.Retry.validate retry;
  { t with retry }

let with_vm_engine vm_engine t = { t with vm_engine }

let with_vm_tuning (vm_tuning : Vm.Machine.tuning) t =
  if vm_tuning.Vm.Machine.max_linked_blocks < 1 then
    invalid_arg
      (Printf.sprintf
         "Spec.with_vm_tuning: max_linked_blocks must be >= 1 (got %d)"
         vm_tuning.Vm.Machine.max_linked_blocks);
  { t with vm_tuning }

let with_chaos chaos t =
  U.Chaos.validate chaos;
  let store_faults =
    chaos.U.Chaos.store_read_error_rate > 0.0
    || chaos.store_write_drop_rate > 0.0
    || chaos.store_torn_rate > 0.0
    || chaos.store_latency_rate > 0.0
  in
  if store_faults && Option.bind t.stage_cache U.Artifact.backend_kind <> None
  then
    invalid_arg
      "Spec.with_chaos: the stage cache already has a byte backend, which \
       cannot take store faults any more; apply with_chaos before \
       with_store_dir";
  { t with chaos }

let with_supervisor supervisor t =
  U.Supervisor.validate_policy supervisor;
  { t with supervisor }

let with_online online t =
  validate_online online;
  { t with online }
