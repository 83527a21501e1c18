(** The just-in-time customization controller, in two forms.

    {!timeline} replays a finished specialization {e plan} against the
    concurrent-execution model of the paper: the application keeps
    running on the plain CPU while the CAD flow builds bitstreams on
    the host, and the timeline answers when the customized system
    overtakes a plain-CPU system started at the same moment.

    {!online} closes the loop: the application runs on the VM under a
    per-block monitor; a sliding-window phase profile drives launch,
    cancellation, load and eviction decisions against a modeled
    partial-reconfiguration fabric, and custom instructions are
    hot-swapped between software and hardware cost mid-run.  See
    DESIGN.md §12. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Cad = Jitise_cad
module Wool = Jitise_woolcano
module W = Jitise_workloads

(* ------------------------------------------------------------------ *)
(* Offline timeline replay                                             *)
(* ------------------------------------------------------------------ *)

type event = {
  at_seconds : float;  (** simulated time since specialization start *)
  what : string;
}

type timeline = {
  events : event list;  (** chronological *)
  specialization_seconds : float;  (** full ASIP-SP duration *)
  reconfiguration_seconds : float;
  speedup : float;  (** application ratio after adaptation *)
}

(** Simulate the concurrent-specialization timeline for a profiled
    module.  [report] must come from {!Asip_sp.run_spec} on the same
    profile.  [jobs] is the number of concurrent CAD tool-flow
    instances on the host (default 1); [specialization_seconds] is the
    makespan of the greedy earliest-lane schedule.
    @raise Invalid_argument when [jobs < 1]. *)
val timeline : ?jobs:int -> Asip_sp.report -> timeline

val pp_timeline : Format.formatter -> timeline -> unit

(* ------------------------------------------------------------------ *)
(* Closed-loop (online) adaptive specialization                        *)
(* ------------------------------------------------------------------ *)

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
  run_swaps : int;  (** software -> hardware rebinds *)
}

type online_report = {
  o_app : string;
  o_dataset : string;  (** dataset label the loop ran on *)
  o_slots : int;
  o_policy : Wool.Asip.policy;
  o_window : int;
  o_cis : int;  (** implemented custom instructions available *)
  o_adaptive : online_run;  (** the closed loop *)
  o_oracle : online_run;
      (** static whole-run specialization: top-[slots] candidates by
          offline saved cycles, bitstreams free at t=0, stalls billed *)
  o_nospec : online_run;  (** every CI at software cost forever *)
  o_events : event list;  (** adaptive controller events, chronological *)
  o_windows : int;  (** phase-profile windows closed *)
  o_phase_exits : int;
  o_cad_launched : int;
  o_cad_completed : int;
  o_cad_cancelled : int;
}

(** Close the loop over one workload: specialize from the train
    profile alone ({!Experiment.specialize}: compile, profile the first
    dataset, search, CAD — no run of the other datasets and no
    coverage or kernel analysis), adapt the binary once, then execute
    the adapted module once on the last dataset under the VM monitor,
    with three clock lanes ({!Vm.Machine.control}) — no-specialization,
    oracle and adaptive.  A one-dataset workload is profiled and looped
    on that same dataset.  The lanes differ only in per-dispatch CI
    cost and stalls, so they share the block trace and the return
    value, and each lane's cycle totals are those a separate run of
    that baseline would read: directly comparable.  The loop is a
    sequential simulated-time computation on the calling domain.
    @raise Invalid_argument ["Jit_manager.online: workload has no
    datasets"] before any stage runs when the dataset list is empty. *)
val online : ?spec:Spec.t -> Pp.Database.t -> W.Workload.t -> online_report

val pp_online : Format.formatter -> online_report -> unit
