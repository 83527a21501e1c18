(** Simulator of the Xilinx ISE 12.2 EAPR CAD tool flow.

    The physical tool chain is the one component of the paper's system
    that cannot run here, so its {e runtime behaviour} is modelled
    instead: per-stage durations are drawn from distributions
    calibrated to the paper's measurements (Table III for the constant
    stages, Section V-C for map and place-and-route),
    deterministically seeded by the candidate's structural signature.
    Everything downstream — overhead aggregation, break-even analysis,
    caching — consumes only these durations, which is exactly what the
    paper measures.

    The flow has no configuration: it is the paper's EAPR flow on the
    FX100.  Table IV's faster-CAD mitigation scales the per-candidate
    totals afterwards ([Cache_model.residual_overhead ~cad_speedup]).

    Failure model: commodity CAD tools fail routinely, so
    {!implement_result} can inject per-stage failures from the CAD
    plane of a {!Jitise_util.Chaos.config} (rolled by {!Faults.roll})
    and returns [(run, failure) result]; a failure
    reports the stage it hit and the simulated seconds wasted up to
    it.  With the CAD plane off it always returns [Ok]. *)

module Pp = Jitise_pivpav
module Hw = Jitise_hwgen

type stage = Check_syntax | Synthesis | Translate | Map | Place_and_route | Bitgen

val stage_name : stage -> string
(** Three-letter tool name: ["syn"], ["xst"], ["tra"], ["map"],
    ["par"], ["bitgen"]. *)

type stage_report = { stage : stage; seconds : float }

type run = {
  stages : stage_report list;
  total_seconds : float;
      (** what the flow {e would} cost; on a cache hit the caller
          decides whether the cost is actually paid *)
  bitstream : Bitstream.t;
}

(** One failed CAD attempt: the stage that failed, why, and the
    simulated seconds burnt getting there (every stage up to and
    including the failing one ran to completion or abort). *)
type failure = {
  failed_stage : stage;
  fault : Faults.kind;
  wasted_seconds : float;
}

exception Syntax_error of string list

(** A flow invariant was broken — e.g. a faultless run reported a
    failure.  Indicates a bug in the flow simulator itself, never a
    modelled CAD failure; the message names the stage involved. *)

val c2v_seconds : Hw.Project.t -> float
(** Simulated seconds of the Netlist Generation phase for one candidate
    (Generate VHDL + Extract Netlists + Create Project — the paper's
    C2V column: 3.22 s, sd 0.10). *)

val implement_result :
  ?tracer:Jitise_util.Trace.t ->
  ?chaos:Jitise_util.Chaos.config ->
  ?attempt:int ->
  ?relaxed:bool ->
  Pp.Database.t ->
  Hw.Project.t ->
  (run, failure) result
(** Run the implementation flow on a prepared project, with optional
    fault injection.

    The six stages run in order; before each stage completes, the
    CAD plane of [chaos] is rolled ({!Faults.roll}) for this
    [(signature, stage, attempt)] tuple.  On a failure the attempt
    aborts: the result is [Error f] where [f.wasted_seconds] covers
    every stage up to and including the failing one.  With the CAD
    plane off (the default {!Jitise_util.Chaos.none}) the result is
    always [Ok].

    @param attempt 1-based CAD attempt number; seeds the fault rolls so
    a retry of the same data path fails (or succeeds) differently
    @param relaxed resynthesize with relaxed timing constraints: timing
    failures cannot occur, map/PAR cost ~15 % extra (the recovery move
    for {!Faults.Timing_failure})
    @param tracer records one synthetic span per CAD stage (the
    durations are simulated, so the spans carry the modelled seconds,
    not wall-clock time)
    @raise Syntax_error when the generated VHDL fails the syntax check
    (indicates a data-path generator bug — tests assert this never
    fires on MAXMISO output). *)

val stage_seconds : run -> stage -> float
(** Seconds spent in a given stage of a run. *)

val constant_seconds : run -> float
(** The constant-time portion of a run (everything but map and PAR),
    as aggregated in the paper's "const" column of Table II.  The C2V
    project-creation time must be added by the caller (it happens
    before [implement_result]). *)
