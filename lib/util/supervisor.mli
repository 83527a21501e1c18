(** Supervised stage execution: deadlines and bounded retry for the
    staged pipeline.

    PR 2 made the {e CAD flow} recover from injected failures; this
    module is the same idea one level up, for {e any} pipeline-stage
    execution.  A supervisor wraps each execution in a guarded context:

    - {b transient retry}: an attempt that raises an exception the
      [transient] predicate accepts (chaos injections, by convention —
      see {!Chaos.is_injected}) is retried up to [max_attempts] times
      with the deterministic exponential backoff of {!Retry},
      keyed by the site label so replays are exact;
    - {b per-stage deadline}: simulated stalls reported through the
      [stall] hook are accumulated per attempt; once they overrun
      [stage_deadline_seconds] the attempt is killed (and retried, the
      killed attempt costing the full deadline);
    - {b whole-run deadline}: sequential (meter-less) sites charge
      their simulated waste — stalls and backoffs — against a shared
      run budget; once it exhausts, further sequential stages refuse to
      start ({!error.Run_deadline}).

    All deadlines operate on {e simulated} seconds — the same clock as
    the CAD model and {!Retry} — so supervision decisions are
    deterministic and replayable.  Wall-clock hang protection is the
    job of an outer watchdog (CI runs the test step under a hard
    timeout).

    A terminal failure raises {!Stage_failed} carrying the site, the
    attempts run and the simulated waste: the per-candidate fan-out
    catches it and degrades that one candidate — software fallback,
    waste billed like a CAD failure — instead of aborting the sweep. *)

(** {1 Policy} *)

type policy = {
  max_attempts : int;  (** attempts per stage execution (>= 1) *)
  stage_deadline_seconds : float option;
      (** simulated stall budget per attempt; [None] = unbounded *)
  run_deadline_seconds : float option;
      (** simulated waste budget for all {e sequential} stage
          executions of one run; [None] = unbounded *)
}

val default_policy : policy
(** 3 attempts, no deadlines. *)

val validate_policy : policy -> unit
(** @raise Invalid_argument on a non-positive attempt count or
    deadline. *)

(** {1 Failures} *)

type error =
  | Stage_deadline of float  (** an attempt overran the stall budget *)
  | Run_deadline  (** the run budget was exhausted before starting *)
  | Crash of string  (** transient crashes exhausted [max_attempts] *)

val error_name : error -> string

type failure = {
  f_site : string;
  f_attempts : int;  (** attempts run (0 when refused before any) *)
  f_wasted_seconds : float;
      (** simulated stalls + backoffs burnt at this site *)
  f_error : error;
}

exception Stage_failed of failure
(** Printed (by [Printexc]) with its site, attempts, error and waste. *)

(** {1 Meters} *)

type meter
(** A per-work-item simulated-waste account.  The per-candidate
    fan-out gives each item its own meter so waste can be billed later,
    in a deterministic order; meter-less sites charge the shared run
    budget directly. *)

val meter : unit -> meter
val spent : meter -> float

(** {1 The supervisor} *)

type t

val create : ?policy:policy -> unit -> t
(** A fresh supervisor (one per pipeline context / run).
    @raise Invalid_argument on an invalid policy. *)

val supervise :
  t ->
  site:string ->
  ?transient:(exn -> bool) ->
  ?meter:meter ->
  (attempt:int -> stall:(float -> unit) -> 'a) ->
  'a
(** Run one guarded stage execution.  [body] is called with the
    1-based attempt number and a [stall] hook for reporting simulated
    latency; exceptions for which [transient] holds are retried with
    backoff, everything else propagates unchanged (bugs stay
    visible).  @raise Stage_failed on terminal failure. *)
