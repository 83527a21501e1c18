(** Retry and deadline policies for failure-prone simulated stages.

    The CAD flow simulator can inject per-stage failures (the CAD plane
    of {!Chaos}, rolled by [Jitise_cad.Faults]); this module provides
    the {e recovery} side: how
    many attempts a candidate gets, how long to back off between attempts
    (exponential with deterministic jitter, in {e simulated} seconds —
    real CAD servers impose cool-down and queueing delays between
    resubmissions), and how much total simulated time a whole
    specialization run may burn before giving up.

    There is one backoff schedule, shared by CAD retry chains and
    supervised pipeline stages ({!Supervisor}): 30 s after the first
    failed attempt, doubling per further failure, with up to 25 %
    jitter.  Everything is deterministic: jitter is drawn from a [Prng]
    seeded by the caller-supplied key and attempt number, so a parallel
    sweep replays the exact backoff schedule of a serial one. *)

type policy = {
  max_attempts : int;
      (** CAD attempts per data path (>= 1); attempt 1 is the initial
          run, attempts 2.. are retries *)
  specialization_deadline_seconds : float option;
      (** simulated-time budget for a whole specialization run, spent in
          selection order; [None] = unbounded *)
}

val default : policy
(** 3 attempts, no deadline. *)

val validate : policy -> unit
(** @raise Invalid_argument on a non-positive attempt count or a
    non-positive deadline. *)

val with_max_attempts : int -> policy -> policy
val with_specialization_deadline : float option -> policy -> policy

val backoff_seconds : key:string -> attempt:int -> float
(** [backoff_seconds ~key ~attempt] is the simulated cool-down after
    failed attempt [attempt] (1-based) of the work identified by [key]:
    [30 * 2^(attempt-1)] seconds times a jitter factor in [[1, 1.25)].
    Equal [(key, attempt)] pairs always produce equal backoffs.
    @raise Invalid_argument when [attempt < 1]. *)

(** A mutable simulated-seconds budget (e.g. the whole-specialization
    deadline).  An unbounded budget never exhausts. *)
type budget

val budget : float option -> budget

val spend : budget -> float -> unit
(** Deduct; clamps at zero. *)

val exhausted : budget -> bool
