(** Deterministic multi-plane fault model — the only fault-injection
    configuration of the pipeline.  A {!config} holds one fault
    {e plane} per subsystem, and a plane is on when one of its rates is
    positive:

    - {b stage}: a pipeline-stage execution crashes (a transient,
      retryable {!Injected} exception) or stalls for a drawn number of
      {e simulated} seconds before running — the supervisor's stall
      hook charges them against its deadlines;
    - {b pool}: a domain-pool worker is poisoned before it starts its
      per-candidate work;
    - {b store}: artifact-store I/O misbehaves — reads error out
      (served as a miss), writes are silently dropped, written
      envelopes are torn ({!Store_disk} truncates the on-disk bytes so
      the envelope checksum catches it), and reads suffer bounded
      {e real} latency spikes;
    - {b cad}: the simulated Xilinx tool flow fails — a tool crashes,
      map/PAR gives up on congestion, PAR misses timing closure, or
      bitgen emits a corrupt image.  [Cad.Faults.roll] draws these
      rolls and [Cad.Flow.implement_result] applies them.

    {2 Determinism contract}

    Every roll is a pure function of [(seed, plane, site, attempt)]
    via {!key_prng} on disjoint {!Prng} streams:

    - chaos-off output is byte-identical to a build without this
      module — a roll whose rate is zero is a constant and draws
      nothing;
    - a faulted run replays exactly: rolls are keyed by {e site} (a
      stage label, a candidate signature, a [stage/digest] store
      entry), never by call count or wall clock, so a [jobs:4] run
      injects exactly the faults a serial one does;
    - store rolls deliberately drop the attempt component: backend
      call counts are scheduling-dependent (an L1 promotion races a
      concurrent probe), so a given [(stage, digest)] entry either
      always or never misbehaves under one seed;
    - the CAD plane keeps its original [fault:] roll keys on top of
      {!key_prng}, so a fault seed replays the runs it always did. *)

type config = {
  seed : int;
      (** mixed into every roll of every plane; the [--chaos-seed] flag
          (alias [--fault-seed]) *)
  stage_crash_rate : float;
      (** per-(stage execution, attempt) transient crash probability *)
  stage_stall_rate : float;  (** per-(stage execution, attempt) stall *)
  stage_stall_seconds : float;
      (** mean stall; the draw is uniform in [0.5x, 2x] of it *)
  pool_crash_rate : float;  (** per-work-item worker poisoning *)
  store_read_error_rate : float;  (** backend read fails -> miss *)
  store_write_drop_rate : float;  (** backend write silently lost *)
  store_torn_rate : float;
      (** on-disk envelope truncated mid-write (disk backend only; the
          envelope checksum degrades it to a permanent miss) *)
  store_latency_rate : float;  (** backend read latency spike *)
  store_latency_seconds : float;
      (** mean spike, {e real} seconds; bounded by {!validate} *)
  cad_crash_rate : float;
      (** per-(CAD stage, attempt) transient tool crash probability *)
  cad_congestion_rate : float;
      (** map/PAR congestion probability at full complexity; scaled by
          the data path's LUT area *)
  cad_timing_rate : float;
      (** PAR timing-closure failure probability at full complexity;
          never rolled on a relaxed (resynthesized) attempt *)
  cad_corruption_rate : float;  (** bitgen CRC-failure probability *)
}

val none : config
(** Every rate zero — every roll is constant, output is byte-identical
    to a fault-free build. *)

val defaults : seed:int -> config
(** Modest fixed stage, pool and store rates ([--chaos]): occasional
    crashes, stalls and store faults that a default supervision policy
    absorbs.  The CAD plane stays off. *)

val with_cad_defaults : config -> config
(** Turn the CAD plane on at its default rates ([--faults]): crash
    0.02, congestion 0.15, timing 0.20, corruption 0.03 — a
    multi-candidate sweep sees occasional crashes, congestion on big
    data paths and the odd timing miss, while most candidates still
    implement within a 3-attempt budget.  Every other field is kept. *)

val validate : config -> unit
(** @raise Invalid_argument on an out-of-range rate, a negative stall,
    or a real-sleep latency above 50 ms. *)

exception Injected of string
(** A chaos-injected transient failure; the payload names plane and
    site.  The supervisor retries these, and {e only} these — real
    bugs keep propagating. *)

val inject : string -> string -> 'a
(** [inject plane site] raises {!Injected}. *)

val is_injected : exn -> bool

val key_prng : seed:int -> string -> Prng.t
(** [key_prng ~seed key] is the generator for one roll site: a fresh
    {!Prng} seeded by [hash key lxor seed].  Every plane, the CAD one
    in [Cad.Faults] included, draws from this keyed-stream
    construction. *)

val bernoulli : Prng.t -> float -> bool
(** [bernoulli prng p] is [true] with probability [p]; [p <= 0] never
    draws. *)

(** {1 Plane rolls} *)

val stage_crash : config -> site:string -> attempt:int -> bool
val stage_stall : config -> site:string -> attempt:int -> float option
(** Simulated seconds this attempt stalls before running, if any. *)

val pool_crash : config -> site:string -> bool

val store_torn : config -> site:string -> bool

val cad_on : config -> bool
(** [true] when one of the four CAD rates is positive. *)

val torn_length : config -> site:string -> len:int -> int
(** How many of [len] envelope bytes survive a torn write; always
    [< len], so the truncation is detectable. *)

val wrap_backend : config -> Artifact.backend -> Artifact.backend
(** Inject the store plane's read errors, write drops and latency
    spikes in front of a backend.  When those three rates are zero the
    backend is returned unchanged.  Torn writes are {e not} injected
    here — they must corrupt bytes {e below} the integrity envelope to
    be a sound model, so {!Store_disk.backend} takes the config
    directly. *)
