(** Small descriptive-statistics helpers used by the experiment drivers
    when aggregating per-candidate and per-application measurements
    (means, standard deviations, percentiles, geometric means). *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0 for the empty list.
    @raise Invalid_argument if any value is not positive. *)

val median : float list -> float
(** Median; 0 for the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], nearest-rank method.
    @raise Invalid_argument if [p] is out of range or [xs] is empty. *)

val sum : float list -> float
(** Total of the list; 0 for the empty list. *)

type summary = { mean : float; stdev : float }
(** One-shot description of a sample: [stdev] is the sample standard
    deviation (n-1 denominator), 0 for fewer than two samples. *)

val summarize : float list -> summary
(** Both [summary] fields; zeros for the empty list. *)
