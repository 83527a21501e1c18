(** Small descriptive-statistics helpers used by the experiment drivers
    when aggregating per-candidate and per-application measurements
    (means, standard deviations, percentiles, geometric means). *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val stdev : float list -> float
(** Sample standard deviation (n-1 denominator); 0 for fewer than two
    samples. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0 for the empty list.
    @raise Invalid_argument if any value is not positive. *)

val median : float list -> float
(** Median; 0 for the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], nearest-rank method.
    @raise Invalid_argument if [p] is out of range or [xs] is empty. *)

val minimum : float list -> float
(** Smallest element.  @raise Invalid_argument on empty list. *)

val maximum : float list -> float
(** Largest element.  @raise Invalid_argument on empty list. *)

val sum : float list -> float
(** Total of the list; 0 for the empty list. *)

val weighted_mean : (float * float) list -> float
(** [weighted_mean \[(w, x); ...\]] is [sum w*x / sum w]; 0 when the
    total weight is 0. *)

type summary = {
  n : int;
  mean : float;
  stdev : float;
  min : float;
  max : float;
  median : float;
}
(** One-shot description of a sample. *)

val summarize : float list -> summary
(** Computes all [summary] fields in one pass over a non-empty list;
    zeros with [n = 0] for the empty list. *)
