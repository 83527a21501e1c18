(** Simulated-time durations and the paper's time formats.

    All tool-flow runtimes in this reproduction are simulated seconds
    carried as [float].  The paper prints them in several fixed formats
    ([m:s] in Table II, [d:h:m:s] for break-even times, [h:m:s] in
    Table IV); this module renders those formats so our table
    output is directly comparable with the published tables. *)

type t = float
(** A duration in (simulated) seconds.  Negative durations are invalid
    inputs for the formatters. *)

val to_min_sec : t -> string
(** The paper's [m:s] format with zero-padded seconds, e.g. ["56:22"]
    for 56 min 22 s.  Minutes may exceed 59 (["1021:22"]).
    @raise Invalid_argument on negative input. *)

val to_hms : t -> string
(** [h:m:s] with zero padding, e.g. ["01:59:55"].
    @raise Invalid_argument on negative input. *)

val to_dhms : t -> string
(** [d:h:m:s], e.g. ["206:22:15:50"] meaning 206 days 22 h 15 m 50 s.
    @raise Invalid_argument on negative input. *)
