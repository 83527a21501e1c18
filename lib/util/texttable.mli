(** Aligned plain-text tables.

    The experiment drivers print reproductions of the paper's Tables
    I-IV; this module handles column sizing and alignment so every
    driver renders consistently. *)

type t
(** A table under construction. *)

val create : headers:string list -> t
(** [create ~headers] starts a table whose column count is fixed by
    [headers].  The first column is left-aligned, the others
    right-aligned. *)

val add_row : t -> string list -> unit
(** Appends a data row.  @raise Invalid_argument on column-count
    mismatch. *)

val add_separator : t -> unit
(** Appends a horizontal rule, used to offset the paper's AVG/RATIO
    summary rows. *)

val render : t -> string
(** Renders the table with a header rule, column padding, and any
    separators, terminated by a newline. *)

val print : t -> unit
(** [render] to stdout. *)
