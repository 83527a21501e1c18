(** Runtime state of the reconfigurable ASIP fabric.

    N partial-reconfiguration slots holding CAD bitstreams, with a
    pluggable eviction policy and one reconfiguration path with two
    entry points: the latency-aware online mode ({!begin_load}), in
    which a slot refuses CI dispatch until its reconfiguration deadline
    has passed, and the batch mode used by the offline sweep
    ({!load}), which is that load started at [neg_infinity] and so
    completes instantaneously. *)

module Cad = Jitise_cad

(** Eviction policy applied when every slot is occupied. *)
type policy =
  | Lru  (** evict the least-recently-used occupant *)
  | Beneficial
      (** evict the occupant with the lowest recorded benefit
          ({!set_benefit}); ties break on the lexicographically
          smallest signature, so the choice is invariant under the
          order equal-benefit occupants were loaded in *)

val policy_name : policy -> string
val policy_of_string : string -> policy option

type slot = {
  mutable occupant : Cad.Bitstream.t option;
  mutable last_use : int;
  mutable ready_at : float;
}

type t = {
  policy : policy;
  slots : slot array;
  benefit : (string, float) Hashtbl.t;
  mutable clock : int;
  mutable reconfig_seconds : float;
  mutable reconfigurations : int;
  mutable evictions : int;
}

exception Corrupt_bitstream of string

(** [create ?slots ?policy ()] on {!Arch.default} — [slots] defaults
    to its [udi_slots]; raises [Invalid_argument] when < 1. *)
val create : ?slots:int -> ?policy:policy -> unit -> t

val find : t -> string -> int option
(** Slot index currently holding the signature, if resident. *)

val load : t -> Cad.Bitstream.t -> int * bool
(** Batch-mode load: instantaneous, immediately dispatchable.  Returns
    the slot index and whether a reconfiguration happened.
    @raise Corrupt_bitstream on a checksum mismatch
    @raise Invalid_argument when the image exceeds the slot capacity *)

val begin_load : t -> now_seconds:float -> Cad.Bitstream.t -> int * bool * float
(** Online-mode load started at [now_seconds]: the slot refuses
    dispatch until the returned [ready_at] deadline.  A resident image
    is left alone and reports its existing deadline.  Same exceptions
    as {!load}. *)

val touch : t -> string -> unit
(** Bump the LRU clock for a resident signature (a dispatch). *)

val dispatch_ready : t -> now_seconds:float -> string -> bool

val set_benefit : t -> string -> float -> unit
val benefit_of : t -> string -> float

val peek_victim : t -> string option
(** Signature the next load would displace; [None] when a free slot is
    available.  Lets the controller apply hysteresis before committing
    to an eviction. *)

val occupancy : t -> int
