(** Stable 64-bit content digests over canonical inputs.

    The staged pipeline engine keys its artifact store on digests of each
    stage's canonical inputs (IR module bytes, profile counts, spec knobs,
    fault and retry configuration, seeds).  The implementation is FNV-1a/64 with
    type-tagged, length-prefixed encoding, so digests are:

    - deterministic across runs and processes (no [Marshal], no addresses),
    - insensitive to physical representation (only the fed values matter),
    - cheap: the byte loops allocate nothing (about 1.6 ns a byte), so
      the store checksums and module digests of a warm pass stay a small
      part of it.

    This is an integrity-free fingerprint for memoization, not a
    cryptographic hash. *)

type t
(** A finished 64-bit digest. *)

type ctx
(** An incremental digest under construction. *)

val create : unit -> ctx

val add_string : ctx -> string -> unit
val add_int : ctx -> int -> unit
val add_int64 : ctx -> int64 -> unit

val add_float : ctx -> float -> unit
(** Hashes the IEEE-754 bit pattern, so [-0.] and [0.] differ and NaNs are
    stable. *)

val add_bool : ctx -> bool -> unit

val add_list : ctx -> ('a -> unit) -> 'a list -> unit
(** Length-prefixed, so [["ab"]] and [["a"; "b"]] digest differently. *)

val add_digest : ctx -> t -> unit
(** Folds an already-finished digest in, for composing stage digests out of
    sub-digests (e.g. module digest + profile digest + knobs). *)

val finish : ctx -> t
(** [finish] is non-destructive: the context can keep accumulating, which
    lets callers snapshot a common prefix and extend it per stage. *)

val of_string : string -> t
(** One-shot digest of a single string. *)

val to_hex : t -> string
(** 16 lowercase hex characters. *)
