(** Deterministic pseudo-random number generation.

    All stochastic components of the simulator (CAD runtime jitter, cache
    population, dataset synthesis) draw from an explicitly seeded
    [Prng.t] so that every experiment is reproducible bit-for-bit.  The
    generator is SplitMix64, which is small, fast, and has no shared
    global state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** [gaussian t ~mu ~sigma] draws from a normal distribution via
    Box-Muller. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val hash_string : string -> int
(** [hash_string s] is a stable 62-bit FNV-1a hash of [s], suitable for
    deriving per-object seeds that do not depend on OCaml's randomized
    [Hashtbl.hash]. *)
