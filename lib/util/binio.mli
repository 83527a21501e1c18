(** Compact length-prefixed binary serialization.

    The byte format used by the persistent artifact-store backend
    ({!Store_disk}).  Primitive writers append to a [Buffer.t]; readers
    consume a bounds-checked cursor over a string.  Any malformed input
    — short reads, varint overflow, bad tags, trailing bytes — raises
    {!Corrupt}, which the store layer maps to a cache miss (recompute),
    never an error.

    Wire format summary:
    - ints: zigzag + LEB128 varint (small magnitudes are one byte)
    - int64: fixed 8-byte little-endian, or a zigzag varint ([vint64])
    - float: IEEE-754 bits as a fixed 8-byte little-endian int64
    - option tags: one byte (0/1), other values are corrupt
    - string: varint length + raw bytes
    - list: varint count + elements *)

exception Corrupt of string

(** Raise {!Corrupt} with a formatted message. *)
val corrupt : ('a, unit, string, 'b) format4 -> 'a

(** {1 Readers} *)

type reader

val reader : string -> reader
val remaining : reader -> int

(** {1 Primitive writers and readers} *)

val w_byte : Buffer.t -> int -> unit
val r_byte : reader -> int
val w_int : Buffer.t -> int -> unit
val r_int : reader -> int
val w_int64 : Buffer.t -> int64 -> unit
val r_int64 : reader -> int64

(** [int64] as a zigzag varint, like [w_int] over the full 64-bit
    range: small magnitudes take one byte, [Int64.min_int] ten. *)
val w_vint64 : Buffer.t -> int64 -> unit

val r_vint64 : reader -> int64

val w_float : Buffer.t -> float -> unit
val r_float : reader -> float

(** Non-negative length prefix.  [r_len] rejects lengths larger than
    the remaining input, bounding allocations for hostile inputs. *)
val w_len : Buffer.t -> int -> unit

val r_len : reader -> int
val w_string : Buffer.t -> string -> unit
val r_string : reader -> string
val w_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val r_option : (reader -> 'a) -> reader -> 'a option
val w_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
val r_list : (reader -> 'a) -> reader -> 'a list

(** {1 Codecs} *)

type 'a codec = { enc : Buffer.t -> 'a -> unit; dec : reader -> 'a }

val codec : (Buffer.t -> 'a -> unit) -> (reader -> 'a) -> 'a codec
val int : int codec
val int64 : int64 codec
val float : float codec
val string : string codec
val list : 'a codec -> 'a list codec
val pair : 'a codec -> 'b codec -> ('a * 'b) codec

(** Map a codec through a bijection, e.g. to (de)construct records or
    variants from tuples.  [dec] may raise {!Corrupt} on values that
    have no preimage. *)
val map : enc:('b -> 'a) -> dec:('a -> 'b) -> 'a codec -> 'b codec

(** Codec for a finite enumeration given its exhaustive value list;
    values are encoded as their index in the list.  Decoding an
    out-of-range index raises {!Corrupt}. *)
val enum : name:string -> 'a list -> 'a codec

(** [encode c v] serializes [v] to bytes. *)
val encode : 'a codec -> 'a -> string

(** [decode_opt c s] parses [s], or is [None] when [s] is malformed
    ({!Corrupt}), trailing bytes included. *)
val decode_opt : 'a codec -> string -> 'a option
