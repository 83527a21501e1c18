(* FNV-1a 64-bit with type tags and length prefixes.  Self-contained on
   purpose: Hashtbl.hash truncates to 30 bits and traverses lazily, Marshal
   output is not canonical across versions, and stdlib Digest (MD5) would
   force every caller to build intermediate strings.  Collisions at 64 bits
   are acceptable for a memoization key space of a few thousand entries. *)

type t = int64

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

type ctx = { mutable h : int64 }

let create () = { h = fnv_offset }

let feed_byte c b =
  c.h <- Int64.mul (Int64.logxor c.h (Int64.of_int (b land 0xff))) fnv_prime

(* One tag byte per value keeps adjacent fields from sliding into each
   other: add_string "ab"; add_string "" must differ from add_string "a";
   add_string "b" even before length prefixes are considered. *)
let tag c ch = feed_byte c (Char.code ch)

(* The two loops below keep the state in a local [ref], which ocamlopt
   turns into an unboxed mutable variable: the loop allocates nothing,
   and the only box is the one written back to [c.h] at the end.
   Going through [feed_byte] per byte would box every intermediate
   state (3 words a byte). *)
let feed_int64 c x =
  let h = ref c.h in
  for i = 0 to 7 do
    h :=
      Int64.mul
        (Int64.logxor !h
           (Int64.logand (Int64.shift_right_logical x (i * 8)) 0xffL))
        fnv_prime
  done;
  c.h <- !h

let add_int64 c x =
  tag c 'I';
  feed_int64 c x

let add_int c x =
  tag c 'i';
  feed_int64 c (Int64.of_int x)

let add_string c s =
  tag c 'S';
  feed_int64 c (Int64.of_int (String.length s));
  let h = ref c.h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  c.h <- !h

let add_float c x =
  tag c 'F';
  feed_int64 c (Int64.bits_of_float x)

let add_bool c b =
  tag c 'B';
  feed_byte c (if b then 1 else 0)

let add_list c f xs =
  tag c 'L';
  feed_int64 c (Int64.of_int (List.length xs));
  List.iter f xs

let finish c = c.h

let add_digest c (d : t) =
  tag c 'D';
  feed_int64 c d

let of_string s =
  let c = create () in
  add_string c s;
  finish c

let to_hex (d : t) = Printf.sprintf "%016Lx" d
