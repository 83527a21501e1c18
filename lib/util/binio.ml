(** Compact length-prefixed binary serialization.

    [Binio] is the byte format used by the persistent artifact-store
    backend ({!Store_disk}).  It is deliberately small: a handful of
    primitive writers/readers plus combinators that compose them into
    {!type:codec} values, one per stored stage artifact (see
    [Core.Codecs]).

    Design points:

    - Variable-length integers (LEB128 with zigzag for signed values)
      keep small counts and lengths at one byte.
    - [int64] and [float] are fixed 8-byte little-endian (floats as
      IEEE-754 bits), so round-trips are exact including NaN payloads.
    - Strings and lists are length-prefixed; there is no terminator
      scanning and no escaping.
    - Readers are bounds-checked.  Any malformed input — short reads,
      varint overflow, bad tags, trailing bytes — raises {!Corrupt},
      which the store layer maps to a cache miss (recompute), never an
      error. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }

let remaining r = String.length r.src - r.pos

let need r n =
  if n < 0 || remaining r < n then
    corrupt "short read: need %d bytes at %d/%d" n r.pos (String.length r.src)

(* ------------------------------------------------------------------ *)
(* Primitive writers (into a Buffer) and readers.                     *)
(* ------------------------------------------------------------------ *)

let w_byte b n = Buffer.add_char b (Char.chr (n land 0xff))

let r_byte r =
  need r 1;
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* Unsigned LEB128 over the full 64-bit range. *)
let w_varint64 b (n : int64) =
  let n = ref n in
  let continue_ = ref true in
  while !continue_ do
    let low = Int64.to_int (Int64.logand !n 0x7fL) in
    n := Int64.shift_right_logical !n 7;
    if Int64.equal !n 0L then begin
      w_byte b low;
      continue_ := false
    end
    else w_byte b (low lor 0x80)
  done

let r_varint64 r =
  let result = ref 0L in
  let shift = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if !shift > 63 then corrupt "varint too long";
    let byte = r_byte r in
    (* The tenth byte holds bit 63 only: anything more overflows. *)
    if !shift = 63 && byte > 1 then corrupt "varint overflows 64 bits";
    result :=
      Int64.logor !result (Int64.shift_left (Int64.of_int (byte land 0x7f)) !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue_ := false
  done;
  !result

let zigzag n = Int64.logxor (Int64.shift_left n 1) (Int64.shift_right n 63)

let unzigzag n =
  Int64.logxor (Int64.shift_right_logical n 1) (Int64.neg (Int64.logand n 1L))

let w_int b n = w_varint64 b (zigzag (Int64.of_int n))

let r_int r =
  let v = unzigzag (r_varint64 r) in
  (* Reject values outside the native [int] range rather than silently
     wrapping. *)
  if
    Int64.compare v (Int64.of_int max_int) > 0
    || Int64.compare v (Int64.of_int min_int) < 0
  then corrupt "int out of native range"
  else Int64.to_int v

let w_int64 b (n : int64) = Buffer.add_int64_le b n

let r_int64 r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let w_vint64 b n = w_varint64 b (zigzag n)
let r_vint64 r = unzigzag (r_varint64 r)

let w_float b f = w_int64 b (Int64.bits_of_float f)
let r_float r = Int64.float_of_bits (r_int64 r)

let w_len b n =
  if n < 0 then invalid_arg "Binio.w_len: negative length";
  w_varint64 b (Int64.of_int n)

let r_len r =
  let v = r_varint64 r in
  if Int64.compare v (Int64.of_int (remaining r)) > 0 || Int64.compare v 0L < 0
  then corrupt "length %Ld exceeds remaining input" v
  else Int64.to_int v

let w_string b s =
  w_len b (String.length s);
  Buffer.add_string b s

let r_string r =
  let n = r_len r in
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let w_option w b = function
  | None -> w_byte b 0
  | Some v ->
      w_byte b 1;
      w b v

let r_option rd r =
  match r_byte r with
  | 0 -> None
  | 1 -> Some (rd r)
  | n -> corrupt "bad option tag %d" n

let w_list w b xs =
  w_len b (List.length xs);
  List.iter (w b) xs

let r_list rd r =
  let n = r_len r in
  List.init n (fun _ -> rd r)

(* ------------------------------------------------------------------ *)
(* Codecs.                                                            *)
(* ------------------------------------------------------------------ *)

type 'a codec = { enc : Buffer.t -> 'a -> unit; dec : reader -> 'a }

let codec enc dec = { enc; dec }

let int = { enc = w_int; dec = r_int }
let int64 = { enc = w_int64; dec = r_int64 }
let float = { enc = w_float; dec = r_float }
let string = { enc = w_string; dec = r_string }

let list c = { enc = w_list c.enc; dec = r_list c.dec }

let pair a b =
  {
    enc =
      (fun buf (x, y) ->
        a.enc buf x;
        b.enc buf y);
    dec =
      (fun r ->
        let x = a.dec r in
        let y = b.dec r in
        (x, y));
  }

(** Map a codec through a bijection, e.g. to (de)construct records or
    variants from tuples. *)
let map ~enc ~dec c =
  { enc = (fun buf v -> c.enc buf (enc v)); dec = (fun r -> dec (c.dec r)) }

(** Codec for a finite enumeration given its exhaustive value list.
    Values are encoded as their index in the list. *)
let enum ~name values =
  let arr = Array.of_list values in
  {
    enc =
      (fun buf v ->
        let rec idx i =
          if i >= Array.length arr then
            invalid_arg (Printf.sprintf "Binio.enum %s: unknown value" name)
          else if arr.(i) == v || arr.(i) = v then i
          else idx (i + 1)
        in
        w_len buf (idx 0));
    dec =
      (fun r ->
        (* NOT [r_len]: its remaining-input bound is for byte lengths,
           and an enum tag consumes no further bytes — a tag at the very
           end of the input is perfectly valid. *)
        let i = Int64.to_int (r_varint64 r) in
        if i < 0 || i >= Array.length arr then
          corrupt "enum %s: bad tag %d" name i
        else arr.(i));
  }

let encode c v =
  let b = Buffer.create 256 in
  c.enc b v;
  Buffer.contents b

let decode c s =
  let r = reader s in
  let v = c.dec r in
  if r.pos <> String.length s then
    corrupt "trailing bytes: %d of %d consumed" r.pos (String.length s);
  v

let decode_opt c s = try Some (decode c s) with Corrupt _ -> None
