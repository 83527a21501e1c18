type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

(* SplitMix64 step: advance by the golden gamma and mix. *)
let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's native int without wrapping
     negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

let float t bound =
  (* 53 random bits scaled to [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bits /. 9007199254740992.0 *. bound

let gaussian t ~mu ~sigma =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-300 then draw () else u1
  in
  let u1 = draw () in
  let u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let hash_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  Int64.to_int (Int64.shift_right_logical !h 2)
