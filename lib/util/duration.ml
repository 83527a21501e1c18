type t = float

let check_non_negative name t =
  if t < 0.0 then invalid_arg (Printf.sprintf "Duration.%s: negative duration" name)

(* Round to whole seconds first so that e.g. 59.7 s prints as 1:00, not
   0:59 with a lost fraction. *)
let whole_seconds t = int_of_float (Float.round t)

let to_min_sec t =
  check_non_negative "to_min_sec" t;
  let s = whole_seconds t in
  Printf.sprintf "%d:%02d" (s / 60) (s mod 60)

let to_hms t =
  check_non_negative "to_hms" t;
  let s = whole_seconds t in
  Printf.sprintf "%02d:%02d:%02d" (s / 3600) (s mod 3600 / 60) (s mod 60)

let to_dhms t =
  check_non_negative "to_dhms" t;
  let s = whole_seconds t in
  Printf.sprintf "%d:%02d:%02d:%02d" (s / 86400) (s mod 86400 / 3600)
    (s mod 3600 / 60) (s mod 60)
