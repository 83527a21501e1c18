(** Retry and deadline policies — see the interface for the model. *)

type policy = {
  max_attempts : int;
  specialization_deadline_seconds : float option;
}

let default = { max_attempts = 3; specialization_deadline_seconds = None }

let validate p =
  if p.max_attempts < 1 then
    invalid_arg
      (Printf.sprintf "Retry: max_attempts must be >= 1 (got %d)" p.max_attempts);
  match p.specialization_deadline_seconds with
  | Some d when d <= 0.0 ->
      invalid_arg "Retry: specialization deadline must be positive"
  | _ -> ()

let with_max_attempts max_attempts p =
  let p = { p with max_attempts } in
  validate p;
  p

let with_specialization_deadline specialization_deadline_seconds p =
  let p = { p with specialization_deadline_seconds } in
  validate p;
  p

(* The one backoff schedule of the code base: 30 s after the first
   failure, doubling per further failure, plus up to 25 % jitter. *)
let backoff_seconds ~key ~attempt =
  if attempt < 1 then invalid_arg "Retry.backoff_seconds: attempt must be >= 1";
  let base = 30.0 *. (2.0 ** float_of_int (attempt - 1)) in
  let prng =
    Prng.create
      ~seed:(Prng.hash_string (Printf.sprintf "backoff:%s:%d" key attempt))
  in
  base *. (1.0 +. Prng.float prng 0.25)

type budget = { mutable left : float option }

let budget left =
  (match left with
  | Some d when d <= 0.0 -> invalid_arg "Retry.budget: deadline must be positive"
  | _ -> ());
  { left }

let spend b cost =
  match b.left with
  | None -> ()
  | Some left -> b.left <- Some (Float.max 0.0 (left -. cost))

let exhausted b = match b.left with None -> false | Some left -> left <= 0.0
