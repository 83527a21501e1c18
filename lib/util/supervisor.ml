(** Supervised stage execution — see the interface for the model. *)

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)

type policy = {
  max_attempts : int;
  stage_deadline_seconds : float option;
  run_deadline_seconds : float option;
}

let default_policy =
  {
    max_attempts = 3;
    stage_deadline_seconds = None;
    run_deadline_seconds = None;
  }

let validate_policy p =
  if p.max_attempts < 1 then
    invalid_arg
      (Printf.sprintf "Supervisor: max_attempts must be >= 1 (got %d)"
         p.max_attempts);
  let check_deadline what = function
    | Some d when d <= 0.0 ->
        invalid_arg
          (Printf.sprintf "Supervisor: %s deadline must be positive" what)
    | _ -> ()
  in
  check_deadline "stage" p.stage_deadline_seconds;
  check_deadline "run" p.run_deadline_seconds

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)

type error =
  | Stage_deadline of float
  | Run_deadline
  | Crash of string

let error_name = function
  | Stage_deadline d -> Printf.sprintf "stage deadline (%gs)" d
  | Run_deadline -> "run deadline"
  | Crash what -> "crash: " ^ what

type failure = {
  f_site : string;
  f_attempts : int;
  f_wasted_seconds : float;
  f_error : error;
}

exception Stage_failed of failure

let () =
  Printexc.register_printer (function
    | Stage_failed f ->
        Some
          (Printf.sprintf
             "Supervisor.Stage_failed: %s gave up after %d attempt(s): %s \
              (%.1f s wasted)"
             f.f_site f.f_attempts (error_name f.f_error) f.f_wasted_seconds)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Per-item meters                                                     *)

type meter = { mutable m_spent : float }

let meter () = { m_spent = 0.0 }
let spent m = m.m_spent

(* ------------------------------------------------------------------ *)
(* The supervisor proper                                               *)

type t = { policy : policy; run_budget : Retry.budget }

let create ?(policy = default_policy) () =
  validate_policy policy;
  { policy; run_budget = Retry.budget policy.run_deadline_seconds }

(* Internal: the stall hook overran the per-stage deadline. *)
exception Stage_timeout

let supervise (type a) t ~site ?(transient = fun _ -> false) ?meter
    (body : attempt:int -> stall:(float -> unit) -> a) : a =
  (* Simulated-waste accounting: per-item meters (the per-candidate
     fan-out) collect their waste for the caller to bill later; meter-less
     (sequential) sites charge the run budget directly, so the budget's
     spending order is deterministic. *)
  let bill cost =
    match meter with
    | Some m -> m.m_spent <- m.m_spent +. cost
    | None -> Retry.spend t.run_budget cost
  in
  let fail attempts wasted error =
    raise (Stage_failed { f_site = site; f_attempts = attempts; f_wasted_seconds = wasted; f_error = error })
  in
  let rec attempt_loop attempt wasted =
    if meter = None && Retry.exhausted t.run_budget then
      fail (attempt - 1) wasted Run_deadline;
    (* One attempt.  [stall] is the simulated-latency hook: chaos (or
       any slow dependency model) reports how long the attempt waited,
       and the hook kills the attempt once the per-stage deadline is
       overrun. *)
    let cost = ref 0.0 in
    let stall s =
      if s < 0.0 then invalid_arg "Supervisor: negative stall";
      cost := !cost +. s;
      match t.policy.stage_deadline_seconds with
      | Some d when !cost > d -> raise Stage_timeout
      | _ -> ()
    in
    let retry_or_fail ~attempt_cost error =
      if attempt >= t.policy.max_attempts then begin
        bill attempt_cost;
        fail attempt (wasted +. attempt_cost) error
      end
      else begin
        let backoff = Retry.backoff_seconds ~key:site ~attempt in
        bill (attempt_cost +. backoff);
        attempt_loop (attempt + 1) (wasted +. attempt_cost +. backoff)
      end
    in
    match body ~attempt ~stall with
    | v ->
        (* Stalls survived on the way to success still consumed
           (simulated) time: bill them. *)
        bill !cost;
        v
    | exception Stage_timeout -> (
        (* Only the [stall] hook above raises [Stage_timeout], and only
           under a [Some] deadline — but a stage body may capture the
           hook of a deadline-bearing supervisor and leak the exception
           into a site with no deadline of its own.  Treat that as a
           crash of the attempt rather than dying on [Option.get]. *)
        match t.policy.stage_deadline_seconds with
        | Some d ->
            (* The attempt waited out the whole deadline before being
               killed, so the deadline is the attempt's cost. *)
            retry_or_fail ~attempt_cost:d (Stage_deadline d)
        | None ->
            retry_or_fail ~attempt_cost:!cost
              (Crash "Supervisor.Stage_timeout leaked from a foreign stage"))
    | exception e when transient e ->
        retry_or_fail ~attempt_cost:!cost (Crash (Printexc.to_string e))
  in
  attempt_loop 1 0.0
