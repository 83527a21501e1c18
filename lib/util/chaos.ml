(** Deterministic multi-plane chaos model — see the interface. *)

(* One independent PRNG per fully-qualified key: planes, sites and roll
   names never share a stream, so adding a roll site cannot perturb
   unrelated draws.  The CAD plane's rolls ([Cad.Faults.roll]) use the
   same derivation. *)
let key_prng ~seed key = Prng.create ~seed:(Prng.hash_string key lxor seed)

let bernoulli prng p = p > 0.0 && Prng.float prng 1.0 < p

type config = {
  seed : int;
  stage_crash_rate : float;
  stage_stall_rate : float;
  stage_stall_seconds : float;
  pool_crash_rate : float;
  store_read_error_rate : float;
  store_write_drop_rate : float;
  store_torn_rate : float;
  store_latency_rate : float;
  store_latency_seconds : float;
  cad_crash_rate : float;
  cad_congestion_rate : float;
  cad_timing_rate : float;
  cad_corruption_rate : float;
}

let none =
  {
    seed = 0;
    stage_crash_rate = 0.0;
    stage_stall_rate = 0.0;
    stage_stall_seconds = 0.0;
    pool_crash_rate = 0.0;
    store_read_error_rate = 0.0;
    store_write_drop_rate = 0.0;
    store_torn_rate = 0.0;
    store_latency_rate = 0.0;
    store_latency_seconds = 0.0;
    cad_crash_rate = 0.0;
    cad_congestion_rate = 0.0;
    cad_timing_rate = 0.0;
    cad_corruption_rate = 0.0;
  }

let defaults ~seed =
  {
    none with
    seed;
    stage_crash_rate = 0.03;
    stage_stall_rate = 0.05;
    stage_stall_seconds = 45.0;
    pool_crash_rate = 0.02;
    store_read_error_rate = 0.05;
    store_write_drop_rate = 0.05;
    store_torn_rate = 0.03;
    store_latency_rate = 0.05;
    store_latency_seconds = 0.001;
  }

let with_cad_defaults c =
  {
    c with
    cad_crash_rate = 0.02;
    cad_congestion_rate = 0.15;
    cad_timing_rate = 0.20;
    cad_corruption_rate = 0.03;
  }

let validate c =
  let check_rate what rate =
    if rate < 0.0 || rate > 1.0 then
      invalid_arg
        (Printf.sprintf "Chaos: %s must be a probability in [0, 1] (got %g)"
           what rate)
  in
  check_rate "stage_crash_rate" c.stage_crash_rate;
  check_rate "stage_stall_rate" c.stage_stall_rate;
  check_rate "pool_crash_rate" c.pool_crash_rate;
  check_rate "store_read_error_rate" c.store_read_error_rate;
  check_rate "store_write_drop_rate" c.store_write_drop_rate;
  check_rate "store_torn_rate" c.store_torn_rate;
  check_rate "store_latency_rate" c.store_latency_rate;
  check_rate "cad_crash_rate" c.cad_crash_rate;
  check_rate "cad_congestion_rate" c.cad_congestion_rate;
  check_rate "cad_timing_rate" c.cad_timing_rate;
  check_rate "cad_corruption_rate" c.cad_corruption_rate;
  if c.stage_stall_seconds < 0.0 then
    invalid_arg "Chaos: stage_stall_seconds must be non-negative";
  if c.store_latency_seconds < 0.0 || c.store_latency_seconds > 0.05 then
    invalid_arg
      "Chaos: store_latency_seconds is a real sleep and must be in [0, 0.05]"

exception Injected of string

let inject plane site = raise (Injected (plane ^ ":" ^ site))
let is_injected = function Injected _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Plane rolls.  Stage rolls are keyed per (site, attempt) so a retry
   re-rolls; store rolls are keyed per site only — backend call counts
   depend on scheduling (an L1 promotion races a concurrent probe), so
   a per-call key would break replay.  A zero rate is a constant
   [false]/[None] and never builds its site's generator, so a plane
   whose rates are all zero costs one comparison per roll. *)

let stage_site c ~site ~attempt what =
  key_prng ~seed:c.seed
    (Printf.sprintf "chaos:stage:%d:%s:%d:%s" c.seed site attempt what)

let store_site c ~site what =
  key_prng ~seed:c.seed (Printf.sprintf "chaos:store:%d:%s:%s" c.seed site what)

let pool_site c ~site =
  key_prng ~seed:c.seed (Printf.sprintf "chaos:pool:%d:%s" c.seed site)

let stage_crash c ~site ~attempt =
  c.stage_crash_rate > 0.0
  && bernoulli (stage_site c ~site ~attempt "crash") c.stage_crash_rate

let stage_stall c ~site ~attempt =
  if c.stage_stall_rate <= 0.0 then None
  else
    let p = stage_site c ~site ~attempt "stall" in
    if bernoulli p c.stage_stall_rate then
      Some (c.stage_stall_seconds *. (0.5 +. Prng.float p 1.5))
    else None

let pool_crash c ~site =
  c.pool_crash_rate > 0.0
  && bernoulli (pool_site c ~site) c.pool_crash_rate

let store_read_error c ~site =
  c.store_read_error_rate > 0.0
  && bernoulli (store_site c ~site "read") c.store_read_error_rate

let store_write_drop c ~site =
  c.store_write_drop_rate > 0.0
  && bernoulli (store_site c ~site "drop") c.store_write_drop_rate

let store_torn c ~site =
  c.store_torn_rate > 0.0
  && bernoulli (store_site c ~site "torn") c.store_torn_rate

let store_latency c ~site =
  if c.store_latency_rate <= 0.0 then None
  else
    let p = store_site c ~site "latency" in
    if bernoulli p c.store_latency_rate then
      Some (c.store_latency_seconds *. (0.5 +. Prng.float p 1.5))
    else None

let cad_on c =
  c.cad_crash_rate > 0.0 || c.cad_congestion_rate > 0.0
  || c.cad_timing_rate > 0.0 || c.cad_corruption_rate > 0.0

let torn_length c ~site ~len =
  if len <= 1 then 0
  else
    let p = store_site c ~site "torn-len" in
    1 + Prng.int p (len - 1)

(* ------------------------------------------------------------------ *)

let wrap_backend c (b : Artifact.backend) : Artifact.backend =
  if
    c.store_read_error_rate <= 0.0
    && c.store_write_drop_rate <= 0.0
    && c.store_latency_rate <= 0.0
  then b
  else
    {
      b with
      Artifact.backend_get =
        (fun ~stage ~digest ->
          let site = stage ^ "/" ^ digest in
          (match store_latency c ~site with
          | Some s -> Unix.sleepf s
          | None -> ());
          if store_read_error c ~site then None
          else b.Artifact.backend_get ~stage ~digest);
      backend_put =
        (fun ~stage ~digest ~builder ~payload ->
          let site = stage ^ "/" ^ digest in
          if store_write_drop c ~site then ()
          else b.Artifact.backend_put ~stage ~digest ~builder ~payload);
    }
