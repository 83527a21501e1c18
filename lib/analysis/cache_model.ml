(** Bitstream-cache and faster-CAD extrapolation (Section VI, Table IV).

    Two mitigations for the ASIP-SP overhead:

    - {e partial-reconfiguration bitstream caching}: candidates are
      keyed by structural signature; a cache hit removes the *entire*
      generation time of that candidate from the overhead.  A hit rate
      of [h] is simulated by pre-populating the cache with a random
      [h]-fraction of the required bitstreams (the paper's protocol);
    - {e faster CAD tools}: all remaining CAD time scales by
      [1 - speedup].

    Break-even times are then recomputed with the {!Breakeven} model,
    which is why the rows of Table IV do not scale linearly. *)

type candidate_cost = {
  signature : string;       (** bitstream cache key *)
  generation_seconds : float;  (** full per-candidate ASIP-SP time *)
}

(** Overhead that remains with a cache populated at [hit_rate] and a
    CAD flow accelerated by [cad_speedup], for one application's
    candidate set.  Random cache population is averaged over 32 draws
    from a fixed seed. *)
let residual_overhead ~hit_rate ~cad_speedup (costs : candidate_cost list) :
    float =
  let trials = 32 in
  if hit_rate < 0.0 || hit_rate > 1.0 then
    invalid_arg
      (Printf.sprintf
         "Cache_model.residual_overhead: hit_rate must be in [0, 1] (got %g)"
         hit_rate);
  if cad_speedup < 0.0 || cad_speedup >= 1.0 then
    invalid_arg
      (Printf.sprintf
         "Cache_model.residual_overhead: cad_speedup must be in [0, 1) (got \
          %g)"
         cad_speedup);
  let n = List.length costs in
  if n = 0 then 0.0
  else begin
    (* Deduplicate by signature first: identical data paths share one
       bitstream, so the duplicates are hits even with an empty cache. *)
    let seen = Hashtbl.create 16 in
    let unique =
      List.filter
        (fun c ->
          let dup = Hashtbl.mem seen c.signature in
          Hashtbl.replace seen c.signature ();
          not dup)
        costs
      |> Array.of_list
    in
    let nu = Array.length unique in
    let hits = int_of_float (Float.round (hit_rate *. float_of_int nu)) in
    let prng = Jitise_util.Prng.create ~seed:0x5EED in
    let total_trials = ref 0.0 in
    for _ = 1 to trials do
      let order = Array.init nu Fun.id in
      Jitise_util.Prng.shuffle prng order;
      let misses = ref 0.0 in
      for k = hits to nu - 1 do
        misses := !misses +. unique.(order.(k)).generation_seconds
      done;
      total_trials := !total_trials +. !misses
    done;
    let avg_miss_time = !total_trials /. float_of_int trials in
    avg_miss_time *. (1.0 -. cad_speedup)
  end
