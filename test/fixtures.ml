(* Helpers shared by the test executables: fixtures that no production
   code runs, kept out of lib/ so that every lib/ export has a
   production reader (see tools/dead_exports). *)

module U = Jitise_util

(* A randomized fault mix for campaign runs: every stage, pool and
   store rate (and both magnitudes) is drawn from the seed, so [N]
   seeds explore [N] different storm shapes while each remains exactly
   replayable.  Fixed draw order, so a storm is a pure function of its
   seed.  Rates are capped low enough that a supervised pipeline with a
   3-attempt budget still lands most candidates, but high enough that a
   multi-seed campaign exercises every degradation path.  The CAD plane
   stays off; add it with [Chaos.with_cad_defaults]. *)
let storm ~seed =
  let p = U.Chaos.key_prng ~seed (Printf.sprintf "chaos:storm:%d" seed) in
  let rate cap = U.Prng.float p cap in
  {
    U.Chaos.seed;
    stage_crash_rate = rate 0.10;
    stage_stall_rate = rate 0.20;
    stage_stall_seconds = 10.0 +. U.Prng.float p 110.0;
    pool_crash_rate = rate 0.05;
    store_read_error_rate = rate 0.15;
    store_write_drop_rate = rate 0.15;
    store_torn_rate = rate 0.10;
    store_latency_rate = rate 0.20;
    store_latency_seconds = U.Prng.float p 0.002;
    cad_crash_rate = 0.0;
    cad_congestion_rate = 0.0;
    cad_timing_rate = 0.0;
    cad_corruption_rate = 0.0;
  }

(* The temp files ([<digest>.tmp.<pid>.<seq>]) left in the stage
   directories under a disk store's [root]. *)
let store_tmp_files root =
  let is_tmp n =
    let m = ".tmp." in
    let rec scan i =
      i + String.length m <= String.length n
      && (String.sub n i (String.length m) = m || scan (i + 1))
    in
    scan 0
  in
  Sys.readdir root |> Array.to_list
  |> List.concat_map (fun stage ->
         let dir = Filename.concat root stage in
         if Sys.is_directory dir then
           Sys.readdir dir |> Array.to_list |> List.filter is_tmp
         else [])

(* The MAXMISO candidates of every block of a module, in function and
   block order. *)
let maxmisos (m : Jitise_ir.Irmod.t) =
  List.concat_map
    (fun (f : Jitise_ir.Func.t) ->
      Array.to_list f.blocks
      |> List.concat_map (fun b ->
             Jitise_ise.Maxmiso.of_block (Jitise_ir.Dfg.of_block f b)
               ~func:f.name))
    m.Jitise_ir.Irmod.funcs

module Pipeline = Jitise_core.Pipeline

(* Executions of [stage] in [rs] that ran the stage body. *)
let computed_of (rs : Pipeline.record list) stage =
  List.length
    (List.filter
       (fun (r : Pipeline.record) ->
         r.rec_stage = stage && r.rec_outcome = Pipeline.Computed)
       rs)

(* Executions of [stage] in [rs] that were served from the store. *)
let hits_of (rs : Pipeline.record list) stage =
  List.length
    (List.filter
       (fun (r : Pipeline.record) ->
         r.rec_stage = stage
         && match r.rec_outcome with Pipeline.Hit _ -> true | _ -> false)
       rs)

(* [(stage, computed executions)] for every stage in [rs], by name. *)
let computed_by_stage (rs : Pipeline.record list) =
  List.sort_uniq compare (List.map (fun (r : Pipeline.record) -> r.rec_stage) rs)
  |> List.map (fun stage -> (stage, computed_of rs stage))
