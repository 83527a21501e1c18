(* The Section VI study: how far do a partial-bitstream cache and a
   faster CAD flow push the break-even point?  Reproduces a Table-IV
   style grid for one embedded workload and prints the paper's headline
   comparison (30 % cache + 30 % faster CAD vs the baseline).

     dune exec examples/cache_study.exe [workload]  (default: fft) *)

module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads
module Pp = Jitise_pivpav
module An = Jitise_analysis
module Core = Jitise_core
module U = Jitise_util

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "fft" in
  let w =
    match W.Registry.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 1
  in
  let db = Pp.Database.create () in
  Printf.eprintf "[cache_study] profiling and specializing %s...\n%!" name;
  let r = Core.Experiment.evaluate db w in
  let report = r.Core.Experiment.report in
  let costs = Core.Asip_sp.candidate_costs report in

  Printf.printf "%s: %d candidates, raw ASIP-SP overhead %s\n\n"
    name
    (List.length report.Core.Asip_sp.candidates)
    (U.Duration.to_min_sec report.Core.Asip_sp.sum_seconds);

  (* The grid. *)
  let hit_rates = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ] in
  let speedups = [ 0.0; 0.3; 0.6; 0.9 ] in
  let t =
    U.Texttable.create
      ~headers:
        ("Cache hit[%]"
        :: List.map (fun s -> Printf.sprintf "CAD +%.0f%%" (100.0 *. s)) speedups)
  in
  List.iter
    (fun h ->
      let cells =
        List.map
          (fun s ->
            let overhead =
              An.Cache_model.residual_overhead ~hit_rate:h ~cad_speedup:s costs
            in
            match
              An.Breakeven.of_split r.Core.Experiment.split
                ~overhead_seconds:overhead
            with
            | An.Breakeven.After t -> U.Duration.to_hms t
            | An.Breakeven.Never -> "never")
          speedups
      in
      U.Texttable.add_row t (Printf.sprintf "%.0f" (100.0 *. h) :: cells))
    hit_rates;
  U.Texttable.print t;

  (* The paper's headline: 30 % hits + 30 % faster CAD roughly halves the
     break-even time. *)
  let be h s =
    let overhead =
      An.Cache_model.residual_overhead ~hit_rate:h ~cad_speedup:s costs
    in
    match An.Breakeven.of_split r.Core.Experiment.split ~overhead_seconds:overhead with
    | An.Breakeven.After t -> t
    | An.Breakeven.Never -> infinity
  in
  let base = be 0.0 0.0 and improved = be 0.3 0.3 in
  Printf.printf
    "\nwith a 30%% cache hit rate and a 30%% faster CAD flow the break-even\n\
     time drops from %s to %s (%.2fx better)\n"
    (U.Duration.to_hms base) (U.Duration.to_hms improved) (base /. improved);

  (* The other half of Section VI-A: a bitstream cache *shared across
     applications*.  Run a second workload against the same cache and
     count how many of its data paths were already built. *)
  let other = if name = "sor" then "fft" else "sor" in
  match W.Registry.find other with
  | None -> ()
  | Some w2 ->
      Printf.eprintf "[cache_study] cross-application cache: %s then %s...\n%!"
        name other;
      let spec = Core.Spec.with_cache (U.Artifact.create ()) Core.Spec.default in
      let r1 = Core.Experiment.evaluate ~spec db w in
      let r2 = Core.Experiment.evaluate ~spec db w2 in
      let local, shared = Core.Asip_sp.cache_hit_counts r2.Core.Experiment.report in
      Printf.printf
        "\ncross-application cache (%s specialized first, then %s):\n\
        \  %s: %d local hit(s), %d shared hit(s) out of %d candidate(s)\n"
        name other other local shared
        (List.length r2.Core.Experiment.report.Core.Asip_sp.candidates);
      Format.printf "  cache totals: %a@." Core.Asip_sp.pp_cache_summary
        [ r1.Core.Experiment.report; r2.Core.Experiment.report ]
