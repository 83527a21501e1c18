(* Benchmark harness: the generators of the two checked-in BENCH files.

     bench/main.exe vm [--workloads CSV] [--json FILE]   -> BENCH_vm.json
     bench/main.exe online [--json FILE]                 -> BENCH_online.json

   Each mode cross-checks the runs it times and exits 1 on a broken
   contract; any other argument is a usage error (exit 2).  Host speed
   is recorded, never gated: BENCH_vm.json keeps the geomeans of the
   recording it replaces as its baseline.  The paper's
   tables and figures come from `jitise table1..4|figure1|figure2|all`,
   and the end-to-end benchmark with bounds lives in perfbench/. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Core = Jitise_core

let db = Pp.Database.create ()

(* Callers pass registered names only: the command line rejects the
   rest. *)
let find_workload name = Option.get (W.Registry.find name)

(* ------------------------------------------------------------------ *)
(* VM engine microbenchmark (BENCH_vm.json)                            *)
(* ------------------------------------------------------------------ *)

(* Dynamic-instructions/second of four VM configurations over the
   workload registry, reported as machine-readable JSON for CI:

   - reference   — the AST-walking semantics baseline;
   - threaded    — the one compiled engine with every tuning knob off
     ({!Vm.Machine.untuned}): every register boxed, indexed dispatch,
     no fusion, interpreted CIs;
   - tuned-boxed — {!Vm.Machine.default_tuning} minus [regalloc]: block
     linking, fusion (of a gep only with a constant index, since a
     boxed index may fault) and CI-native dispatch, with the same
     compiler classifying every register boxed;
   - tuned       — everything on, including the typed unboxed register
     files ({!Vm.Machine.default_tuning}).

   tuned/tuned-boxed is therefore what unboxing buys inside one
   compiler, and tuned/threaded what all layers buy together.

   Each workload's train dataset runs [reps] times per configuration —
   the configurations alternate within one rep loop, so slow drift
   (frequency scaling, a noisy neighbour) hits all four equally — and
   the best wall time counts (the usual minimum-of-repetitions noise
   filter), with a major GC slice collected before each timing so one
   run's garbage is not billed to the next.  All four outcomes are
   cross-checked pairwise — a semantics divergence here fails the
   benchmark rather than producing a meaningless speedup number.

   [workloads] restricts the sweep (the CI smoke step runs four pinned
   workloads).  The [geomean] block of the file at [path], when there
   is one, becomes the new file's [baseline]; speed is recorded, not
   gated.  Host-time columns of two recordings compare only loosely
   (they are taken at different times on whatever host ran them); the
   in-run ratios compare better. *)
let vm_report ?(workloads = W.Registry.names) path =
  let reps = 5 in
  prerr_endline
    "[bench] vm: reference vs threaded vs tuned-boxed vs tuned over the \
     registry...";
  let check_identical name what (a : Vm.Machine.outcome)
      (b : Vm.Machine.outcome) =
    let same_ret =
      match (a.Vm.Machine.ret, b.Vm.Machine.ret) with
      | None, None -> true
      | Some x, Some y -> Ir.Eval.equal_value x y
      | _ -> false
    in
    if
      not
        (same_ret
        && a.Vm.Machine.native_cycles = b.Vm.Machine.native_cycles
        && a.Vm.Machine.vm_cycles = b.Vm.Machine.vm_cycles
        && Vm.Profile.to_list a.Vm.Machine.profile
           = Vm.Profile.to_list b.Vm.Machine.profile)
    then begin
      Printf.eprintf "bench: vm configs disagree on %s (%s)\n" name what;
      exit 1
    end
  in
  let time_once compiled d engine tuning =
    Gc.major ();
    let t0 = Unix.gettimeofday () in
    let out = W.Workload.run ~engine ~tuning compiled d in
    (out, Unix.gettimeofday () -. t0)
  in
  let configs =
    [
      ("reference", Vm.Machine.Reference, Vm.Machine.untuned);
      ("threaded", Vm.Machine.Threaded, Vm.Machine.untuned);
      ( "tuned-boxed",
        Vm.Machine.Threaded,
        { Vm.Machine.default_tuning with Vm.Machine.regalloc = false } );
      ("tuned", Vm.Machine.Threaded, Vm.Machine.default_tuning);
    ]
  in
  let rows =
    List.map
      (fun name ->
        let w = find_workload name in
        let compiled = W.Workload.compile w in
        let d = List.hd w.W.Workload.datasets in
        let best = Array.make (List.length configs) infinity in
        let outs = Array.make (List.length configs) None in
        for _ = 1 to reps do
          List.iteri
            (fun i (_, engine, tuning) ->
              let o, dt = time_once compiled d engine tuning in
              if dt < best.(i) then best.(i) <- dt;
              outs.(i) <- Some o)
            configs
        done;
        let out i = Option.get outs.(i) in
        check_identical name "reference vs threaded" (out 0) (out 1);
        check_identical name "threaded vs tuned-boxed" (out 1) (out 2);
        check_identical name "tuned-boxed vs tuned" (out 2) (out 3);
        let instrs =
          Int64.to_float (out 0).Vm.Machine.profile.Vm.Profile.executed_instrs
        in
        let ips i = instrs /. best.(i) in
        Printf.eprintf
          "[bench] vm: %-14s %10.0f instrs  ref %7.2f  thr %7.2f  boxed \
           %7.2f  tuned %7.2f Mi/s  (tuned/boxed %.2fx)\n\
           %!"
          name instrs (ips 0 /. 1e6) (ips 1 /. 1e6) (ips 2 /. 1e6)
          (ips 3 /. 1e6) (ips 3 /. ips 2);
        (name, instrs, best))
      workloads
  in
  let geomean ratio =
    let n = List.length rows in
    exp
      (List.fold_left (fun acc (_, _, b) -> acc +. log (ratio b)) 0.0 rows
      /. float_of_int n)
  in
  (* times are seconds, so speedup of config i over config j is
     b.(j) /. b.(i) *)
  let g_thr_ref = geomean (fun b -> b.(0) /. b.(1)) in
  let g_boxed_thr = geomean (fun b -> b.(1) /. b.(2)) in
  let g_tuned_thr = geomean (fun b -> b.(1) /. b.(3)) in
  let g_tuned_ref = geomean (fun b -> b.(0) /. b.(3)) in
  let g_tuned_boxed = geomean (fun b -> b.(2) /. b.(3)) in
  (* the replaced recording's geomean object, as written below: one
     line, no nested braces *)
  let baseline =
    let prefix = "  \"geomean\": {" in
    let prev =
      if Sys.file_exists path then
        In_channel.with_open_text path In_channel.input_all
      else ""
    in
    match
      List.find_opt (String.starts_with ~prefix)
        (String.split_on_char '\n' prev)
    with
    | Some line -> (
        let start = String.length prefix - 1 in
        match String.index_from_opt line start '}' with
        | Some stop -> String.sub line start (stop - start + 1)
        | None -> "null")
    | None -> "null"
  in
  let t = Vm.Machine.default_tuning in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"configs\": [%s], \"reps\": %d,\n"
       (String.concat ", "
          (List.map (fun (l, _, _) -> Printf.sprintf "%S" l) configs))
       reps);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"tuning\": {\"link\": %b, \"fuse\": %b, \"ci_native\": %b, \
        \"regalloc\": %b, \"max_linked_blocks\": %d},\n"
       t.Vm.Machine.link t.Vm.Machine.fuse t.Vm.Machine.ci_native
       t.Vm.Machine.regalloc t.Vm.Machine.max_linked_blocks);
  Buffer.add_string buf "  \"workloads\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, instrs, b) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"dynamic_instrs\": %.0f, \
            \"reference_seconds\": %.6f, \"threaded_seconds\": %.6f, \
            \"tuned_boxed_seconds\": %.6f, \"tuned_seconds\": %.6f, \
            \"reference_ips\": %.0f, \"threaded_ips\": %.0f, \
            \"tuned_boxed_ips\": %.0f, \"tuned_ips\": %.0f, \
            \"tuned_over_threaded\": %.4f, \
            \"tuned_over_tuned_boxed\": %.4f}%s\n"
           name instrs b.(0) b.(1) b.(2) b.(3) (instrs /. b.(0))
           (instrs /. b.(1))
           (instrs /. b.(2))
           (instrs /. b.(3))
           (b.(1) /. b.(3))
           (b.(2) /. b.(3))
           (if i = n - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"geomean\": {\"threaded_over_reference\": %.4f, \
        \"tuned_boxed_over_threaded\": %.4f, \"tuned_over_threaded\": %.4f, \
        \"tuned_over_reference\": %.4f, \"tuned_over_tuned_boxed\": %.4f},\n"
       g_thr_ref g_boxed_thr g_tuned_thr g_tuned_ref g_tuned_boxed);
  Buffer.add_string buf (Printf.sprintf "  \"baseline\": %s\n" baseline);
  Buffer.add_string buf "}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.eprintf
    "[bench] vm: wrote %s (geomean: thr/ref %.2fx, tuned/thr %.2fx, \
     tuned/ref %.2fx, tuned/boxed %.2fx)\n\
     %!"
    path g_thr_ref g_tuned_thr g_tuned_ref g_tuned_boxed


(* ------------------------------------------------------------------ *)
(* Online adaptive specialization (BENCH_online.json)                  *)
(* ------------------------------------------------------------------ *)

(* Run the closed-loop controller over the phase-shifting workloads and
   report adaptive vs oracle-offline vs no-specialization cycle totals
   (reconfiguration stalls included) plus the fabric and CAD counters,
   as machine-readable JSON for CI.  Two contracts are asserted rather
   than just reported: the three lanes of a report agree on the program
   result, and the adaptive controller beats static whole-run
   specialization on at least one workload — the reason the online
   loop exists. *)
let online_report_json path =
  let module JM = Core.Jit_manager in
  let apps = W.Registry.phased_names in
  prerr_endline
    "[bench] online: adaptive vs oracle vs nospec over phased workloads...";
  (* No pruning for the online loop: the controller decides what is
     worth implementing from live evidence, so every phase kernel must
     reach the candidate stage. *)
  let spec = Core.Spec.with_prune Ise.Prune.none Core.Spec.default in
  let same_ret (a : JM.online_run) (b : JM.online_run) =
    match (a.JM.run_ret, b.JM.run_ret) with
    | None, None -> true
    | Some x, Some y -> Ir.Eval.equal_value x y
    | _ -> false
  in
  let results =
    List.map
      (fun name ->
        let w = find_workload name in
        let o = JM.online ~spec db w in
        if
          not
            (same_ret o.JM.o_adaptive o.JM.o_oracle
            && same_ret o.JM.o_adaptive o.JM.o_nospec)
        then begin
          Printf.eprintf
            "bench: online: %s: runs disagree on the program result\n" name;
          exit 1
        end;
        Printf.eprintf
          "[bench] online: %-14s adaptive %12.0f  oracle %12.0f  nospec \
           %12.0f  (cad %d/%d/%d)\n\
           %!"
          name o.JM.o_adaptive.JM.run_cycles o.JM.o_oracle.JM.run_cycles
          o.JM.o_nospec.JM.run_cycles o.JM.o_cad_launched o.JM.o_cad_completed
          o.JM.o_cad_cancelled;
        o)
      apps
  in
  (match
     List.find_opt
       (fun (o : JM.online_report) ->
         o.JM.o_adaptive.JM.run_cycles < o.JM.o_oracle.JM.run_cycles)
       results
   with
  | Some _ -> ()
  | None ->
      prerr_endline
        "bench: online: adaptive never beat the oracle-offline baseline";
      exit 1);
  let cfg = Core.Spec.default.Core.Spec.online in
  let emit_run buf key (r : JM.online_run) =
    Buffer.add_string buf
      (Printf.sprintf
         "      \"%s\": {\"cycles\": %.0f, \"vm_cycles\": %.0f, \
          \"stall_cycles\": %.0f, \"reconfigurations\": %d, \"evictions\": \
          %d, \"swaps\": %d},\n"
         key r.JM.run_cycles r.JM.run_vm_cycles r.JM.run_stall_cycles
         r.JM.run_reconfigurations r.JM.run_evictions r.JM.run_swaps)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"config\": {\"slots\": %d, \"policy\": %S, \"window\": %d, \
        \"decay\": %g, \"latency_scale\": %g, \"prune\": \"@nofilter\"},\n"
       cfg.Core.Spec.slots
       (Jitise_woolcano.Asip.policy_name cfg.Core.Spec.evict)
       cfg.Core.Spec.window cfg.Core.Spec.decay cfg.Core.Spec.latency_scale);
  Buffer.add_string buf "  \"workloads\": [\n";
  let n = List.length results in
  List.iteri
    (fun i (o : JM.online_report) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": %S, \"dataset\": %S, \"cis\": %d,\n"
           o.JM.o_app o.JM.o_dataset o.JM.o_cis);
      emit_run buf "adaptive" o.JM.o_adaptive;
      emit_run buf "oracle" o.JM.o_oracle;
      emit_run buf "nospec" o.JM.o_nospec;
      Buffer.add_string buf
        (Printf.sprintf
           "      \"windows\": %d, \"phase_exits\": %d, \"cad_launched\": \
            %d, \"cad_completed\": %d, \"cad_cancelled\": %d,\n"
           o.JM.o_windows o.JM.o_phase_exits o.JM.o_cad_launched
           o.JM.o_cad_completed o.JM.o_cad_cancelled);
      Buffer.add_string buf
        (Printf.sprintf
           "      \"adaptive_vs_oracle\": %.4f, \"adaptive_vs_nospec\": \
            %.4f}%s\n"
           (o.JM.o_adaptive.JM.run_cycles /. o.JM.o_oracle.JM.run_cycles)
           (o.JM.o_adaptive.JM.run_cycles /. o.JM.o_nospec.JM.run_cycles)
           (if i = n - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    "  \"adaptive_beats_oracle\": true,\n  \"replay_identical\": true\n}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.eprintf "[bench] online: wrote %s (%d workloads)\n%!" path n

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench/main.exe vm [--workloads CSV] [--json FILE]\n\
    \       bench/main.exe online [--json FILE]";
  exit 2

(* [FLAG VALUE] pairs restricted to [allowed]; a later flag wins. *)
let rec flags ~allowed acc = function
  | flag :: value :: rest when List.mem flag allowed ->
      flags ~allowed ((flag, value) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "vm" :: rest ->
      let f = flags ~allowed:[ "--workloads"; "--json" ] [] rest in
      let workloads =
        Option.map (String.split_on_char ',') (List.assoc_opt "--workloads" f)
      in
      Option.iter
        (List.iter (fun name ->
             if W.Registry.find name = None then begin
               Printf.eprintf
                 "bench: workload %S is not registered (have: %s)\n" name
                 (String.concat ", " W.Registry.names);
               exit 2
             end))
        workloads;
      vm_report ?workloads
        (Option.value ~default:"BENCH_vm.json" (List.assoc_opt "--json" f))
  | "online" :: rest ->
      let f = flags ~allowed:[ "--json" ] [] rest in
      online_report_json
        (Option.value ~default:"BENCH_online.json" (List.assoc_opt "--json" f))
  | _ -> usage ()
