(* Tests for Jitise_workloads: every benchmark compiles, verifies, runs
   deterministically, and exhibits the structural properties the
   paper's evaluation depends on. *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads

(* Compiled workloads are shared across tests (compilation is cheap but
   not free). *)
let compiled =
  lazy
    (List.map (fun w -> (w, W.Workload.compile w)) W.Registry.all)

let small_run (w : W.Workload.t) compiled_result =
  (* a scaled-down dataset keeps the suite fast *)
  let d = List.hd w.W.Workload.datasets in
  let n = max 1 (d.W.Workload.n / 10) in
  W.Workload.run compiled_result { d with W.Workload.n }

let test_registry () =
  Alcotest.(check int) "14 workloads" 14 (List.length W.Registry.all);
  Alcotest.(check int) "10 scientific" 10 (List.length W.Registry.scientific);
  Alcotest.(check int) "4 embedded" 4 (List.length W.Registry.embedded);
  Alcotest.(check bool) "find" true (W.Registry.find "470.lbm" <> None);
  Alcotest.(check bool) "find missing" true (W.Registry.find "999.zz" = None);
  Alcotest.(check int) "names" 14 (List.length W.Registry.names)

let test_all_compile_and_verify () =
  List.iter
    (fun ((w : W.Workload.t), (r : F.Compiler.result)) ->
      Alcotest.(check (list string))
        (w.W.Workload.name ^ " verifies")
        []
        (List.map
           (Format.asprintf "%a" Ir.Verifier.pp_error)
           (Ir.Verifier.check_module r.F.Compiler.modul)))
    (Lazy.force compiled)

let test_all_have_two_datasets () =
  List.iter
    (fun (w : W.Workload.t) ->
      Alcotest.(check bool)
        (w.W.Workload.name ^ " has >= 2 datasets")
        true
        (List.length w.W.Workload.datasets >= 2))
    W.Registry.all

let test_all_run_without_faults () =
  List.iter
    (fun (w, r) ->
      match small_run w r with
      | exception Vm.Machine.Fault m ->
          Alcotest.failf "%s faulted: %s" w.W.Workload.name m
      | out ->
          Alcotest.(check bool)
            (w.W.Workload.name ^ " returns int")
            true
            (match out.Vm.Machine.ret with
            | Some (Ir.Eval.VInt _) -> true
            | _ -> false))
    (Lazy.force compiled)

let test_runs_deterministic () =
  List.iter
    (fun (w, r) ->
      let a = small_run w r and b = small_run w r in
      Alcotest.(check bool)
        (w.W.Workload.name ^ " deterministic")
        true
        (a.Vm.Machine.ret = b.Vm.Machine.ret
        && a.Vm.Machine.native_cycles = b.Vm.Machine.native_cycles))
    (Lazy.force compiled)

let test_datasets_change_profiles () =
  (* the coverage analysis depends on frequency differences between
     datasets; check on one embedded and one scientific app *)
  List.iter
    (fun name ->
      let w = Option.get (W.Registry.find name) in
      let r = List.assq w (Lazy.force compiled) in
      match w.W.Workload.datasets with
      | d1 :: d2 :: _ ->
          let d1 = { d1 with W.Workload.n = max 1 (d1.W.Workload.n / 10) } in
          let d2 = { d2 with W.Workload.n = max 2 (d2.W.Workload.n / 10) } in
          let o1 = W.Workload.run r d1 and o2 = W.Workload.run r d2 in
          Alcotest.(check bool)
            (name ^ " profiles differ")
            true
            (Vm.Profile.to_list o1.Vm.Machine.profile
            <> Vm.Profile.to_list o2.Vm.Machine.profile)
      | _ -> Alcotest.fail "needs two datasets")
    [ "sor"; "429.mcf" ]

let test_scale_contrast () =
  (* the paper's central scale contrast: scientific programs are larger
     than embedded ones in LOC, blocks and instructions *)
  let avg f xs =
    List.fold_left (fun a x -> a +. f x) 0.0 xs /. float_of_int (List.length xs)
  in
  let stats domain =
    Lazy.force compiled
    |> List.filter (fun ((w : W.Workload.t), _) -> w.W.Workload.domain = domain)
    |> List.map (fun (_, (r : F.Compiler.result)) -> r.F.Compiler.stats)
  in
  let s = stats W.Workload.Scientific and e = stats W.Workload.Embedded in
  let loc st = float_of_int st.F.Compiler.loc in
  let blk st = float_of_int st.F.Compiler.blocks in
  let ins st = float_of_int st.F.Compiler.instrs in
  Alcotest.(check bool) "LOC ratio > 5" true (avg loc s > 5.0 *. avg loc e);
  Alcotest.(check bool) "block ratio > 4" true (avg blk s > 4.0 *. avg blk e);
  Alcotest.(check bool) "instr ratio > 2" true (avg ins s > 2.0 *. avg ins e)

let test_embedded_sources_are_single_file () =
  List.iter
    (fun (w : W.Workload.t) ->
      Alcotest.(check int)
        (w.W.Workload.name ^ " single source")
        1
        (List.length w.W.Workload.sources))
    W.Registry.embedded

let test_scientific_sources_are_multi_file () =
  List.iter
    (fun (w : W.Workload.t) ->
      Alcotest.(check bool)
        (w.W.Workload.name ^ " multiple sources")
        true
        (List.length w.W.Workload.sources >= 2))
    W.Registry.scientific

let test_unoptimized_equivalence () =
  (* -O0 and -O3 must agree on the checksum for a fast subset *)
  List.iter
    (fun name ->
      let w = Option.get (W.Registry.find name) in
      let o3 = List.assq w (Lazy.force compiled) in
      let o0 =
        F.Compiler.compile ~optimize:false ~module_name:w.W.Workload.name
          w.W.Workload.sources
      in
      let a = small_run w o3 and b = small_run w o0 in
      Alcotest.(check bool) (name ^ ": -O0 = -O3") true
        (a.Vm.Machine.ret = b.Vm.Machine.ret))
    [ "sor"; "fft"; "adpcm"; "whetstone"; "433.milc"; "473.astar" ]

let () =
  Alcotest.run "workloads"
    [
      ( "registry",
        [
          Alcotest.test_case "contents" `Quick test_registry;
          Alcotest.test_case "datasets" `Quick test_all_have_two_datasets;
          Alcotest.test_case "single-file embedded" `Quick
            test_embedded_sources_are_single_file;
          Alcotest.test_case "multi-file scientific" `Quick
            test_scientific_sources_are_multi_file;
        ] );
      ( "execution",
        [
          Alcotest.test_case "compile and verify" `Quick test_all_compile_and_verify;
          Alcotest.test_case "run without faults" `Slow test_all_run_without_faults;
          Alcotest.test_case "deterministic" `Slow test_runs_deterministic;
          Alcotest.test_case "profiles vary with dataset" `Slow
            test_datasets_change_profiles;
          Alcotest.test_case "-O0 = -O3" `Slow test_unoptimized_equivalence;
        ] );
      ( "shape",
        [ Alcotest.test_case "scale contrast" `Quick test_scale_contrast ] );
    ]
