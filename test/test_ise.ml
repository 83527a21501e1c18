(* Tests for Jitise_ise: candidates, MAXMISO, SingleCut, pruning,
   selection, speedup accounting. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module F = Jitise_frontend
module Ise = Jitise_ise
module Pp = Jitise_pivpav

let db = Pp.Database.create ()

let compile src = (F.Compiler.compile_string ~name:"t" src).F.Compiler.modul

(* A float-heavy straight-line function: rich candidate material. *)
let float_chain_src =
  "double a[64]; double b[64]; int main(int n) { int i; for (i = 0; i < 64; i = i + 1) { a[i] = i * 0.5; b[i] = i * 0.25; } double s = 0.0; for (i = 0; i < n; i = i + 1) { int k = i & 63; s = s + (a[k] * 1.5 + b[k] * 2.5) * (a[k] - b[k]) + 0.125; } return s; }"

(* ------------------------------------------------------------------ *)
(* MAXMISO partition properties                                        *)
(* ------------------------------------------------------------------ *)

(* All MAXMISO properties checked over every block of a module. *)
let check_maxmiso_properties m =
  List.iter
    (fun (f : Ir.Func.t) ->
      Ir.Func.iter_blocks
        (fun blk ->
          let dfg = Ir.Dfg.of_block f blk in
          let cands = Ise.Maxmiso.of_block dfg ~func:f.Ir.Func.name in
          (* 1. disjoint *)
          let seen = Hashtbl.create 16 in
          List.iter
            (fun (c : Ise.Candidate.t) ->
              List.iter
                (fun n ->
                  if Hashtbl.mem seen n then
                    Alcotest.failf "node %d in two candidates (%s/bb%d)" n
                      f.Ir.Func.name blk.Ir.Block.label;
                  Hashtbl.replace seen n ())
                c.Ise.Candidate.nodes)
            cands;
          (* 2. cover every feasible node but the one-instruction cones:
             an uncovered feasible node has no feasible, unexported
             producer that only it consumes (that producer would have
             joined its cone) *)
          Array.iter
            (fun (node : Ir.Dfg.node) ->
              let n = node.Ir.Dfg.index in
              let own_producer p =
                let pn = dfg.Ir.Dfg.nodes.(p) in
                Ir.Dfg.feasible pn
                && (not pn.Ir.Dfg.external_uses)
                && List.for_all (( = ) n) pn.Ir.Dfg.succs
              in
              if
                Ir.Dfg.feasible node
                && (not (Hashtbl.mem seen n))
                && List.exists own_producer node.Ir.Dfg.preds
              then
                Alcotest.failf "feasible node %d uncovered (%s/bb%d)" n
                  f.Ir.Func.name blk.Ir.Block.label)
            dfg.Ir.Dfg.nodes;
          (* 3. single output and convex *)
          List.iter
            (fun (c : Ise.Candidate.t) ->
              (match Ise.Candidate.output_nodes dfg c.Ise.Candidate.nodes with
              | [] | [ _ ] -> ()
              | outs ->
                  Alcotest.failf "%d outputs in candidate" (List.length outs));
              if not (Ise.Candidate.is_convex dfg c.Ise.Candidate.nodes) then
                Alcotest.fail "non-convex MAXMISO")
            cands)
        f)
    m.Ir.Irmod.funcs

let test_maxmiso_properties_float () =
  check_maxmiso_properties (compile float_chain_src)

let test_maxmiso_properties_workload () =
  let w = Option.get (Jitise_workloads.Registry.find "sor") in
  check_maxmiso_properties
    (Jitise_workloads.Workload.compile w).Jitise_frontend.Compiler.modul

let test_maxmiso_finds_float_chain () =
  let m = compile float_chain_src in
  let cands = Fixtures.maxmisos m in
  Alcotest.(check bool) "some candidates" true (cands <> []);
  let big = List.filter (fun c -> c.Ise.Candidate.size >= 4) cands in
  Alcotest.(check bool) "a multi-op float chain exists" true (big <> [])

let test_maxmiso_excludes_infeasible () =
  let m = compile float_chain_src in
  List.iter
    (fun (c : Ise.Candidate.t) ->
      List.iter
        (fun op ->
          match op with
          | "load" | "store" | "gep" | "phi" | "alloca" ->
              Alcotest.failf "infeasible op %s in candidate" op
          | _ -> ())
        c.Ise.Candidate.opcodes)
    (Fixtures.maxmisos m)

let test_maxmiso_min_size () =
  (* one-op cones never amortize the CI interface overhead *)
  let m = compile float_chain_src in
  List.iter
    (fun (c : Ise.Candidate.t) ->
      Alcotest.(check bool) "no one-instruction candidate" true
        (c.Ise.Candidate.size >= 2))
    (Fixtures.maxmisos m)

(* ------------------------------------------------------------------ *)
(* Candidate utilities                                                 *)
(* ------------------------------------------------------------------ *)

let test_candidate_signature_stability () =
  (* the same source compiled twice gives identical signatures *)
  let sigs src =
    Fixtures.maxmisos (compile src)
    |> List.map (fun c -> c.Ise.Candidate.signature)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "deterministic" (sigs float_chain_src)
    (sigs float_chain_src)

let test_candidate_signature_distinguishes () =
  let src_a = "int main(int n) { return (n + 1) * 3 - (n >> 2); }" in
  let src_b = "int main(int n) { return (n - 1) * 3 + (n >> 2); }" in
  let sigs src =
    Fixtures.maxmisos (compile src)
    |> List.map (fun c -> c.Ise.Candidate.signature)
  in
  Alcotest.(check bool) "different shapes, different signatures" true
    (sigs src_a <> sigs src_b)

let test_candidate_signature_shared_across_duplicates () =
  (* two identical statements produce structurally identical candidates
     in different blocks with equal signatures *)
  let src =
    "double x[8]; double y[8]; int main(int n) { if (n > 0) { x[0] = x[1] * 2.5 + x[2] * 1.5; } else { y[0] = y[1] * 2.5 + y[2] * 1.5; } return 0; }"
  in
  let sigs =
    Fixtures.maxmisos (compile src)
    |> List.map (fun c -> c.Ise.Candidate.signature)
  in
  match sigs with
  | [ a; b ] -> Alcotest.(check string) "same shape same signature" a b
  | _ -> Alcotest.failf "expected 2 candidates, got %d" (List.length sigs)

let test_candidate_make_rejects () =
  let m = compile float_chain_src in
  let f = Option.get (Ir.Irmod.find_func m "main") in
  let blk = Ir.Func.block f 0 in
  let dfg = Ir.Dfg.of_block f blk in
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Ise.Candidate.make dfg ~func:"main" []);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* SingleCut                                                           *)
(* ------------------------------------------------------------------ *)

let test_singlecut_beats_or_matches_maxmiso () =
  let m = compile "int main(int n) { return ((n * 3 + 7) ^ (n >> 2)) * (n + 1); }" in
  let f = Option.get (Ir.Irmod.find_func m "main") in
  let dfg = Ir.Dfg.of_block f (Ir.Func.block f 0) in
  let result = Ise.Singlecut.of_block db dfg ~func:"main" in
  Alcotest.(check bool) "explores" true (result.Ise.Singlecut.explored > 0);
  Alcotest.(check bool) "finds something" true (result.Ise.Singlecut.best <> None);
  (* the exact search must be at least as good as the best MAXMISO under
     the same input constraint *)
  let gain nodes =
    match Pp.Estimator.estimate db dfg nodes with
    | Some e -> e.Pp.Estimator.sw_cycles - e.Pp.Estimator.hw_cycles
    | None -> 0
  in
  let best_exact =
    match result.Ise.Singlecut.best with
    | Some c -> gain c.Ise.Candidate.nodes
    | None -> 0
  in
  let best_miso =
    List.fold_left
      (fun acc (c : Ise.Candidate.t) ->
        if
          List.length
            (Ise.Candidate.external_input_regs dfg c.Ise.Candidate.nodes)
          <= Ise.Singlecut.default_config.Ise.Singlecut.max_inputs
        then max acc (gain c.Ise.Candidate.nodes)
        else acc)
      0
      (Ise.Maxmiso.of_block dfg ~func:"main")
  in
  Alcotest.(check bool) "exact >= maxmiso" true (best_exact >= best_miso)

let test_singlecut_respects_budget () =
  let m = compile float_chain_src in
  let f = Option.get (Ir.Irmod.find_func m "main") in
  (* hot loop block *)
  let blk = Ir.Func.block f (Ir.Func.num_blocks f - 2) in
  let dfg = Ir.Dfg.of_block f blk in
  let config = { Ise.Singlecut.default_config with Ise.Singlecut.step_budget = 50 } in
  let r = Ise.Singlecut.of_block ~config db dfg ~func:"main" in
  Alcotest.(check bool) "stops at budget" true (r.Ise.Singlecut.explored <= 51)

let test_singlecut_gives_up_on_big_blocks () =
  let m = compile float_chain_src in
  let f = Option.get (Ir.Irmod.find_func m "main") in
  let blk = Ir.Func.block f 0 in
  let dfg = Ir.Dfg.of_block f blk in
  let config = { Ise.Singlecut.default_config with Ise.Singlecut.max_nodes = 1 } in
  let r = Ise.Singlecut.of_block ~config db dfg ~func:"main" in
  Alcotest.(check bool) "flagged exhausted" true
    (r.Ise.Singlecut.exhausted || r.Ise.Singlecut.explored = 0)

(* ------------------------------------------------------------------ *)
(* Pruning                                                             *)
(* ------------------------------------------------------------------ *)

let test_prune_name_roundtrip () =
  Alcotest.(check string) "paper's filter" "@50pS3L"
    (Ise.Prune.name Ise.Prune.at_50p_s3l);
  let p = Ise.Prune.of_name "@50pS3L" in
  Alcotest.(check (float 1e-9)) "coverage" 50.0 p.Ise.Prune.coverage_percent;
  Alcotest.(check int) "top blocks" 3 p.Ise.Prune.top_blocks;
  Alcotest.(check bool) "bad name" true
    (try
       ignore (Ise.Prune.of_name "junk");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Ise.Prune.of_name "@150pS3L");
       false
     with Invalid_argument _ -> true)

let test_prune_selects_hottest () =
  let m = compile float_chain_src in
  let out = Vm.Machine.run m ~entry:"main" ~args:[ Ir.Eval.VInt 5000L ] in
  let sel = Ise.Prune.apply Ise.Prune.at_50p_s3l m out.Vm.Machine.profile in
  Alcotest.(check bool) "at most 3 blocks" true
    (List.length sel.Ise.Prune.blocks <= 3);
  Alcotest.(check bool) "non-empty" true (sel.Ise.Prune.blocks <> []);
  (* the single hottest block must be in the selection: it is needed to
     reach 50 % coverage *)
  let hottest = fst (List.hd (Vm.Profile.block_costs out.Vm.Machine.profile m)) in
  Alcotest.(check bool) "hottest kept" true
    (List.mem hottest sel.Ise.Prune.blocks);
  Alcotest.(check bool) "fewer than total" true
    (List.length sel.Ise.Prune.blocks
    < List.length (Vm.Profile.block_costs out.Vm.Machine.profile m))

let test_prune_none_keeps_everything () =
  let m = compile float_chain_src in
  let out = Vm.Machine.run m ~entry:"main" ~args:[ Ir.Eval.VInt 100L ] in
  let sel = Ise.Prune.apply Ise.Prune.none m out.Vm.Machine.profile in
  Alcotest.(check int) "all profiled blocks"
    (List.length (Vm.Profile.block_costs out.Vm.Machine.profile m))
    (List.length sel.Ise.Prune.blocks)

(* ------------------------------------------------------------------ *)
(* Selection + speedup                                                 *)
(* ------------------------------------------------------------------ *)

let selection_of src n =
  let m = compile src in
  let out = Vm.Machine.run m ~entry:"main" ~args:[ Ir.Eval.VInt (Int64.of_int n) ] in
  let cands = Fixtures.maxmisos m in
  (m, out, Ise.Select.select db m out.Vm.Machine.profile cands)

let test_select_ranks_by_savings () =
  let _, out, sel = selection_of float_chain_src 5000 in
  Alcotest.(check bool) "selected something" true (sel <> []);
  let rec descending = function
    | a :: b :: rest ->
        a.Ise.Select.saved_cycles >= b.Ise.Select.saved_cycles
        && descending (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "ranked" true (descending sel);
  List.iter
    (fun s ->
      Alcotest.(check bool) "non-negative gain" true
        (s.Ise.Select.estimate.Pp.Estimator.sw_cycles
         >= s.Ise.Select.estimate.Pp.Estimator.hw_cycles);
      let c = s.Ise.Select.candidate in
      Alcotest.(check bool) "executed" true
        (Vm.Profile.count out.Vm.Machine.profile ~func:c.Ise.Candidate.func
           ~label:c.Ise.Candidate.block
        > 0L))
    sel

(* An 18-input float expression: MAXMISO finds one candidate wider than
   the CI operand limit, which selection must leave in software. *)
let wide_src =
  "double g; double v[18]; int main(int n) { int i; for (i = 0; i < 18; \
   i = i + 1) { v[i] = i * 0.5 + 1.0; } g = v[0] * v[1] + v[2] * v[3] + \
   v[4] * v[5] + v[6] * v[7] + v[8] * v[9] + v[10] * v[11] + v[12] * v[13] \
   + v[14] * v[15] + v[16] * v[17]; return g; }"

let test_select_input_limit () =
  let m = compile wide_src in
  let out = Vm.Machine.run m ~entry:"main" ~args:[ Ir.Eval.VInt 1L ] in
  let cands = Fixtures.maxmisos m in
  let wide (c : Ise.Candidate.t) =
    c.Ise.Candidate.num_inputs > Ise.Select.max_inputs
  in
  Alcotest.(check bool) "MAXMISO finds a candidate over the limit" true
    (List.exists wide cands);
  let sel = Ise.Select.select db m out.Vm.Machine.profile cands in
  List.iter
    (fun s ->
      Alcotest.(check bool) "within the operand limit" false
        (wide s.Ise.Select.candidate))
    sel

let test_speedup_accounting () =
  let _, out, sel = selection_of float_chain_src 5000 in
  let sp =
    Ise.Speedup.of_selection ~total_cycles:out.Vm.Machine.native_cycles sel
  in
  Alcotest.(check bool) "ratio >= 1" true (sp.Ise.Speedup.ratio >= 1.0);
  (* Savings are capped below the cycles actually spent. *)
  let total = out.Vm.Machine.native_cycles in
  let saved =
    List.fold_left (fun acc s -> acc +. s.Ise.Select.saved_cycles) 0.0 sel
  in
  Alcotest.(check (float 1e-9)) "ratio = total / (total - capped saved)"
    (total /. (total -. Float.min saved (0.999 *. total)))
    sp.Ise.Speedup.ratio;
  let none = Ise.Speedup.of_selection ~total_cycles:1000.0 [] in
  Alcotest.(check (float 1e-9)) "no selection, no speedup" 1.0
    none.Ise.Speedup.ratio

let test_covered_instrs () =
  let _, _, sel = selection_of float_chain_src 5000 in
  (* The selection is a partition: the covered instructions, counted
     by candidate size, are all distinct. *)
  let covered =
    List.concat_map
      (fun s ->
        let c = s.Ise.Select.candidate in
        List.map
          (fun n -> (c.Ise.Candidate.func, c.Ise.Candidate.block, n))
          c.Ise.Candidate.nodes)
      sel
  in
  Alcotest.(check int) "coverage counts instructions"
    (List.fold_left (fun a s -> a + s.Ise.Select.candidate.Ise.Candidate.size) 0 sel)
    (List.length (List.sort_uniq compare covered))

(* Property: over random small integer programs the MAXMISO partition
   invariants hold. *)
let gen_program =
  let open QCheck.Gen in
  let expr_leaf = oneof [ map string_of_int (int_range 0 20); return "n"; return "i" ] in
  let stmt =
    map2
      (fun op (a, b) -> Printf.sprintf "s = s %s (%s %s %s);" "+" a op b)
      (oneofl [ "+"; "*"; "^"; "&"; ">>" ])
      (pair expr_leaf expr_leaf)
  in
  map
    (fun stmts ->
      Printf.sprintf
        "int main(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { %s } return s; }"
        (String.concat " " stmts))
    (list_size (int_range 1 8) stmt)

let prop_maxmiso_partition_random =
  QCheck.Test.make ~name:"maxmiso partitions random programs" ~count:50
    (QCheck.make gen_program)
    (fun src ->
      check_maxmiso_properties (compile src);
      true)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ise"
    [
      ( "maxmiso",
        [
          Alcotest.test_case "partition (float chain)" `Quick
            test_maxmiso_properties_float;
          Alcotest.test_case "partition (sor workload)" `Quick
            test_maxmiso_properties_workload;
          Alcotest.test_case "finds float chains" `Quick
            test_maxmiso_finds_float_chain;
          Alcotest.test_case "excludes infeasible" `Quick
            test_maxmiso_excludes_infeasible;
          Alcotest.test_case "min size" `Quick test_maxmiso_min_size;
        ]
        @ qsuite [ prop_maxmiso_partition_random ] );
      ( "candidate",
        [
          Alcotest.test_case "signature stable" `Quick
            test_candidate_signature_stability;
          Alcotest.test_case "signature distinguishes" `Quick
            test_candidate_signature_distinguishes;
          Alcotest.test_case "signature shared" `Quick
            test_candidate_signature_shared_across_duplicates;
          Alcotest.test_case "make rejects" `Quick test_candidate_make_rejects;
        ] );
      ( "singlecut",
        [
          Alcotest.test_case "exact >= maxmiso" `Quick
            test_singlecut_beats_or_matches_maxmiso;
          Alcotest.test_case "budget" `Quick test_singlecut_respects_budget;
          Alcotest.test_case "big blocks skipped" `Quick
            test_singlecut_gives_up_on_big_blocks;
        ] );
      ( "prune",
        [
          Alcotest.test_case "name roundtrip" `Quick test_prune_name_roundtrip;
          Alcotest.test_case "selects hottest" `Quick test_prune_selects_hottest;
          Alcotest.test_case "no filter" `Quick test_prune_none_keeps_everything;
        ] );
      ( "select",
        [
          Alcotest.test_case "ranking" `Quick test_select_ranks_by_savings;
          Alcotest.test_case "input limit" `Quick test_select_input_limit;
          Alcotest.test_case "speedup" `Quick test_speedup_accounting;
          Alcotest.test_case "covered instrs" `Quick test_covered_instrs;
        ] );
    ]
