(* Tests for Jitise_pivpav: components, metrics database, estimator. *)

module Ir = Jitise_ir
module Pp = Jitise_pivpav
module F = Jitise_frontend

let db = Pp.Database.create ()

(* ------------------------------------------------------------------ *)
(* Component                                                           *)
(* ------------------------------------------------------------------ *)

let test_component_naming () =
  Alcotest.(check string) "name" "fmul_w64"
    (Pp.Component.name { Pp.Component.opcode = "fmul"; width = 64 })

let test_component_of_instr () =
  let add =
    { Ir.Instr.id = 0; ty = Ir.Ty.I32;
      kind = Ir.Instr.Binop (Ir.Instr.Add, Ir.Builder.ci32 1, Ir.Builder.ci32 2) }
  in
  (match Pp.Component.of_instr add with
  | Some { Pp.Component.opcode = "add"; width = 32 } -> ()
  | _ -> Alcotest.fail "add_w32 expected");
  let load =
    { Ir.Instr.id = 0; ty = Ir.Ty.I32; kind = Ir.Instr.Load (Ir.Builder.reg 1) }
  in
  Alcotest.(check bool) "load unmappable" true (Pp.Component.of_instr load = None);
  (* comparisons are sized by the operand, never by the i1 result *)
  let cmp =
    { Ir.Instr.id = 0; ty = Ir.Ty.I1;
      kind = Ir.Instr.Icmp (Ir.Instr.Islt, Ir.Builder.reg 1, Ir.Builder.ci64 2L) }
  in
  match Pp.Component.of_instr cmp with
  | Some { Pp.Component.width = 64; _ } -> ()
  | _ -> Alcotest.fail "icmp width from operand"

(* ------------------------------------------------------------------ *)
(* Database                                                            *)
(* ------------------------------------------------------------------ *)

let test_database_size () =
  Alcotest.(check bool) "full library" true
    (Hashtbl.length db.Pp.Database.entries > 100)

let test_database_lookup () =
  Alcotest.(check bool) "exact hit" true
    (Pp.Database.lookup db { Pp.Component.opcode = "add"; width = 32 } <> None);
  (* odd widths snap up *)
  (match Pp.Database.lookup db { Pp.Component.opcode = "add"; width = 20 } with
  | Some e ->
      Alcotest.(check bool) "snapped to 32" true
        (match
           Pp.Database.lookup db { Pp.Component.opcode = "add"; width = 32 }
         with
        | Some e32 -> e == e32
        | None -> false)
  | None -> Alcotest.fail "snap failed");
  Alcotest.(check bool) "unknown opcode" true
    (Pp.Database.lookup db { Pp.Component.opcode = "frobnicate"; width = 32 } = None)

let test_database_latency_sanity () =
  let lat op w =
    match Pp.Database.lookup db { Pp.Component.opcode = op; width = w } with
    | Some e -> e.Pp.Database.metrics.Pp.Metrics.latency_ns
    | None -> Alcotest.failf "missing %s_w%d" op w
  in
  Alcotest.(check bool) "and < add" true (lat "and" 32 < lat "add" 32);
  Alcotest.(check bool) "add < mul" true (lat "add" 32 < lat "mul" 32);
  Alcotest.(check bool) "mul < div" true (lat "mul" 32 < lat "sdiv" 32);
  Alcotest.(check bool) "fadd < fdiv" true (lat "fadd" 64 < lat "fdiv" 64);
  Alcotest.(check bool) "wider adders are slower" true (lat "add" 8 < lat "add" 64)

let test_database_area_sanity () =
  let luts op w =
    match Pp.Database.lookup db { Pp.Component.opcode = op; width = w } with
    | Some e -> e.Pp.Database.metrics.Pp.Metrics.luts
    | None -> Alcotest.failf "missing %s" op
  in
  Alcotest.(check bool) "float adder is big" true (luts "fadd" 64 > luts "add" 64);
  Alcotest.(check bool) "fdiv is the biggest" true (luts "fdiv" 64 > luts "fadd" 64);
  (match Pp.Database.lookup db { Pp.Component.opcode = "mul"; width = 16 } with
  | Some e -> Alcotest.(check bool) "small mul on DSP" true (e.Pp.Database.metrics.Pp.Metrics.dsp48 > 0)
  | None -> Alcotest.fail "mul missing")

let test_database_netlist_cache () =
  let db = Pp.Database.create () in
  let c = { Pp.Component.opcode = "fadd"; width = 64 } in
  let first = Pp.Database.fetch_netlist db c in
  Alcotest.(check bool) "blob produced" true
    (match first with Some s -> String.length s > 50 | None -> false);
  let second = Pp.Database.fetch_netlist db c in
  Alcotest.(check bool) "second fetch hits the cached blob" true
    (match (first, second) with Some a, Some b -> a == b | _ -> false)

let test_database_metrics_deterministic () =
  let a = Pp.Database.create () and b = Pp.Database.create () in
  let c = { Pp.Component.opcode = "mul"; width = 32 } in
  match (Pp.Database.lookup a c, Pp.Database.lookup b c) with
  | Some ea, Some eb ->
      Alcotest.(check bool) "same metrics" true
        (ea.Pp.Database.metrics = eb.Pp.Database.metrics)
  | _ -> Alcotest.fail "lookup failed"

(* ------------------------------------------------------------------ *)
(* Estimator                                                           *)
(* ------------------------------------------------------------------ *)

let dfg_of src =
  let m = (F.Compiler.compile_string ~name:"t" src).F.Compiler.modul in
  let f = Option.get (Ir.Irmod.find_func m "main") in
  Ir.Dfg.of_block f (Ir.Func.block f 0)

let feasible_nodes dfg =
  Array.to_list dfg.Ir.Dfg.nodes
  |> List.filter Ir.Dfg.feasible
  |> List.map (fun n -> n.Ir.Dfg.index)

let test_estimator_float_chain_profitable () =
  let dfg = dfg_of "double g; int main(int n) { double x = n * 1.0; g = (x * 2.5 + 1.5) * (x - 0.5); return 0; }" in
  let nodes = feasible_nodes dfg in
  match Pp.Estimator.estimate db dfg nodes with
  | Some e ->
      Alcotest.(check bool) "sw > hw for float chains" true
        (e.Pp.Estimator.sw_cycles > e.Pp.Estimator.hw_cycles);
      Alcotest.(check bool) "speedup > 2" true (e.Pp.Estimator.speedup > 2.0);
      Alcotest.(check bool) "positive latency" true
        (e.Pp.Estimator.hw_cycles > Pp.Estimator.ci_issue_overhead_cycles);
      Alcotest.(check bool) "area accounted" true (e.Pp.Estimator.luts > 0)
  | None -> Alcotest.fail "estimate failed"

let test_estimator_single_int_op_unprofitable () =
  let dfg = dfg_of "int main(int n) { return n + 1; }" in
  match Pp.Estimator.estimate db dfg (feasible_nodes dfg) with
  | Some e ->
      Alcotest.(check bool) "1-cycle ops do not win" true
        (e.Pp.Estimator.hw_cycles >= e.Pp.Estimator.sw_cycles)
  | None -> Alcotest.fail "estimate failed"

let test_estimator_rejects_infeasible () =
  let dfg = dfg_of "int g; int main(int n) { g = n; return g + 1; }" in
  (* include every node, including the store/gaddr/load *)
  let all = List.init (Ir.Dfg.node_count dfg) Fun.id in
  Alcotest.(check bool) "infeasible nodes estimate to None" true
    (Pp.Estimator.estimate db dfg all = None)

let test_estimator_transfer_cycles () =
  Alcotest.(check int) "2 inputs free" 0 (Pp.Estimator.transfer_cycles ~num_inputs:2);
  Alcotest.(check int) "3 inputs: 1 extra cycle" 1
    (Pp.Estimator.transfer_cycles ~num_inputs:3);
  Alcotest.(check int) "4 inputs: 1 extra cycle" 1
    (Pp.Estimator.transfer_cycles ~num_inputs:4);
  Alcotest.(check int) "8 inputs: 3 extra cycles" 3
    (Pp.Estimator.transfer_cycles ~num_inputs:8)

let test_estimator_critical_path_vs_sum () =
  (* A wide expression tree's critical path is far below the latency sum. *)
  let dfg =
    dfg_of
      "double g; int main(int n) { double a = n * 1.0; g = (a + 1.0) * (a + 2.0) + (a + 3.0) * (a + 4.0); return 0; }"
  in
  let nodes = feasible_nodes dfg in
  match Pp.Estimator.estimate db dfg nodes with
  | Some e ->
      let sum_latency =
        List.fold_left
          (fun acc n ->
            match Pp.Component.of_instr dfg.Ir.Dfg.nodes.(n).Ir.Dfg.instr with
            | Some c -> (
                match Pp.Database.lookup db c with
                | Some entry -> acc +. entry.Pp.Database.metrics.Pp.Metrics.latency_ns
                | None -> acc)
            | None -> acc)
          0.0 nodes
      in
      (* hw_cycles also pays the issue and transfer cycles, so this
         bounds the critical path from above. *)
      Alcotest.(check bool) "parallelism exploited" true
        (float_of_int e.Pp.Estimator.hw_cycles *. Ir.Cost.cycle_time *. 1e9
        < 0.75 *. sum_latency)
  | None -> Alcotest.fail "estimate failed"

let () =
  Alcotest.run "pivpav"
    [
      ( "component",
        [
          Alcotest.test_case "naming" `Quick test_component_naming;
          Alcotest.test_case "of_instr" `Quick test_component_of_instr;
        ] );
      ( "database",
        [
          Alcotest.test_case "size" `Quick test_database_size;
          Alcotest.test_case "lookup" `Quick test_database_lookup;
          Alcotest.test_case "latency sanity" `Quick test_database_latency_sanity;
          Alcotest.test_case "area sanity" `Quick test_database_area_sanity;
          Alcotest.test_case "netlist cache" `Quick test_database_netlist_cache;
          Alcotest.test_case "deterministic" `Quick test_database_metrics_deterministic;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "float chain profitable" `Quick
            test_estimator_float_chain_profitable;
          Alcotest.test_case "single int op unprofitable" `Quick
            test_estimator_single_int_op_unprofitable;
          Alcotest.test_case "rejects infeasible" `Quick
            test_estimator_rejects_infeasible;
          Alcotest.test_case "transfer cycles" `Quick test_estimator_transfer_cycles;
          Alcotest.test_case "critical path" `Quick test_estimator_critical_path_vs_sum;
        ] );
    ]
