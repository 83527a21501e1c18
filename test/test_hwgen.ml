(* Tests for Jitise_hwgen: VHDL generation and CAD project assembly. *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Hw = Jitise_hwgen

let db = Pp.Database.create ()

(* First MAXMISO candidate of a float-heavy kernel, with its DFG. *)
let candidate_of src =
  let m = (F.Compiler.compile_string ~name:"t" src).F.Compiler.modul in
  let cands = Fixtures.maxmisos m in
  match cands with
  | c :: _ ->
      let f = Option.get (Ir.Irmod.find_func m c.Ise.Candidate.func) in
      let dfg = Ir.Dfg.of_block f (Ir.Func.block f c.Ise.Candidate.block) in
      (dfg, c)
  | [] -> Alcotest.fail "no candidate found"

let float_src =
  "double g; int main(int n) { double x = n * 1.0; g = (x * 2.5 + 1.5) * (x - 0.5) + x * 0.125; return 0; }"

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_vhdl_structure () =
  let dfg, c = candidate_of float_src in
  let v = Hw.Vhdl.generate dfg c in
  Alcotest.(check bool) "entity named by signature" true
    (v.Hw.Vhdl.entity_name = c.Ise.Candidate.signature);
  Alcotest.(check bool) "library clause" true
    (contains v.Hw.Vhdl.source "library ieee;");
  Alcotest.(check bool) "entity declared" true
    (contains v.Hw.Vhdl.source ("entity " ^ v.Hw.Vhdl.entity_name));
  Alcotest.(check bool) "architecture" true
    (contains v.Hw.Vhdl.source "architecture structural");
  Alcotest.(check bool) "output port" true (contains v.Hw.Vhdl.source "q : out");
  Alcotest.(check int) "one component per instruction"
    c.Ise.Candidate.size
    (List.length v.Hw.Vhdl.components);
  Alcotest.(check int) "ports = inputs + output"
    (c.Ise.Candidate.num_inputs + 1)
    v.Hw.Vhdl.num_ports;
  Alcotest.(check bool) "line count plausible" true
    (v.Hw.Vhdl.lines > 10)

let test_vhdl_syntax_check_clean () =
  let dfg, c = candidate_of float_src in
  let v = Hw.Vhdl.generate dfg c in
  Alcotest.(check (list string)) "no syntax problems" [] (Hw.Vhdl.check_syntax v)

let test_vhdl_syntax_check_detects () =
  let dfg, c = candidate_of float_src in
  let v = Hw.Vhdl.generate dfg c in
  let broken = { v with Hw.Vhdl.source = "garbage" } in
  Alcotest.(check bool) "problems reported" true
    (Hw.Vhdl.check_syntax broken <> [])

let test_vhdl_deterministic () =
  let dfg, c = candidate_of float_src in
  let a = Hw.Vhdl.generate dfg c and b = Hw.Vhdl.generate dfg c in
  Alcotest.(check string) "same source" a.Hw.Vhdl.source b.Hw.Vhdl.source

let test_project_creation () =
  let dfg, c = candidate_of float_src in
  let p = Hw.Project.create db dfg c in
  Alcotest.(check string) "named by signature" c.Ise.Candidate.signature
    p.Hw.Project.name;
  Alcotest.(check bool) "netlists fetched" true (p.Hw.Project.netlists <> []);
  Alcotest.(check string) "virtex-4 FX100 target" "xc4vfx100-10ff1517"
    p.Hw.Project.device.Hw.Project.part;
  let luts, ffs, _dsp = Hw.Project.area db p in
  Alcotest.(check bool) "area positive" true (luts > 0 && ffs >= 0);
  Alcotest.(check bool) "fits the device" true
    (luts <= p.Hw.Project.device.Hw.Project.luts_available)

let test_project_netlist_cache_counting () =
  let fresh_db = Pp.Database.create () in
  let dfg, c = candidate_of float_src in
  let p1 = Hw.Project.create fresh_db dfg c in
  (* duplicate components inside one candidate are deduplicated before
     fetching, so hits + misses = distinct components *)
  Alcotest.(check int) "fetches = distinct components"
    (List.length p1.Hw.Project.netlists)
    (p1.Hw.Project.netlist_cache_hits + p1.Hw.Project.netlist_cache_misses);
  let p2 = Hw.Project.create fresh_db dfg c in
  Alcotest.(check int) "second build hits every netlist"
    (List.length p2.Hw.Project.netlists)
    p2.Hw.Project.netlist_cache_hits

let test_project_over_capacity () =
  let dfg, c = candidate_of float_src in
  let tiny =
    { Hw.Project.virtex4_fx100 with Hw.Project.luts_available = 1 }
  in
  let p = Hw.Project.create ~device:tiny db dfg c in
  let luts, _, _ = Hw.Project.area db p in
  Alcotest.(check bool) "does not fit a 1-LUT device" true
    (luts > p.Hw.Project.device.Hw.Project.luts_available)

let () =
  Alcotest.run "hwgen"
    [
      ( "vhdl",
        [
          Alcotest.test_case "structure" `Quick test_vhdl_structure;
          Alcotest.test_case "syntax clean" `Quick test_vhdl_syntax_check_clean;
          Alcotest.test_case "syntax detects damage" `Quick
            test_vhdl_syntax_check_detects;
          Alcotest.test_case "deterministic" `Quick test_vhdl_deterministic;
        ] );
      ( "project",
        [
          Alcotest.test_case "creation" `Quick test_project_creation;
          Alcotest.test_case "netlist cache" `Quick
            test_project_netlist_cache_counting;
          Alcotest.test_case "capacity" `Quick test_project_over_capacity;
        ] );
    ]
