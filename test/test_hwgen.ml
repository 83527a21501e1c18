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

let occurrences hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub hay i m = needle then acc + 1 else acc)
  in
  go 0 0

let contains hay needle = occurrences hay needle > 0

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
    (occurrences v.Hw.Vhdl.source " : in "
    + occurrences v.Hw.Vhdl.source " : out ");
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
  Alcotest.(check bool) "virtex-4 FX100 target" true
    (List.for_all
       (fun (_, blob) -> contains blob "xc4vfx100-10ff1517")
       p.Hw.Project.netlists);
  let luts, ffs, _dsp = Hw.Project.area db p in
  Alcotest.(check bool) "area positive" true (luts > 0 && ffs >= 0);
  Alcotest.(check bool) "fits a Woolcano slot" true
    (luts <= Jitise_woolcano.Arch.(default.slot_lut_capacity))

let test_project_netlist_cache_counting () =
  let fresh_db = Pp.Database.create () in
  let dfg, c = candidate_of float_src in
  let p1 = Hw.Project.create fresh_db dfg c in
  (* duplicate components inside one candidate are deduplicated before
     fetching: one netlist per distinct component *)
  Alcotest.(check int) "fetches = distinct components"
    (List.length
       (List.sort_uniq Pp.Component.compare
          p1.Hw.Project.vhdl.Hw.Vhdl.components))
    (List.length p1.Hw.Project.netlists);
  let p2 = Hw.Project.create fresh_db dfg c in
  Alcotest.(check bool) "second build hits every netlist" true
    (List.for_all2
       (fun (_, a) (_, b) -> a == b)
       p1.Hw.Project.netlists p2.Hw.Project.netlists)

(* The data path's area is what PivPav estimated before any VHDL
   existed, so selection can check a candidate against a slot's
   capacity exactly. *)
let test_project_over_capacity () =
  let dfg, c = candidate_of float_src in
  let p = Hw.Project.create db dfg c in
  let luts, _, _ = Hw.Project.area db p in
  match Pp.Estimator.estimate db dfg c.Ise.Candidate.nodes with
  | Some e ->
      Alcotest.(check int) "area = PivPav estimate" e.Pp.Estimator.luts luts
  | None -> Alcotest.fail "candidate has no estimate"

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
