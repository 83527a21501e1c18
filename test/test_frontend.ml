(* Tests for Jitise_frontend: lexer, parser, typechecker, lowering,
   mem2reg, optimizer, unroller, and compile-and-run semantics. *)

module F = Jitise_frontend
module Ir = Jitise_ir
module Vm = Jitise_vm

(* Compile a source and run main(n); return the integer result. *)
let run_main ?(optimize = true) ?(unroll_factor = 4) ?(n = 0) src =
  let r =
    F.Compiler.compile ~optimize ~unroll_factor ~module_name:"t"
      [ ("t.c", src) ]
  in
  let out =
    Vm.Machine.run r.F.Compiler.modul ~entry:"main"
      ~args:[ Ir.Eval.VInt (Int64.of_int n) ]
  in
  match out.Vm.Machine.ret with
  | Some (Ir.Eval.VInt v) -> Int64.to_int v
  | _ -> Alcotest.fail "expected integer result"

let expect ?n src expected =
  Alcotest.(check int) "result" expected (run_main ?n src)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let kinds src = List.map (fun t -> t.F.Token.kind) (F.Lexer.tokenize src)

let test_lexer_basic () =
  Alcotest.(check int) "token count" 6 (List.length (kinds "int x = 42;"));
  match kinds "int x = 42;" with
  | [ F.Token.Kw_int; F.Token.Ident "x"; F.Token.Assign; F.Token.Int_lit 42L;
      F.Token.Semi; F.Token.Eof ] ->
      ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_numbers () =
  (match kinds "0x1F 3.5 1e3 2.5e-2" with
  | [ F.Token.Int_lit 31L; F.Token.Float_lit 3.5; F.Token.Float_lit 1000.0;
      F.Token.Float_lit 0.025; F.Token.Eof ] ->
      ()
  | _ -> Alcotest.fail "number lexing");
  match kinds "5000000000" with
  | [ F.Token.Int_lit 5000000000L; F.Token.Eof ] -> ()
  | _ -> Alcotest.fail "wide literal"

let test_lexer_operators () =
  match kinds "<< >> <= >= == != && || & |" with
  | [ F.Token.Shl; F.Token.Shr; F.Token.Le; F.Token.Ge; F.Token.Eq;
      F.Token.Ne; F.Token.Andand; F.Token.Oror; F.Token.Amp; F.Token.Pipe;
      F.Token.Eof ] ->
      ()
  | _ -> Alcotest.fail "operator lexing"

let test_lexer_comments () =
  Alcotest.(check int) "comments skipped" 2
    (List.length (kinds "// line\n/* block\nmore */ x"))

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (try
       ignore (F.Lexer.tokenize "int $;");
       false
     with F.Lexer.Error _ -> true);
  Alcotest.(check bool) "unterminated comment" true
    (try
       ignore (F.Lexer.tokenize "/* never closed");
       false
     with F.Lexer.Error _ -> true)

let test_lexer_loc () =
  Alcotest.(check int) "loc counts code lines" 2
    (F.Lexer.count_loc "int x;\n// comment only\n\ny = 2;\n");
  Alcotest.(check int) "block comments excluded" 1
    (F.Lexer.count_loc "/* a\nb\nc */ int x;\n")

(* ------------------------------------------------------------------ *)
(* Parser / typechecker errors                                         *)
(* ------------------------------------------------------------------ *)

let compile_error src =
  try
    ignore (F.Compiler.compile_string ~name:"t" src);
    None
  with F.Compiler.Error m -> Some m

let test_parser_errors () =
  Alcotest.(check bool) "missing semicolon" true
    (compile_error "int main(int n) { return 1 }" <> None);
  Alcotest.(check bool) "bad dimension count" true
    (compile_error "int a[2][2][2]; int main(int n) { return 0; }" <> None);
  Alcotest.(check bool) "void variable" true
    (compile_error "void x; int main(int n) { return 0; }" <> None)

let test_type_errors () =
  Alcotest.(check bool) "unknown variable" true
    (compile_error "int main(int n) { return zz; }" <> None);
  Alcotest.(check bool) "unknown function" true
    (compile_error "int main(int n) { return f(n); }" <> None);
  Alcotest.(check bool) "arity" true
    (compile_error
       "int f(int a, int b) { return a; } int main(int n) { return f(1); }"
    <> None);
  Alcotest.(check bool) "float modulo" true
    (compile_error "int main(int n) { double d = 1.5; return d % 2; }" <> None);
  Alcotest.(check bool) "break outside loop" true
    (compile_error "int main(int n) { break; return 0; }" <> None);
  Alcotest.(check bool) "return value from void" true
    (compile_error "void f() { return 3; } int main(int n) { return 0; }"
    <> None);
  Alcotest.(check bool) "duplicate function" true
    (compile_error
       "int f() { return 0; } int f() { return 1; } int main(int n) { return 0; }"
    <> None)

(* ------------------------------------------------------------------ *)
(* Compile-and-run semantics                                           *)
(* ------------------------------------------------------------------ *)

let test_arithmetic () =
  expect "int main(int n) { return 2 + 3 * 4; }" 14;
  expect "int main(int n) { return (2 + 3) * 4; }" 20;
  expect "int main(int n) { return 17 / 5; }" 3;
  expect "int main(int n) { return 17 % 5; }" 2;
  expect "int main(int n) { return -7 / 2; }" (-3);
  expect "int main(int n) { return 1 << 10; }" 1024;
  expect "int main(int n) { return -16 >> 2; }" (-4);
  expect "int main(int n) { return (12 & 10) | (1 ^ 3); }" 10;
  expect "int main(int n) { return ~5; }" (-6)

let test_comparisons_and_logic () =
  expect "int main(int n) { return (3 < 5) + (5 <= 5) + (6 > 7) + (2 >= 2); }" 3;
  expect "int main(int n) { return (1 == 1) + (1 != 1); }" 1;
  expect "int main(int n) { return !0 + !7; }" 1;
  expect ~n:5
    "int main(int n) { if (n > 0 && 100 / n > 10) { return 1; } return 0; }" 1;
  (* short circuit: the division by zero must not be evaluated *)
  expect ~n:0
    "int main(int n) { if (n != 0 && 100 / n > 10) { return 1; } return 0; }" 0;
  expect ~n:0
    "int main(int n) { if (n == 0 || 100 / n > 10) { return 1; } return 0; }" 1;
  expect ~n:1
    "int main(int n) { int v = (n == 1) && (n < 5); return v * 10; }" 10

let test_control_flow () =
  expect ~n:10
    "int main(int n) { int s = 0; int i; for (i = 1; i <= n; i = i + 1) { s = s + i; } return s; }"
    55;
  expect ~n:10
    "int main(int n) { int s = 0; int i = 0; while (i < n) { i = i + 1; if (i == 5) { continue; } s = s + i; } return s; }"
    50;
  expect ~n:100
    "int main(int n) { int i; int s = 0; for (i = 0; i < n; i = i + 1) { if (i == 7) { break; } s = s + 1; } return s; }"
    7;
  expect ~n:3
    "int main(int n) { if (n == 1) { return 10; } else { if (n == 2) { return 20; } else { return 30; } } }"
    30

let test_functions_and_recursion () =
  expect ~n:10
    "int fib(int k) { if (k < 2) { return k; } return fib(k-1) + fib(k-2); } int main(int n) { return fib(n); }"
    55;
  expect ~n:48
    "int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; } int main(int n) { return gcd(n, 36); }"
    12;
  expect "void twice() { } int main(int n) { twice(); return 4; }" 4

let test_globals_and_arrays () =
  expect "int g = 7; int main(int n) { g = g + 1; return g; }" 8;
  expect
    "int a[10]; int main(int n) { int i; for (i = 0; i < 10; i = i + 1) { a[i] = i * i; } return a[7]; }"
    49;
  expect
    "int m[3][4]; int main(int n) { m[2][3] = 42; m[0][0] = 1; return m[2][3] + m[0][0]; }"
    43;
  expect "int t[4] = {10, 20, 30, 40}; int main(int n) { return t[1] + t[3]; }"
    60;
  expect
    "double d[2] = {1.5, 2.25}; int main(int n) { return (d[0] + d[1]) * 4.0; }"
    15

let test_floats_and_casts () =
  expect "int main(int n) { double d = 7.9; return d; }" 7;
  expect "int main(int n) { float f = 2.5; double d = f; return d * 2.0; }" 5;
  expect "int main(int n) { int i = 3; double d = i / 2.0; return d * 10.0; }" 15;
  expect
    "long wide() { return 5000000000; } int main(int n) { return wide() / 2000000000; }"
    2;
  expect "int main(int n) { long a = 1; a = a << 40; return a >> 35; }" 32

let test_intrinsics () =
  expect "int main(int n) { return sqrt(144.0); }" 12;
  expect "int main(int n) { return fabs(-3.5) * 2.0; }" 7;
  expect "int main(int n) { return abs(-9) + min(2, 3) + max(2, 3); }" 14;
  expect "int main(int n) { return floor(3.9); }" 3;
  expect "int main(int n) { return pow(2.0, 10.0); }" 1024;
  expect "int main(int n) { return exp(log(5.0)) + 0.5; }" 5

let test_param_assignment () =
  expect ~n:99 "int main(int n) { n = n + 1; return n; }" 100

let test_shadowing_scopes () =
  expect ~n:5
    "int main(int n) { int x = 1; if (n > 0) { int x = 2; n = n + x; } return n * 10 + x; }"
    71

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let corpus =
  [
    ( "sum of squares",
      "int main(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { s = s + i * i; } return s; }",
      20 );
    ( "nested loops",
      "int a[64]; int main(int n) { int i; int j; int s = 0; for (i = 0; i < 8; i = i + 1) { for (j = 0; j < 8; j = j + 1) { a[i * 8 + j] = i * j; } } for (i = 0; i < 64; i = i + 1) { s = s + a[i]; } return s; }",
      5 );
    ( "float reduce",
      "double v[32]; int main(int n) { int i; double s = 0.0; for (i = 0; i < 32; i = i + 1) { v[i] = i * 0.5; } for (i = 0; i < 32; i = i + 1) { s = s + v[i] * v[i]; } return s; }",
      3 );
    ( "branchy",
      "int main(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { if ((i & 1) == 0) { s = s + i; } else { s = s - 1; } } return s; }",
      33 );
    ( "recursion+loop",
      "int f(int k) { int s = 0; int i; for (i = 0; i < k; i = i + 1) { s = s + i; } return s; } int main(int n) { return f(n) + f(n / 2); }",
      19 );
  ]

let test_optimize_preserves_semantics () =
  List.iter
    (fun (name, src, n) ->
      let a = run_main ~optimize:false ~n src in
      let b = run_main ~optimize:true ~n src in
      Alcotest.(check int) (name ^ ": -O0 = -O3") a b)
    corpus

let test_unroll_preserves_semantics () =
  List.iter
    (fun (name, src, n) ->
      let a = run_main ~unroll_factor:1 ~n src in
      List.iter
        (fun factor ->
          let b = run_main ~unroll_factor:factor ~n src in
          Alcotest.(check int) (Printf.sprintf "%s: unroll %d" name factor) a b)
        [ 2; 3; 4; 8 ])
    corpus

let test_unroll_grows_blocks () =
  let src =
    "int a[256]; int main(int n) { int i; for (i = 0; i < 256; i = i + 1) { a[i] = i * 3 + 1; } return a[200]; }"
  in
  let compile unroll_factor =
    F.Compiler.compile ~unroll_factor ~module_name:"t" [ ("t.c", src) ]
  in
  let r1 = compile 1 and r4 = compile 4 in
  Alcotest.(check bool) "unrolled has more instrs" true
    (r4.F.Compiler.stats.F.Compiler.instrs
    > r1.F.Compiler.stats.F.Compiler.instrs)

let test_unroll_skips_loop_carried_bounds () =
  (* the loop bound changes inside the body: unrolling must not fire or
     must stay correct *)
  let src =
    "int main(int n) { int i; int s = 0; int lim = 10; for (i = 0; i < lim; i = i + 1) { if (i == 5) { lim = 7; } s = s + 1; } return s; }"
  in
  Alcotest.(check int) "dynamic bound respected"
    (run_main ~unroll_factor:1 src)
    (run_main ~unroll_factor:4 src)

let test_mem2reg_removes_scalar_traffic () =
  let src =
    "int main(int n) { int x = 1; int y = 2; int i; for (i = 0; i < n; i = i + 1) { x = x + y; y = y + 1; } return x; }"
  in
  let r = F.Compiler.compile_string ~name:"t" src in
  let main = Option.get (Ir.Irmod.find_func r.F.Compiler.modul "main") in
  let has_alloca = ref false in
  Ir.Func.iter_instrs
    (fun _ (i : Ir.Instr.t) ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Alloca _ -> has_alloca := true
      | _ -> ())
    main;
  Alcotest.(check bool) "no allocas" false !has_alloca;
  Alcotest.(check bool) "phis present" true
    (Array.exists (fun b -> Ir.Block.phis b <> []) main.Ir.Func.blocks)

let test_constant_folding () =
  let src = "int main(int n) { return 2 * 3 + 4 * 5 - 1; }" in
  let r = F.Compiler.compile_string ~name:"t" src in
  let main = Option.get (Ir.Irmod.find_func r.F.Compiler.modul "main") in
  Alcotest.(check int) "all folded away" 0 (Ir.Func.num_instrs main);
  Alcotest.(check int) "result" 25 (run_main src)

let test_dead_branch_elimination () =
  let src = "int main(int n) { if (1 < 0) { return 111; } return 7; }" in
  let r = F.Compiler.compile_string ~name:"t" src in
  let main = Option.get (Ir.Irmod.find_func r.F.Compiler.modul "main") in
  Alcotest.(check int) "dead branch removed" 1 (Ir.Func.num_blocks main);
  Alcotest.(check int) "result" 7 (run_main src)

let test_cse () =
  let src =
    "int g; int main(int n) { int a = n * 17 + 3; int b = n * 17 + 3; g = a; return a + b; }"
  in
  let r = F.Compiler.compile_string ~name:"t" src in
  let main = Option.get (Ir.Irmod.find_func r.F.Compiler.modul "main") in
  let muls = ref 0 in
  Ir.Func.iter_instrs
    (fun _ (i : Ir.Instr.t) ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Binop (Ir.Instr.Mul, _, _) -> incr muls
      | _ -> ())
    main;
  Alcotest.(check int) "one multiply after CSE" 1 !muls;
  Alcotest.(check int) "result" 74 (run_main ~n:2 src)

let test_algebraic_simplify () =
  (* x*1 + 0 collapses; x*8 becomes a shift *)
  let src = "int g; int main(int n) { g = n * 1 + 0; return n * 8; }" in
  let r = F.Compiler.compile_string ~name:"t" src in
  let main = Option.get (Ir.Irmod.find_func r.F.Compiler.modul "main") in
  let muls = ref 0 and shls = ref 0 in
  Ir.Func.iter_instrs
    (fun _ (i : Ir.Instr.t) ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Binop (Ir.Instr.Mul, _, _) -> incr muls
      | Ir.Instr.Binop (Ir.Instr.Shl, _, _) -> incr shls
      | _ -> ())
    main;
  Alcotest.(check int) "no multiplies left" 0 !muls;
  Alcotest.(check int) "strength-reduced shift" 1 !shls;
  Alcotest.(check int) "result" 24 (run_main ~n:3 src);
  (* identities on self *)
  Alcotest.(check int) "x-x and x^x fold" 5
    (run_main ~n:5 "int main(int n) { return (n - n) + (n ^ n) + (n & n); }")

(* Regression: a multiply by a non-power-of-two constant must survive
   strength reduction as a multiply — the rewrite used to test
   [log2_opt] in the guard and [Option.get] a second call in the body,
   a split that a refactor could desynchronize into a crash. *)
let test_strength_reduction_non_power_of_two () =
  let src = "int main(int n) { return n * 6; }" in
  let r = F.Compiler.compile_string ~name:"t" src in
  let main = Option.get (Ir.Irmod.find_func r.F.Compiler.modul "main") in
  let muls = ref 0 and shls = ref 0 in
  Ir.Func.iter_instrs
    (fun _ (i : Ir.Instr.t) ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Binop (Ir.Instr.Mul, _, _) -> incr muls
      | Ir.Instr.Binop (Ir.Instr.Shl, _, _) -> incr shls
      | _ -> ())
    main;
  Alcotest.(check int) "multiply by 6 stays a multiply" 1 !muls;
  Alcotest.(check int) "no bogus shift" 0 !shls;
  Alcotest.(check int) "result" 42 (run_main ~n:7 src)

let test_load_forwarding () =
  (* three reads of a[i] in one statement keep a single load *)
  let src =
    "double a[8]; double g; int main(int n) { a[1] = 2.5; g = a[1] * a[1] + a[1]; return g; }"
  in
  let r = F.Compiler.compile_string ~name:"t" src in
  let main = Option.get (Ir.Irmod.find_func r.F.Compiler.modul "main") in
  let loads = ref 0 in
  Ir.Func.iter_instrs
    (fun _ (i : Ir.Instr.t) ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Load _ -> incr loads
      | _ -> ())
    main;
  (* the store to a[1] is forwarded, so no load of a[1] remains at all *)
  Alcotest.(check int) "loads forwarded" 0 !loads;
  Alcotest.(check int) "result" 8 (run_main src)

let test_load_forwarding_invalidation () =
  (* a store to another (potentially aliasing) address must invalidate *)
  let src =
    "int a[8]; int main(int n) { a[n] = 1; int x = a[0]; a[n + 1] = 9; return x + a[0]; }"
  in
  (* with n = -1... out of bounds; use n=0: a[0]=1; x=1; a[1]=9; a[0] still 1 -> 2.
     with n=1: a[1]=1; x=a[0]=0; a[2]=9; 0+0=0. *)
  Alcotest.(check int) "n=0" 2 (run_main ~n:0 src);
  Alcotest.(check int) "n=1" 0 (run_main ~n:1 src)

let test_block_merging () =
  (* a chain of straight-line statements across if-joins merges into few
     blocks *)
  let src =
    "int main(int n) { int a = n + 1; int b = a * 2; int c = b - 3; return c; }"
  in
  let r = F.Compiler.compile_string ~name:"t" src in
  let main = Option.get (Ir.Irmod.find_func r.F.Compiler.modul "main") in
  Alcotest.(check int) "single block" 1 (Ir.Func.num_blocks main)

let test_verifier_accepts_all_output () =
  List.iter
    (fun (name, src, _) ->
      let r = F.Compiler.compile_string ~name:"t" src in
      Alcotest.(check bool) (name ^ " verifies") true
        (Ir.Verifier.check_module r.F.Compiler.modul = []))
    corpus

let test_compiler_stats () =
  let r =
    F.Compiler.compile ~module_name:"two"
      [
        ("a.c", "int f() { return 1; }");
        ("b.c", "int main(int n) { return f(); }");
      ]
  in
  Alcotest.(check int) "files" 2 r.F.Compiler.stats.F.Compiler.files;
  Alcotest.(check int) "loc" 2 r.F.Compiler.stats.F.Compiler.loc;
  Alcotest.(check bool) "blocks > 0" true
    (r.F.Compiler.stats.F.Compiler.blocks > 0)

(* Randomized differential testing: random integer expressions compiled
   at -O0 and -O3 (with unrolling) must agree. *)
let gen_expr =
  let open QCheck.Gen in
  sized_size (int_range 1 6) (fun size ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map string_of_int (int_range 0 50); return "n"; return "i";
              ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) sub sub;
                map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) sub sub;
                map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) sub sub;
                map2 (fun a b -> Printf.sprintf "(%s ^ %s)" a b) sub sub;
                map2 (fun a b -> Printf.sprintf "(%s & %s)" a b) sub sub;
                map (fun a -> Printf.sprintf "(0 - %s)" a) sub;
              ])
        size)

let prop_irmod_roundtrip_random =
  QCheck.Test.make ~name:"random program: irmod codec round trip" ~count:40
    (QCheck.make gen_expr)
    (fun expr ->
      let src =
        Printf.sprintf
          "int main(int n) { int s = 0; int i; for (i = 0; i < 5; i = i + 1) { s = s + %s; } return s; }"
          expr
      in
      let m = (F.Compiler.compile_string ~name:"t" src).F.Compiler.modul in
      let codec = Jitise_core.Codecs.irmod in
      Jitise_util.Binio.decode_opt codec (Jitise_util.Binio.encode codec m) = Some m)

let prop_opt_equivalence =
  QCheck.Test.make ~name:"random expr: -O0 = -O3 (incl. unrolling)" ~count:60
    (QCheck.make gen_expr)
    (fun expr ->
      let src =
        Printf.sprintf
          "int main(int n) { int s = 0; int i; for (i = 0; i < 9; i = i + 1) { s = s + %s; } return s; }"
          expr
      in
      run_main ~optimize:false ~n:3 src = run_main ~optimize:true ~n:3 src)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "loc counting" `Quick test_lexer_loc;
        ] );
      ( "errors",
        [
          Alcotest.test_case "parser" `Quick test_parser_errors;
          Alcotest.test_case "types" `Quick test_type_errors;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "comparisons and logic" `Quick
            test_comparisons_and_logic;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "functions" `Quick test_functions_and_recursion;
          Alcotest.test_case "globals and arrays" `Quick test_globals_and_arrays;
          Alcotest.test_case "floats and casts" `Quick test_floats_and_casts;
          Alcotest.test_case "intrinsics" `Quick test_intrinsics;
          Alcotest.test_case "param assignment" `Quick test_param_assignment;
          Alcotest.test_case "shadowing" `Quick test_shadowing_scopes;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "semantics preserved" `Quick
            test_optimize_preserves_semantics;
          Alcotest.test_case "unroll preserves semantics" `Quick
            test_unroll_preserves_semantics;
          Alcotest.test_case "unroll grows blocks" `Quick test_unroll_grows_blocks;
          Alcotest.test_case "unroll dynamic bound" `Quick
            test_unroll_skips_loop_carried_bounds;
          Alcotest.test_case "mem2reg" `Quick test_mem2reg_removes_scalar_traffic;
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "dead branches" `Quick test_dead_branch_elimination;
          Alcotest.test_case "cse" `Quick test_cse;
          Alcotest.test_case "algebraic simplify" `Quick test_algebraic_simplify;
          Alcotest.test_case "non-power-of-two multiplier" `Quick
            test_strength_reduction_non_power_of_two;
          Alcotest.test_case "load forwarding" `Quick test_load_forwarding;
          Alcotest.test_case "load invalidation" `Quick
            test_load_forwarding_invalidation;
          Alcotest.test_case "block merging" `Quick test_block_merging;
          Alcotest.test_case "verifier clean" `Quick
            test_verifier_accepts_all_output;
          Alcotest.test_case "stats" `Quick test_compiler_stats;
        ]
        @ qsuite [ prop_opt_equivalence; prop_irmod_roundtrip_random ] );
    ]
