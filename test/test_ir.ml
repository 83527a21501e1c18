(* Tests for Jitise_ir: types, instructions, eval semantics, builder,
   verifier, CFG, dominators, DFG, cost model, printer. *)

module Ir = Jitise_ir
open Ir

(* A hand-built function used by several suites:

   int f(x) {            bb0: cmp = x < 10 ? bb1 : bb2
     if (x < 10)          bb1: a = x + 1        -> bb3
       return (x+1)*2     bb2: b = x * 3        -> bb3
     else return x*3      bb3: p = phi [bb1: a2, bb2: b]; ret p
   } *)
let diamond_func () =
  let f = Func.create ~name:"diamond" ~params:[ (0, Ty.I32) ] ~ret_ty:Ty.I32 in
  let b = Builder.create f in
  let bb0 = Builder.new_block b ~name:"entry" in
  let bb1 = Builder.new_block b ~name:"then" in
  let bb2 = Builder.new_block b ~name:"else" in
  let bb3 = Builder.new_block b ~name:"join" in
  Builder.position_at b bb0;
  let cmp = Builder.icmp b Instr.Islt (Builder.reg 0) (Builder.ci32 10) in
  Builder.cond_br b (Builder.reg cmp) bb1.Block.label bb2.Block.label;
  Builder.position_at b bb1;
  let a = Builder.binop b Instr.Add Ty.I32 (Builder.reg 0) (Builder.ci32 1) in
  let a2 = Builder.binop b Instr.Mul Ty.I32 (Builder.reg a) (Builder.ci32 2) in
  Builder.br b bb3.Block.label;
  Builder.position_at b bb2;
  let c = Builder.binop b Instr.Mul Ty.I32 (Builder.reg 0) (Builder.ci32 3) in
  Builder.br b bb3.Block.label;
  Builder.position_at b bb3;
  let p =
    Builder.add b Ty.I32
      (Instr.Phi
         [ (bb1.Block.label, Builder.reg a2); (bb2.Block.label, Builder.reg c) ])
  in
  Builder.ret b (Some (Builder.reg p));
  Builder.finish b

(* ------------------------------------------------------------------ *)
(* Ty                                                                  *)
(* ------------------------------------------------------------------ *)

let test_ty_bits () =
  Alcotest.(check int) "i1" 1 (Ty.bits Ty.I1);
  Alcotest.(check int) "i32" 32 (Ty.bits Ty.I32);
  Alcotest.(check int) "f64" 64 (Ty.bits Ty.F64);
  Alcotest.(check int) "ptr is machine word" 32 (Ty.bits Ty.Ptr);
  Alcotest.(check int) "void" 0 (Ty.bits Ty.Void)

(* The printed names are the text IR's and the VHDL generator's type
   vocabulary: distinct and pinned. *)
let test_ty_roundtrip () =
  Alcotest.(check (list string)) "names"
    [ "i1"; "i8"; "i16"; "i32"; "i64"; "f32"; "f64"; "ptr"; "void" ]
    (List.map Ty.to_string
       [ Ty.I1; Ty.I8; Ty.I16; Ty.I32; Ty.I64; Ty.F32; Ty.F64; Ty.Ptr; Ty.Void ])

let test_ty_classes () =
  Alcotest.(check bool) "int" true (Ty.is_int Ty.I8);
  Alcotest.(check bool) "not int" false (Ty.is_int Ty.F32);
  Alcotest.(check bool) "float" true (Ty.is_float Ty.F64)

(* ------------------------------------------------------------------ *)
(* Instr classification                                                *)
(* ------------------------------------------------------------------ *)

let test_instr_classification () =
  let add = Instr.Binop (Instr.Add, Builder.ci32 1, Builder.ci32 2) in
  let load = Instr.Load (Builder.reg 0) in
  let store = Instr.Store (Builder.ci32 1, Builder.reg 0) in
  let call = Instr.Call ("f", []) in
  Alcotest.(check bool) "add feasible" true (Instr.hw_feasible add);
  Alcotest.(check bool) "load infeasible" false (Instr.hw_feasible load);
  Alcotest.(check bool) "store infeasible" false (Instr.hw_feasible store);
  Alcotest.(check bool) "call infeasible" false (Instr.hw_feasible call);
  Alcotest.(check bool) "add pure" false (Instr.has_side_effect add);
  Alcotest.(check bool) "call effectful" true (Instr.has_side_effect call)

let test_instr_operands () =
  let sel = Instr.Select (Builder.reg 1, Builder.reg 2, Builder.ci32 0) in
  Alcotest.(check int) "select arity" 3 (List.length (Instr.operands sel));
  Alcotest.(check (list int)) "used regs" [ 1; 2 ] (Instr.used_regs sel);
  Alcotest.(check (list int)) "successors" [ 4; 7 ]
    (Instr.successors (Instr.Cond_br (Builder.reg 0, 4, 7)))

let test_instr_names () =
  Alcotest.(check string) "binop name" "fmul" (Instr.binop_name Instr.Fmul);
  Alcotest.(check string) "opcode of icmp" "icmp.slt"
    (Instr.opcode_name (Instr.Icmp (Instr.Islt, Builder.ci32 0, Builder.ci32 1)))

(* ------------------------------------------------------------------ *)
(* Eval                                                                *)
(* ------------------------------------------------------------------ *)

let vint = function Eval.VInt v -> v | _ -> Alcotest.fail "expected int"
let vfloat = function Eval.VFloat v -> v | _ -> Alcotest.fail "expected float"

let test_eval_wrapping () =
  let v =
    Eval.eval_binop Ty.I32 Instr.Add (Eval.VInt 2147483647L) (Eval.VInt 1L)
  in
  Alcotest.(check int64) "i32 wraps" (-2147483648L) (vint v);
  let v = Eval.eval_binop Ty.I8 Instr.Mul (Eval.VInt 100L) (Eval.VInt 3L) in
  Alcotest.(check int64) "i8 wraps" 44L (vint v)

let test_eval_division () =
  Alcotest.(check int64) "sdiv" (-3L)
    (vint (Eval.eval_binop Ty.I32 Instr.Sdiv (Eval.VInt (-7L)) (Eval.VInt 2L)));
  Alcotest.(check int64) "udiv treats bits unsigned" 2147483644L
    (vint (Eval.eval_binop Ty.I32 Instr.Udiv (Eval.VInt (-7L)) (Eval.VInt 2L)));
  Alcotest.(check bool) "division by zero" true
    (try
       ignore (Eval.eval_binop Ty.I32 Instr.Sdiv (Eval.VInt 1L) (Eval.VInt 0L));
       false
     with Eval.Division_by_zero -> true)

let test_eval_shifts () =
  Alcotest.(check int64) "shl" 8L
    (vint (Eval.eval_binop Ty.I32 Instr.Shl (Eval.VInt 1L) (Eval.VInt 3L)));
  Alcotest.(check int64) "lshr of negative i32" 2147483644L
    (vint (Eval.eval_binop Ty.I32 Instr.Lshr (Eval.VInt (-7L)) (Eval.VInt 1L)));
  Alcotest.(check int64) "ashr keeps sign" (-4L)
    (vint (Eval.eval_binop Ty.I32 Instr.Ashr (Eval.VInt (-7L)) (Eval.VInt 1L)));
  Alcotest.(check int64) "shift amount masked" 2L
    (vint (Eval.eval_binop Ty.I32 Instr.Shl (Eval.VInt 1L) (Eval.VInt 33L)))

let test_eval_icmp () =
  let t p a b = vint (Eval.eval_icmp p (Eval.VInt a) (Eval.VInt b)) = 1L in
  Alcotest.(check bool) "slt" true (t Instr.Islt (-1L) 0L);
  Alcotest.(check bool) "ult sees -1 as max" false (t Instr.Iult (-1L) 0L);
  Alcotest.(check bool) "eq" true (t Instr.Ieq 5L 5L);
  Alcotest.(check bool) "uge" true (t Instr.Iuge (-1L) 1L)

let test_eval_fcmp_nan () =
  let nan_cmp p =
    vint (Eval.eval_fcmp p (Eval.VFloat Float.nan) (Eval.VFloat 1.0))
  in
  Alcotest.(check int64) "nan unordered oeq" 0L (nan_cmp Instr.Foeq);
  Alcotest.(check int64) "nan unordered one" 0L (nan_cmp Instr.Fone);
  Alcotest.(check int64) "olt" 1L
    (vint (Eval.eval_fcmp Instr.Folt (Eval.VFloat 1.0) (Eval.VFloat 2.0)))

let test_eval_casts () =
  Alcotest.(check int64) "trunc" (-1L)
    (vint (Eval.eval_cast Instr.Trunc ~from_:Ty.I32 ~to_:Ty.I8 (Eval.VInt 255L)));
  Alcotest.(check int64) "zext i8" 255L
    (vint (Eval.eval_cast Instr.Zext ~from_:Ty.I8 ~to_:Ty.I32 (Eval.VInt (-1L))));
  Alcotest.(check int64) "sext i8" (-1L)
    (vint (Eval.eval_cast Instr.Sext ~from_:Ty.I8 ~to_:Ty.I32 (Eval.VInt (-1L))));
  Alcotest.(check int64) "fptosi" 3L
    (vint (Eval.eval_cast Instr.Fptosi ~from_:Ty.F64 ~to_:Ty.I32 (Eval.VFloat 3.7)));
  Alcotest.(check (float 1e-9)) "sitofp" 4.0
    (vfloat (Eval.eval_cast Instr.Sitofp ~from_:Ty.I32 ~to_:Ty.F64 (Eval.VInt 4L)));
  Alcotest.(check int64) "fptosi of nan" 0L
    (vint
       (Eval.eval_cast Instr.Fptosi ~from_:Ty.F64 ~to_:Ty.I32
          (Eval.VFloat Float.nan)))

let test_eval_f32_rounding () =
  let v =
    Eval.eval_binop Ty.F32 Instr.Fadd (Eval.VFloat 0.1) (Eval.VFloat 0.2)
  in
  let f64 = 0.1 +. 0.2 in
  Alcotest.(check bool) "f32 differs from f64 sum" true (vfloat v <> f64)

let test_eval_i1_normalization () =
  Alcotest.(check int64) "i1 const true is 1" 1L
    (vint (Eval.of_const (Instr.Cint (1L, Ty.I1))));
  Alcotest.(check int64) "i1 wraps to 0/1" 1L
    (vint (Eval.of_const (Instr.Cint (3L, Ty.I1))))

let test_eval_select_is_true () =
  Alcotest.(check bool) "zero false" false (Eval.is_true (Eval.VInt 0L));
  Alcotest.(check bool) "float true" true (Eval.is_true (Eval.VFloat 0.5));
  Alcotest.(check int64) "select picks" 7L
    (vint (Eval.eval_select (Eval.VInt 1L) (Eval.VInt 7L) (Eval.VInt 9L)))

let prop_i32_add_matches_int32 =
  QCheck.Test.make ~name:"i32 add matches Int32 semantics" ~count:1000
    QCheck.(pair int32 int32)
    (fun (a, b) ->
      let v =
        Eval.eval_binop Ty.I32 Instr.Add
          (Eval.VInt (Int64.of_int32 a))
          (Eval.VInt (Int64.of_int32 b))
      in
      vint v = Int64.of_int32 (Int32.add a b))

let prop_i32_mul_matches_int32 =
  QCheck.Test.make ~name:"i32 mul matches Int32 semantics" ~count:1000
    QCheck.(pair int32 int32)
    (fun (a, b) ->
      let v =
        Eval.eval_binop Ty.I32 Instr.Mul
          (Eval.VInt (Int64.of_int32 a))
          (Eval.VInt (Int64.of_int32 b))
      in
      vint v = Int64.of_int32 (Int32.mul a b))

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize idempotent" ~count:1000
    QCheck.(pair (oneofl [ Ty.I1; Ty.I8; Ty.I16; Ty.I32; Ty.I64 ]) int64)
    (fun (ty, v) ->
      let n = Eval.normalize ty v in
      Eval.normalize ty n = n)

(* ------------------------------------------------------------------ *)
(* Builder + Verifier                                                  *)
(* ------------------------------------------------------------------ *)

(* The verifier's errors for [f] alone, as a one-function module. *)
let check_func f =
  let m = Irmod.create ~name:f.Func.name in
  Irmod.add_func m f;
  Verifier.check_module m

let test_builder_diamond_valid () =
  let f = diamond_func () in
  Alcotest.(check (list string)) "verifies" []
    (List.map
       (Format.asprintf "%a" Verifier.pp_error)
       (check_func f));
  Alcotest.(check int) "blocks" 4 (Func.num_blocks f);
  Alcotest.(check int) "instrs" 5 (Func.num_instrs f)

let test_verifier_catches_undefined_reg () =
  let f = Func.create ~name:"bad" ~params:[] ~ret_ty:Ty.I32 in
  let b = Builder.create f in
  let bb = Builder.new_block b ~name:"entry" in
  Builder.position_at b bb;
  let r = Builder.binop b Instr.Add Ty.I32 (Builder.reg 99) (Builder.ci32 1) in
  Builder.ret b (Some (Builder.reg r));
  let f = Builder.finish b in
  Alcotest.(check bool) "error reported" true (check_func f <> [])

let test_verifier_catches_bad_branch () =
  let f = Func.create ~name:"bad" ~params:[] ~ret_ty:Ty.Void in
  let b = Builder.create f in
  let bb = Builder.new_block b ~name:"entry" in
  Builder.position_at b bb;
  Builder.br b 5;
  let f = Builder.finish b in
  Alcotest.(check bool) "bad target" true (check_func f <> [])

let test_verifier_catches_type_mismatch () =
  let f = Func.create ~name:"bad" ~params:[ (0, Ty.F64) ] ~ret_ty:Ty.I32 in
  let b = Builder.create f in
  let bb = Builder.new_block b ~name:"entry" in
  Builder.position_at b bb;
  (* integer add on a float-typed operand *)
  let r = Builder.binop b Instr.Add Ty.I32 (Builder.reg 0) (Builder.ci32 1) in
  Builder.ret b (Some (Builder.reg r));
  let f = Builder.finish b in
  Alcotest.(check bool) "type error found" true (check_func f <> [])

let test_verifier_catches_ret_mismatch () =
  let f = Func.create ~name:"bad" ~params:[] ~ret_ty:Ty.Void in
  let b = Builder.create f in
  let bb = Builder.new_block b ~name:"entry" in
  Builder.position_at b bb;
  Builder.ret b (Some (Builder.ci32 1));
  let f = Builder.finish b in
  Alcotest.(check bool) "ret in void" true (check_func f <> [])

let test_verifier_module () =
  let m = Irmod.create ~name:"m" in
  Irmod.add_func m (diamond_func ());
  Alcotest.(check bool) "module clean" true (Verifier.check_module m = [])

(* One failing case per rule the VM's precondition adds: dominance,
   register range, user-call signatures, constants, parameters and
   entry-block phis.  Each pins the exact errors. *)

let errors_of m =
  List.map (Format.asprintf "%a" Verifier.pp_error) (Verifier.check_module m)

let module_of funcs =
  let m = Irmod.create ~name:"m" in
  List.iter (Irmod.add_func m) funcs;
  m

(* A one-block function [f(i32) -> i32] whose body [body] fills. *)
let block_func ?(name = "f") ?(params = [ (0, Ty.I32) ]) ?(ret_ty = Ty.I32)
    body =
  let b = Builder.create (Func.create ~name ~params ~ret_ty) in
  Builder.position_at b (Builder.new_block b ~name:"entry");
  body b;
  Builder.finish b

let check_rule what expected funcs =
  Alcotest.(check (list string)) what expected (errors_of (module_of funcs))

let test_verifier_dominance () =
  let r = Builder.reg in
  (* within one block: %1 reads %2, defined after it *)
  check_rule "same block"
    [ "f/bb0: add: the definition of %2 does not dominate this use" ]
    [
      block_func (fun b ->
          let x = Builder.binop b Instr.Add Ty.I32 (r 2) (Builder.ci32 1) in
          let y = Builder.binop b Instr.Mul Ty.I32 (r 0) (Builder.ci32 2) in
          let z = Builder.binop b Instr.Add Ty.I32 (r x) (r y) in
          Builder.ret b (Some (r z)));
    ];
  (* across blocks: the join reads the then-branch's value directly *)
  let f = diamond_func () in
  let join = f.Func.blocks.(3) in
  join.Block.term <- Instr.Ret (Some (r 3));
  check_rule "across blocks"
    [
      "diamond/bb3: terminator: the definition of %3 does not dominate this \
       use";
    ]
    [ f ];
  (* a phi's value must be available at the end of its predecessor: %3
     is defined in bb1, not on the edge from bb2 *)
  let f = diamond_func () in
  let join = f.Func.blocks.(3) in
  Block.set_instrs join
    (List.map
       (fun (i : Instr.t) ->
         match i.Instr.kind with
         | Instr.Phi _ ->
             { i with Instr.kind = Instr.Phi [ (1, r 3); (2, r 3) ] }
         | _ -> i)
       join.Block.instrs);
  check_rule "phi edge"
    [ "diamond/bb3: phi: the definition of %3 does not dominate this use" ]
    [ f ];
  (* an incoming label outside the function is reported, not followed *)
  let f = diamond_func () in
  let join = f.Func.blocks.(3) in
  Block.set_instrs join
    (List.map
       (fun (i : Instr.t) ->
         match i.Instr.kind with
         | Instr.Phi [ e1; (_, op) ] ->
             { i with Instr.kind = Instr.Phi [ e1; (9, op) ] }
         | _ -> i)
       join.Block.instrs);
  check_rule "phi label out of range"
    [ "diamond/bb3: phi %5 incoming labels do not match predecessors" ]
    [ f ];
  (* a use in an unreachable block is exempt *)
  let b = Builder.create (Func.create ~name:"f" ~params:[] ~ret_ty:Ty.I32) in
  let entry = Builder.new_block b ~name:"entry" in
  let dead = Builder.new_block b ~name:"dead" in
  Builder.position_at b entry;
  let x = Builder.binop b Instr.Add Ty.I32 (Builder.ci32 1) (Builder.ci32 2) in
  Builder.ret b (Some (r x));
  Builder.position_at b dead;
  let y = Builder.binop b Instr.Add Ty.I32 (r (x + 2)) (Builder.ci32 1) in
  ignore (Builder.binop b Instr.Add Ty.I32 (Builder.ci32 1) (Builder.ci32 1));
  Builder.ret b (Some (r y));
  check_rule "unreachable use" [] [ Builder.finish b ]

let test_verifier_register_range () =
  let r = Builder.reg in
  let f = block_func (fun b -> Builder.ret b (Some (r 0))) in
  Block.set_instrs f.Func.blocks.(0)
    [ { Instr.id = 7; ty = Ty.I32; kind = Instr.Cast (Instr.Sext, r 0) } ];
  check_rule "instruction id" [ "f/bb0: register %7 out of range" ] [ f ];
  check_rule "parameter numbering"
    [ "f: parameter 0 is register %1, not %0" ]
    [
      block_func ~params:[ (1, Ty.I32) ] (fun b ->
          Builder.ret b (Some (Builder.ci32 0)));
    ];
  check_rule "void id defined twice" [ "f/bb0: register %1 defined twice" ]
    [
      (let f =
         block_func (fun b ->
             let p = Builder.add b Ty.Ptr (Instr.Alloca (Ty.I32, 1)) in
             Builder.store b (r 0) (r p);
             Builder.ret b (Some (r 0)))
       in
       Block.set_instrs f.Func.blocks.(0)
         (List.map
            (fun (i : Instr.t) ->
              if i.Instr.ty = Ty.Void then { i with Instr.id = 1 } else i)
            f.Func.blocks.(0).Block.instrs);
       f);
    ]

let test_verifier_user_calls () =
  let r = Builder.reg in
  let g =
    block_func ~name:"g" ~params:[ (0, Ty.I32); (1, Ty.F64) ] (fun b ->
        Builder.ret b (Some (r 0)))
  in
  let caller body = block_func ~name:"main" body in
  check_rule "arity"
    [ "main/bb0: call to @g with 1 arguments, expected 2" ]
    [
      g;
      caller (fun b ->
          Builder.ret b (Some (r (Builder.call b Ty.I32 "g" [ r 0 ]))));
    ];
  check_rule "argument type"
    [ "main/bb0: call.g: operand has type i32, expected f64" ]
    [
      g;
      caller (fun b ->
          Builder.ret b (Some (r (Builder.call b Ty.I32 "g" [ r 0; r 0 ]))));
    ];
  check_rule "result type"
    [
      "main/bb0: call to @g has type i64, the callee returns i32";
      "main/bb0: terminator: operand has type i64, expected i32";
    ]
    [
      g;
      caller (fun b ->
          Builder.ret b
            (Some (r (Builder.call b Ty.I64 "g" [ r 0; Builder.cf64 1.0 ]))));
    ]

let test_verifier_values () =
  check_rule "constant class"
    [ "f/bb0: terminator: constant 0x1p+0:i32 does not fit its type" ]
    [
      block_func (fun b ->
          Builder.ret b (Some (Instr.Const (Instr.Cfloat (1.0, Ty.I32)))));
    ];
  check_rule "void parameter" [ "f: parameter 0 has type void" ]
    [
      block_func ~params:[ (0, Ty.Void) ] (fun b ->
          Builder.ret b (Some (Builder.ci32 0)));
    ];
  (* a phi in the entry block, which a loop branches back to *)
  let f = block_func (fun b -> Builder.br b 0) in
  Block.set_instrs f.Func.blocks.(0)
    [ { Instr.id = 1; ty = Ty.I32; kind = Instr.Phi [ (0, Builder.reg 1) ] } ];
  f.Func.next_reg <- 2;
  check_rule "entry phi" [ "f/bb0: phi %1 in the entry block" ] [ f ]

(* ------------------------------------------------------------------ *)
(* Irmod                                                               *)
(* ------------------------------------------------------------------ *)

let test_irmod_duplicates () =
  let m = Irmod.create ~name:"m" in
  Irmod.add_func m (diamond_func ());
  Alcotest.(check bool) "dup func rejected" true
    (try
       Irmod.add_func m (diamond_func ());
       false
     with Invalid_argument _ -> true);
  Irmod.add_global m
    { Irmod.gname = "g"; gty = Ty.I32; gsize = 4; ginit = Irmod.Zero };
  Alcotest.(check bool) "dup global rejected" true
    (try
       Irmod.add_global m
         { Irmod.gname = "g"; gty = Ty.I32; gsize = 1; ginit = Irmod.Zero };
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "find" true (Irmod.find_func m "diamond" <> None);
  Alcotest.(check bool) "find missing" true (Irmod.find_func m "nope" = None)

(* ------------------------------------------------------------------ *)
(* Cfg / Dom                                                           *)
(* ------------------------------------------------------------------ *)

let test_cfg_diamond () =
  let f = diamond_func () in
  let cfg = Cfg.of_func f in
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ] (Cfg.succs cfg 0);
  Alcotest.(check (list int)) "join preds" [ 1; 2 ]
    (List.sort compare (Cfg.preds cfg 3));
  let rpo = Cfg.reverse_postorder cfg in
  Alcotest.(check int) "rpo covers all" 4 (List.length rpo);
  Alcotest.(check int) "rpo starts at entry" 0 (List.hd rpo)

let test_cfg_unreachable () =
  let f = Func.create ~name:"u" ~params:[] ~ret_ty:Ty.Void in
  let b = Builder.create f in
  let bb0 = Builder.new_block b ~name:"entry" in
  let _bb1 = Builder.new_block b ~name:"island" in
  Builder.position_at b bb0;
  Builder.ret b None;
  let f = Builder.finish b in
  let reach = Cfg.reachable (Cfg.of_func f) in
  Alcotest.(check bool) "entry reachable" true reach.(0);
  Alcotest.(check bool) "island unreachable" false reach.(1)

let test_dom_diamond () =
  let f = diamond_func () in
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg in
  Alcotest.(check int) "idom of then" 0 dom.Dom.idom.(1);
  Alcotest.(check int) "idom of else" 0 dom.Dom.idom.(2);
  Alcotest.(check int) "idom of join" 0 dom.Dom.idom.(3);
  let fr = Dom.frontiers dom cfg in
  Alcotest.(check (list int)) "frontier of then" [ 3 ] fr.(1);
  Alcotest.(check (list int)) "frontier of else" [ 3 ] fr.(2)

(* ------------------------------------------------------------------ *)
(* Dfg                                                                 *)
(* ------------------------------------------------------------------ *)

let straightline_block () =
  (* bb0: t1 = x + 1; t2 = t1 * 2; t3 = load p; t4 = t2 + x; ret t4
     t1 feeds only t2; t2 feeds t4 (single consumers) *)
  let f =
    Func.create ~name:"s" ~params:[ (0, Ty.I32); (1, Ty.Ptr) ] ~ret_ty:Ty.I32
  in
  let b = Builder.create f in
  let bb = Builder.new_block b ~name:"entry" in
  Builder.position_at b bb;
  let t1 = Builder.binop b Instr.Add Ty.I32 (Builder.reg 0) (Builder.ci32 1) in
  let t2 = Builder.binop b Instr.Mul Ty.I32 (Builder.reg t1) (Builder.ci32 2) in
  let _t3 = Builder.load b Ty.I32 (Builder.reg 1) in
  let t4 = Builder.binop b Instr.Add Ty.I32 (Builder.reg t2) (Builder.reg 0) in
  Builder.ret b (Some (Builder.reg t4));
  let f = Builder.finish b in
  (f, Ir.Func.block f 0)

let test_dfg_edges () =
  let f, blk = straightline_block () in
  let dfg = Dfg.of_block f blk in
  Alcotest.(check int) "nodes" 4 (Dfg.node_count dfg);
  (* t1 (node 0) feeds t2 (node 1) *)
  Alcotest.(check (list int)) "t1 succs" [ 1 ] dfg.Dfg.nodes.(0).Dfg.succs;
  Alcotest.(check (list int)) "t4 preds" [ 1 ] dfg.Dfg.nodes.(3).Dfg.preds;
  Alcotest.(check bool) "t4 escapes (terminator)" true
    dfg.Dfg.nodes.(3).Dfg.external_uses;
  Alcotest.(check bool) "load infeasible" false (Dfg.feasible dfg.Dfg.nodes.(2))

let test_dfg_external_inputs () =
  let f, blk = straightline_block () in
  let dfg = Dfg.of_block f blk in
  (* node 0 reads param %0 (external) and a constant: no in-block
     producer *)
  Alcotest.(check (list int)) "inputs from outside the block" []
    dfg.Dfg.nodes.(0).Dfg.preds;
  Alcotest.(check bool) "param not defined in the block" false
    (Hashtbl.mem dfg.Dfg.by_reg 0);
  Alcotest.(check bool) "is block output" true dfg.Dfg.nodes.(3).Dfg.external_uses

let test_dfg_topological () =
  let f, blk = straightline_block () in
  let dfg = Dfg.of_block f blk in
  (* SSA order within a block is topological: producers come first. *)
  Array.iteri
    (fun i (n : Dfg.node) ->
      List.iter
        (fun p -> Alcotest.(check bool) "producer precedes consumer" true (p < i))
        n.Dfg.preds)
    dfg.Dfg.nodes

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)
(* ------------------------------------------------------------------ *)

let test_cost_ordering () =
  let c k = Cost.cycles k in
  let add = Instr.Binop (Instr.Add, Builder.ci32 1, Builder.ci32 1) in
  let mul = Instr.Binop (Instr.Mul, Builder.ci32 1, Builder.ci32 1) in
  let div = Instr.Binop (Instr.Sdiv, Builder.ci32 1, Builder.ci32 1) in
  let fadd = Instr.Binop (Instr.Fadd, Builder.cf64 1., Builder.cf64 1.) in
  let fdiv = Instr.Binop (Instr.Fdiv, Builder.cf64 1., Builder.cf64 1.) in
  Alcotest.(check bool) "add < mul" true (c add < c mul);
  Alcotest.(check bool) "mul < div" true (c mul < c div);
  Alcotest.(check bool) "int add << soft-float add" true (c add * 10 <= c fadd);
  Alcotest.(check bool) "fadd < fdiv" true (c fadd < c fdiv)

let test_cost_block () =
  let f, blk = straightline_block () in
  ignore f;
  Alcotest.(check bool) "block cost positive" true (Cost.block_cycles blk > 0)

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let test_printer_output () =
  let m = Irmod.create ~name:"m" in
  Irmod.add_global m
    { Irmod.gname = "tbl"; gty = Ty.F64; gsize = 2; ginit = Irmod.Floats [| 1.5; 2.5 |] };
  Irmod.add_func m (diamond_func ());
  let s = Printer.module_to_string m in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module header" true (contains "module m");
  Alcotest.(check bool) "global" true (contains "global @tbl");
  Alcotest.(check bool) "function" true (contains "func i32 @diamond");
  Alcotest.(check bool) "phi" true (contains "phi i32");
  Alcotest.(check bool) "condbr" true (contains "condbr")


(* ------------------------------------------------------------------ *)
(* Coalesce: phi-congruence classes                                    *)
(* ------------------------------------------------------------------ *)

(* [loop_func build]: f(n : i64) -> i64 over blocks entry bb0, header
   bb1, latch bb2 and exit bb3.  [build b at] fills them ([at k]
   positions the builder at bb[k]) and returns the header's phis with
   their entries; the phis are created with no entries, so the entries
   may name registers defined after them. *)
let loop_func build =
  let f = Func.create ~name:"f" ~params:[ (0, Ty.I64) ] ~ret_ty:Ty.I64 in
  let b = Builder.create f in
  let blocks =
    Array.map
      (fun name -> Builder.new_block b ~name)
      [| "entry"; "header"; "latch"; "exit" |]
  in
  let phis = build b (fun k -> Builder.position_at b blocks.(k)) in
  Block.set_instrs blocks.(1)
    (List.map
       (fun (i : Instr.t) ->
         match List.assoc_opt i.Instr.id phis with
         | Some entries -> { i with Instr.kind = Instr.Phi entries }
         | None -> i)
       blocks.(1).Block.instrs);
  Builder.finish b

let empty_phi b ty = Builder.add b ty (Instr.Phi [])

(* The classes of [f] as sorted register lists, after checking that [f]
   (with a global "cells") verifies. *)
let classes_of f =
  let m = Irmod.create ~name:"m" in
  Irmod.add_global m
    { Irmod.gname = "cells"; gty = Ty.I64; gsize = 4; ginit = Irmod.Zero };
  Irmod.add_func m f;
  Alcotest.(check (list string)) "verifies" [] (errors_of m);
  let c = Coalesce.classes (Coalesce.scratch ()) f in
  List.sort_uniq compare (Array.to_list c.Coalesce.reps)
  |> List.map (fun rep ->
         List.filteri (fun k _ -> c.Coalesce.reps.(k) = rep)
           (Array.to_list c.Coalesce.members))

let check_classes what expected f =
  Alcotest.(check (list (list int))) what expected (classes_of f)

(* header: i = phi [0, i1]; latch: i1 = i + 1.  [after] reads i in the
   latch after the increment. *)
let counter_loop ?(after = false) () =
  let r = Builder.reg and i64 = Builder.ci64 in
  let ids = ref (0, 0) in
  let f =
    loop_func (fun b at ->
        at 0;
        Builder.br b 1;
        at 1;
        let i = empty_phi b Ty.I64 in
        let c = Builder.icmp b Instr.Islt (r i) (r 0) in
        Builder.cond_br b (r c) 2 3;
        at 2;
        let i1 = Builder.binop b Instr.Add Ty.I64 (r i) (i64 1L) in
        if after then ignore (Builder.binop b Instr.Mul Ty.I64 (r i) (i64 3L));
        Builder.br b 1;
        at 3;
        Builder.ret b (Some (r i));
        ids := (i, i1);
        [ (i, [ (0, i64 0L); (2, r i1) ]) ])
  in
  (f, !ids)

let test_coalesce_counter () =
  let f, (i, i1) = counter_loop () in
  check_classes "a loop counter and its increment share" [ [ i; i1 ] ] f;
  let f, _ = counter_loop ~after:true () in
  check_classes "the latch reads the counter after the increment" [] f

(* header: p = phi [n, d]; latch: d = p - 1 *)
let test_coalesce_param () =
  let r = Builder.reg and i64 = Builder.ci64 in
  let ids = ref (0, 0) in
  let f =
    loop_func (fun b at ->
        at 0;
        Builder.br b 1;
        at 1;
        let p = empty_phi b Ty.I64 in
        let c = Builder.icmp b Instr.Isgt (r p) (i64 0L) in
        Builder.cond_br b (r c) 2 3;
        at 2;
        let d = Builder.binop b Instr.Sub Ty.I64 (r p) (i64 1L) in
        Builder.br b 1;
        at 3;
        Builder.ret b (Some (r p));
        ids := (p, d);
        [ (p, [ (0, r 0); (2, r d) ]) ])
  in
  let p, d = !ids in
  check_classes "a parameter entry joins the phi" [ [ 0; p; d ] ] f

(* a, b = b, a + b *)
let test_coalesce_rotation () =
  let r = Builder.reg and i64 = Builder.ci64 in
  let ids = ref [] in
  let f =
    loop_func (fun b at ->
        at 0;
        Builder.br b 1;
        at 1;
        let a = empty_phi b Ty.I64 and bb = empty_phi b Ty.I64 in
        let i = empty_phi b Ty.I64 in
        let c = Builder.icmp b Instr.Islt (r i) (r 0) in
        Builder.cond_br b (r c) 2 3;
        at 2;
        let t = Builder.binop b Instr.Add Ty.I64 (r a) (r bb) in
        let i1 = Builder.binop b Instr.Add Ty.I64 (r i) (i64 1L) in
        Builder.br b 1;
        at 3;
        Builder.ret b (Some (r a));
        ids := [ i; i1 ];
        [
          (a, [ (0, i64 0L); (2, r bb) ]);
          (bb, [ (0, i64 1L); (2, r t) ]);
          (i, [ (0, i64 0L); (2, r i1) ]);
        ])
  in
  check_classes "no phi of the rotation shares" [ !ids ] f

(* x is read in the header, so it is live where the phi is defined *)
let test_coalesce_live_into_header () =
  let r = Builder.reg and i64 = Builder.ci64 in
  let ids = ref (0, 0) in
  let f =
    loop_func (fun b at ->
        at 0;
        let x = Builder.binop b Instr.Add Ty.I64 (r 0) (i64 1L) in
        Builder.br b 1;
        at 1;
        let p = empty_phi b Ty.I64 in
        let y = Builder.binop b Instr.Add Ty.I64 (r p) (r x) in
        let c = Builder.icmp b Instr.Islt (r y) (i64 100L) in
        Builder.cond_br b (r c) 2 3;
        at 2;
        let q = Builder.binop b Instr.Add Ty.I64 (r p) (i64 1L) in
        Builder.br b 1;
        at 3;
        Builder.ret b (Some (r y));
        ids := (p, q);
        [ (p, [ (0, r x); (2, r q) ]) ])
  in
  let p, q = !ids in
  check_classes "only the latch entry joins" [ [ p; q ] ] f

(* b's latch entry is its sibling a, which is then live at the end of
   the latch: a shares with neither b nor its increment a1 *)
let test_coalesce_sibling_phis () =
  let r = Builder.reg and i64 = Builder.ci64 in
  let f =
    loop_func (fun b at ->
        at 0;
        Builder.br b 1;
        at 1;
        let a = empty_phi b Ty.I64 and bb = empty_phi b Ty.I64 in
        let c = Builder.icmp b Instr.Islt (r a) (r 0) in
        Builder.cond_br b (r c) 2 3;
        at 2;
        let a1 = Builder.binop b Instr.Add Ty.I64 (r a) (i64 1L) in
        Builder.br b 1;
        at 3;
        Builder.ret b (Some (r bb));
        [ (a, [ (0, i64 0L); (2, r a1) ]); (bb, [ (0, i64 5L); (2, r a) ]) ])
  in
  check_classes "two phis of one block never share" [] f

(* a [Gaddr] result is a constant of the run: never a candidate *)
let test_coalesce_gaddr_entry () =
  let r = Builder.reg and i64 = Builder.ci64 in
  let ids = ref [] in
  let f =
    loop_func (fun b at ->
        at 0;
        let g = Builder.add b Ty.Ptr (Instr.Gaddr "cells") in
        Builder.br b 1;
        at 1;
        let p = empty_phi b Ty.Ptr and i = empty_phi b Ty.I64 in
        let c = Builder.icmp b Instr.Islt (r i) (i64 3L) in
        Builder.cond_br b (r c) 2 3;
        at 2;
        let q = Builder.gep b (r p) (i64 1L) in
        let i1 = Builder.binop b Instr.Add Ty.I64 (r i) (i64 1L) in
        Builder.br b 1;
        at 3;
        Builder.ret b (Some (r (Builder.load b Ty.I64 (r p))));
        ids := [ [ p; q ]; [ i; i1 ] ];
        [ (p, [ (0, r g); (2, r q) ]); (i, [ (0, i64 0L); (2, r i1) ]) ])
  in
  check_classes "the gaddr entry stays out" !ids f

(* One scratch serves functions of any size in turn, with the same
   classes as a fresh one. *)
let test_coalesce_scratch_reuse () =
  let sc = Coalesce.scratch () in
  let fs =
    [
      fst (counter_loop ()); diamond_func (); fst (counter_loop ~after:true ());
    ]
  in
  List.iter
    (fun f ->
      let fresh = Coalesce.classes (Coalesce.scratch ()) f in
      let reused = Coalesce.classes sc f in
      Alcotest.(check (array int)) "members" fresh.Coalesce.members
        reused.Coalesce.members;
      Alcotest.(check (array int)) "reps" fresh.Coalesce.reps
        reused.Coalesce.reps)
    (fs @ fs)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ir"
    [
      ( "ty",
        [
          Alcotest.test_case "bits" `Quick test_ty_bits;
          Alcotest.test_case "roundtrip" `Quick test_ty_roundtrip;
          Alcotest.test_case "classes" `Quick test_ty_classes;
        ] );
      ( "instr",
        [
          Alcotest.test_case "classification" `Quick test_instr_classification;
          Alcotest.test_case "operands" `Quick test_instr_operands;
          Alcotest.test_case "names" `Quick test_instr_names;
        ] );
      ( "eval",
        [
          Alcotest.test_case "wrapping" `Quick test_eval_wrapping;
          Alcotest.test_case "division" `Quick test_eval_division;
          Alcotest.test_case "shifts" `Quick test_eval_shifts;
          Alcotest.test_case "icmp" `Quick test_eval_icmp;
          Alcotest.test_case "fcmp nan" `Quick test_eval_fcmp_nan;
          Alcotest.test_case "casts" `Quick test_eval_casts;
          Alcotest.test_case "f32 rounding" `Quick test_eval_f32_rounding;
          Alcotest.test_case "i1 normalization" `Quick test_eval_i1_normalization;
          Alcotest.test_case "select/is_true" `Quick test_eval_select_is_true;
        ]
        @ qsuite
            [
              prop_i32_add_matches_int32;
              prop_i32_mul_matches_int32;
              prop_normalize_idempotent;
            ] );
      ( "builder-verifier",
        [
          Alcotest.test_case "diamond valid" `Quick test_builder_diamond_valid;
          Alcotest.test_case "undefined reg" `Quick test_verifier_catches_undefined_reg;
          Alcotest.test_case "bad branch" `Quick test_verifier_catches_bad_branch;
          Alcotest.test_case "type mismatch" `Quick test_verifier_catches_type_mismatch;
          Alcotest.test_case "ret mismatch" `Quick test_verifier_catches_ret_mismatch;
          Alcotest.test_case "module check" `Quick test_verifier_module;
          Alcotest.test_case "module duplicates" `Quick test_irmod_duplicates;
          Alcotest.test_case "dominance" `Quick test_verifier_dominance;
          Alcotest.test_case "register range" `Quick
            test_verifier_register_range;
          Alcotest.test_case "user calls" `Quick test_verifier_user_calls;
          Alcotest.test_case "constants, parameters, entry phis" `Quick
            test_verifier_values;
        ] );
      ( "cfg-dom",
        [
          Alcotest.test_case "diamond cfg" `Quick test_cfg_diamond;
          Alcotest.test_case "unreachable" `Quick test_cfg_unreachable;
          Alcotest.test_case "dominators" `Quick test_dom_diamond;
        ] );
      ( "dfg",
        [
          Alcotest.test_case "edges" `Quick test_dfg_edges;
          Alcotest.test_case "external inputs" `Quick test_dfg_external_inputs;
          Alcotest.test_case "topological" `Quick test_dfg_topological;
        ] );
      ( "cost",
        [
          Alcotest.test_case "ordering" `Quick test_cost_ordering;
          Alcotest.test_case "block" `Quick test_cost_block;
        ] );
      ("printer", [ Alcotest.test_case "output" `Quick test_printer_output ]);
      ( "coalesce",
        [
          Alcotest.test_case "loop counter" `Quick test_coalesce_counter;
          Alcotest.test_case "parameter entry" `Quick test_coalesce_param;
          Alcotest.test_case "rotation" `Quick test_coalesce_rotation;
          Alcotest.test_case "entry live into the header" `Quick
            test_coalesce_live_into_header;
          Alcotest.test_case "two phis of one block" `Quick
            test_coalesce_sibling_phis;
          Alcotest.test_case "gaddr entry" `Quick test_coalesce_gaddr_entry;
          Alcotest.test_case "scratch reuse" `Quick test_coalesce_scratch_reuse;
        ] );
    ]
