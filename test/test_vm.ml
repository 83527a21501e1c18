(* Tests for Jitise_vm: memory, profile, JIT cost model, interpreter. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module F = Jitise_frontend
module Core = Jitise_core

let compile src = (F.Compiler.compile_string ~name:"t" src).F.Compiler.modul

(* A phi at the builder's insertion point. *)
let phi b ty incoming = Ir.Builder.add b ty (Ir.Instr.Phi incoming)

let run ?fuel ?cis ?(n = 0) m =
  Vm.Machine.run ?fuel ?cis m ~entry:"main"
    ~args:[ Ir.Eval.VInt (Int64.of_int n) ]

let ret_int out =
  match out.Vm.Machine.ret with
  | Some (Ir.Eval.VInt v) -> Int64.to_int v
  | _ -> Alcotest.fail "expected int"

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_alloc_store_load () =
  let m = Vm.Memory.create () in
  let base = Vm.Memory.alloc m 4 in
  Vm.Memory.store m (base + 2) (Ir.Eval.VInt 42L);
  (match Vm.Memory.load m (base + 2) with
  | Ir.Eval.VInt 42L -> ()
  | _ -> Alcotest.fail "roundtrip");
  Alcotest.(check bool) "fresh cells are zero" true
    (match Vm.Memory.load m base with Ir.Eval.VInt 0L -> true | _ -> false)

let test_memory_bad_address () =
  let m = Vm.Memory.create () in
  let _ = Vm.Memory.alloc m 2 in
  Alcotest.(check bool) "null deref" true
    (try
       ignore (Vm.Memory.load m 0);
       false
     with Vm.Memory.Bad_address 0 -> true);
  Alcotest.(check bool) "past the stack" true
    (try
       ignore (Vm.Memory.load m 1000);
       false
     with Vm.Memory.Bad_address _ -> true)

let test_memory_frames () =
  let m = Vm.Memory.create () in
  let mark = Vm.Memory.mark m in
  let base = Vm.Memory.alloc m 8 in
  Vm.Memory.release m mark;
  Alcotest.(check bool) "released frame unreadable" true
    (try
       ignore (Vm.Memory.load m base);
       false
     with Vm.Memory.Bad_address _ -> true)

let test_memory_globals () =
  let modul = Ir.Irmod.create ~name:"g" in
  Ir.Irmod.add_global modul
    { Ir.Irmod.gname = "ints"; gty = Ir.Ty.I32; gsize = 3;
      ginit = Ir.Irmod.Ints [| 1L; 2L; 3L |] };
  Ir.Irmod.add_global modul
    { Ir.Irmod.gname = "floats"; gty = Ir.Ty.F64; gsize = 2;
      ginit = Ir.Irmod.Floats [| 1.5; -2.5 |] };
  Ir.Irmod.add_global modul
    { Ir.Irmod.gname = "zeros"; gty = Ir.Ty.F32; gsize = 2; ginit = Ir.Irmod.Zero };
  let m = Vm.Memory.create () in
  Vm.Memory.load_globals m modul;
  let read name len =
    let base = Vm.Memory.global_base m name in
    List.init len (fun i -> Vm.Memory.load m (base + i))
  in
  Alcotest.(check (list int64)) "ints" [ 1L; 2L; 3L ]
    (List.map Ir.Eval.as_int (read "ints" 3));
  Alcotest.(check (list (float 1e-9))) "floats" [ 1.5; -2.5 ]
    (List.map Ir.Eval.as_float (read "floats" 2));
  Alcotest.(check (list (float 1e-9))) "zeros" [ 0.0; 0.0 ]
    (List.map Ir.Eval.as_float (read "zeros" 2));
  Alcotest.(check bool) "unknown global" true
    (try
       ignore (Vm.Memory.global_base m "nope");
       false
     with Invalid_argument _ -> true)

let test_memory_limit () =
  let m = Vm.Memory.create ~limit:128 () in
  Alcotest.(check bool) "out of memory" true
    (try
       ignore (Vm.Memory.alloc m 1024);
       false
     with Vm.Memory.Out_of_memory -> true)

(* A failed [alloc] grows nothing and moves nothing: the cell at the
   old stack pointer is still outside the live range. *)
let test_memory_failed_alloc () =
  let m = Vm.Memory.create ~limit:128 () in
  let sp = Vm.Memory.mark m in
  Alcotest.check_raises "out of memory" Vm.Memory.Out_of_memory (fun () ->
      ignore (Vm.Memory.alloc m 1024));
  Alcotest.(check int) "stack pointer unchanged" sp (Vm.Memory.mark m);
  Alcotest.check_raises "load" (Vm.Memory.Bad_address sp) (fun () ->
      ignore (Vm.Memory.load m sp));
  Alcotest.check_raises "typed store" (Vm.Memory.Bad_address sp) (fun () ->
      Vm.Memory.store_float m sp 1.0)

(* Typed cells.  Every cell keeps its constructor as a tag byte and its
   payload unboxed; the typed accessors must be observationally the
   boxed [load]/[store] composed with [as_int]/[as_float]/[as_ptr]. *)

let nan_payload = Int64.float_of_bits 0x7ff8_0000_0000_0abcL

(* A cell's identity down to the float bit pattern ([equal_value]
   treats every NaN as equal and -0.0 as 0.0). *)
let cell_repr = function
  | Ir.Eval.VInt x -> Printf.sprintf "VInt %Ld" x
  | Ir.Eval.VFloat x -> Printf.sprintf "VFloat %Lx" (Int64.bits_of_float x)
  | Ir.Eval.VPtr p -> Printf.sprintf "VPtr %d" p

let sample_values =
  [ Ir.Eval.VInt 0L; Ir.Eval.VInt (-5L); Ir.Eval.VInt Int64.min_int;
    Ir.Eval.VInt Int64.max_int; Ir.Eval.VPtr 0; Ir.Eval.VPtr 3;
    Ir.Eval.VFloat 0.0; Ir.Eval.VFloat (-0.0); Ir.Eval.VFloat nan_payload;
    Ir.Eval.VFloat Float.neg_infinity; Ir.Eval.VFloat 2.5 ]

let test_memory_typed_tags () =
  let m = Vm.Memory.create () in
  let base = Vm.Memory.alloc m (List.length sample_values) in
  (* boxed store, boxed load *)
  List.iteri (fun i v -> Vm.Memory.store m (base + i) v) sample_values;
  List.iteri
    (fun i v ->
      Alcotest.(check string) "boxed round trip" (cell_repr v)
        (cell_repr (Vm.Memory.load m (base + i))))
    sample_values;
  (* typed store, boxed load: the typed store writes the tag *)
  List.iteri
    (fun i v ->
      let a = base + i in
      (match v with
      | Ir.Eval.VInt x -> Vm.Memory.store_int m a x
      | Ir.Eval.VFloat x -> Vm.Memory.store_float m a x
      | Ir.Eval.VPtr p -> Vm.Memory.store_ptr m a p);
      Alcotest.(check string) "typed store keeps the constructor"
        (cell_repr v)
        (cell_repr (Vm.Memory.load m a)))
    sample_values;
  (* overwriting a cell with another kind replaces the tag *)
  Vm.Memory.store_float m base 1.0;
  Vm.Memory.store_ptr m base 9;
  Alcotest.(check string) "retagged" "VPtr 9"
    (cell_repr (Vm.Memory.load m base));
  let load_as as_ = as_ (Vm.Memory.load m base) in
  Alcotest.(check int64) "pointer read as int" 9L (load_as Ir.Eval.as_int);
  Vm.Memory.store_int m base (-1L);
  Alcotest.(check int) "int read as pointer" (-1) (load_as Ir.Eval.as_ptr);
  Vm.Memory.store_float m base nan_payload;
  Alcotest.(check int64) "NaN payload bits"
    (Int64.bits_of_float nan_payload)
    (Int64.bits_of_float (load_as Ir.Eval.as_float));
  Vm.Memory.store_float m base (-0.0);
  Alcotest.(check int64) "negative zero bits"
    (Int64.bits_of_float (-0.0))
    (Int64.bits_of_float (load_as Ir.Eval.as_float))

(* A typed store read back at another class: the boxed path's
   [Type_error] texts, which the compiled engine's inlined typed loads
   repeat word for word (the differential suites compare them). *)
let test_memory_typed_mismatch () =
  let m = Vm.Memory.create () in
  let base = Vm.Memory.alloc m 1 in
  let mismatch what as_ expected =
    Alcotest.(check bool) what true
      (try ignore (as_ (Vm.Memory.load m base)); false
       with Ir.Eval.Type_error msg -> msg = expected)
  in
  Vm.Memory.store_float m base 1.0;
  mismatch "float cell as int" Ir.Eval.as_int "expected an integer value";
  mismatch "float cell as address" Ir.Eval.as_ptr "expected an address";
  Vm.Memory.store_ptr m base 4;
  mismatch "pointer cell as float" Ir.Eval.as_float "expected a float value"

let test_memory_typed_bad_address_first () =
  let m = Vm.Memory.create () in
  let mark = Vm.Memory.mark m in
  let base = Vm.Memory.alloc m 2 in
  Vm.Memory.store_float m base 1.0;
  Vm.Memory.store_int m (base + 1) 1L;
  Vm.Memory.release m mark;
  (* released cells keep their stale tags (a float, an int): a load
     must still report the address, never the type *)
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "load %d" a)
        true
        (try ignore (Vm.Memory.load m a); false
         with Vm.Memory.Bad_address x -> x = a))
    [ 0; -3; base; base + 1; 1_000_000 ];
  List.iter
    (fun (what, store) ->
      Alcotest.(check bool) (what ^ " to a released cell") true
        (try store (); false with Vm.Memory.Bad_address a -> a = base))
    [
      ("store_int", fun () -> Vm.Memory.store_int m base 1L);
      ("store_float", fun () -> Vm.Memory.store_float m base 1.0);
      ("store_ptr", fun () -> Vm.Memory.store_ptr m base 1);
    ]

let test_memory_typed_growth () =
  let m = Vm.Memory.create () in
  let base = Vm.Memory.alloc m 3 in
  Vm.Memory.store_int m base (-7L);
  Vm.Memory.store_float m (base + 1) nan_payload;
  Vm.Memory.store_ptr m (base + 2) base;
  let cap = Bytes.length m.Vm.Memory.tags in
  let far = Vm.Memory.alloc m 5000 in
  Alcotest.(check bool) "backing grew" true (Bytes.length m.Vm.Memory.tags > cap);
  Vm.Memory.store_float m (far + 4999) 3.5;
  Alcotest.(check (list string)) "earlier cells survive growth"
    [ "VInt -7"; cell_repr (Ir.Eval.VFloat nan_payload);
      Printf.sprintf "VPtr %d" base ]
    (List.map (fun i -> cell_repr (Vm.Memory.load m (base + i))) [ 0; 1; 2 ]);
  Alcotest.(check string) "fresh cells read as int zero" "VInt 0"
    (cell_repr (Vm.Memory.load m far));
  Alcotest.(check (float 0.0)) "far cell" 3.5
    (Ir.Eval.as_float (Vm.Memory.load m (far + 4999)))

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

let test_profile_counts () =
  let p = Vm.Profile.create () in
  Vm.Profile.record p ~func:"f" ~label:0 ~count:1L ~instrs:3;
  Vm.Profile.record p ~func:"f" ~label:0 ~count:1L ~instrs:3;
  Vm.Profile.record p ~func:"f" ~label:1 ~count:5L ~instrs:2;
  Alcotest.(check int64) "bumped twice" 2L (Vm.Profile.count p ~func:"f" ~label:0);
  Alcotest.(check int64) "recorded" 5L (Vm.Profile.count p ~func:"f" ~label:1);
  Alcotest.(check int64) "missing is zero" 0L (Vm.Profile.count p ~func:"g" ~label:0);
  Alcotest.(check int64) "instr total" 16L p.Vm.Profile.executed_instrs

(* Two imports of one block (two runs' counters) sum. *)
let test_profile_merge () =
  let a = Vm.Profile.create () in
  Vm.Profile.record a ~func:"f" ~label:0 ~count:2L ~instrs:1;
  Vm.Profile.record a ~func:"f" ~label:0 ~count:3L ~instrs:2;
  Alcotest.(check int64) "merged" 5L (Vm.Profile.count a ~func:"f" ~label:0);
  Alcotest.(check int64) "instrs" 8L a.Vm.Profile.executed_instrs

let test_profile_block_costs_ordering () =
  let m =
    compile
      "int main(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }"
  in
  let out = run ~n:50 m in
  let costs = Vm.Profile.block_costs out.Vm.Machine.profile m in
  Alcotest.(check bool) "non-empty" true (costs <> []);
  let rec descending = function
    | a :: b :: rest -> snd a >= snd b && descending (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "sorted by cost" true (descending costs)

let test_window_create_validation () =
  let create ~size ~decay ~blocks () =
    ignore (Vm.Profile.Window.create ~size ~decay ~blocks)
  in
  Alcotest.check_raises "size"
    (Invalid_argument "Profile.Window.create: size must be >= 1")
    (create ~size:0 ~decay:0.5 ~blocks:4);
  Alcotest.check_raises "decay below"
    (Invalid_argument "Profile.Window.create: decay must be in [0, 1)")
    (create ~size:4 ~decay:(-0.1) ~blocks:4);
  Alcotest.check_raises "decay at 1"
    (Invalid_argument "Profile.Window.create: decay must be in [0, 1)")
    (create ~size:4 ~decay:1.0 ~blocks:4);
  Alcotest.check_raises "blocks"
    (Invalid_argument "Profile.Window.create: blocks must be >= 0")
    (create ~size:4 ~decay:0.5 ~blocks:(-1));
  create ~size:1 ~decay:0.0 ~blocks:0 ()

let test_window_counts () =
  let w = Vm.Profile.Window.create ~size:3 ~decay:0.5 ~blocks:2 in
  let obs id = Vm.Profile.Window.observe w id in
  let o1 = obs 0 in
  let o2 = obs 1 in
  let o3 = obs 0 in
  Alcotest.(check (list bool)) "fills on the third" [ false; false; true ]
    [ o1; o2; o3 ];
  Vm.Profile.Window.advance w;
  Alcotest.(check int) "last 0" 2 (Vm.Profile.Window.last w 0);
  Alcotest.(check int) "last 1" 1 (Vm.Profile.Window.last w 1);
  Alcotest.(check (float 0.0)) "rate 0" 2.0 (Vm.Profile.Window.rate w 0);
  ignore (obs 1);
  Vm.Profile.Window.advance w;
  Alcotest.(check int) "windows" 2 (Vm.Profile.Window.windows w);
  Alcotest.(check int) "0 went cold" 0 (Vm.Profile.Window.last w 0);
  Alcotest.(check (float 0.0)) "rate 0 decays" 1.0 (Vm.Profile.Window.rate w 0);
  Alcotest.(check (float 0.0)) "rate 1" 1.5 (Vm.Profile.Window.rate w 1)

(* The window over string-free dense ids must reproduce the keyed
   sliding window it replaced: this model is that implementation, over
   hash tables keyed by block id. *)
module Window_model = struct
  type t = {
    size : int;
    decay : float;
    mutable seen : int;
    mutable closed : int;
    cur : (int, int) Hashtbl.t;
    prev : (int, int) Hashtbl.t;
    hot : (int, float) Hashtbl.t;
  }

  let create ~size ~decay =
    {
      size;
      decay;
      seen = 0;
      closed = 0;
      cur = Hashtbl.create 8;
      prev = Hashtbl.create 8;
      hot = Hashtbl.create 8;
    }

  let observe w id =
    let c = Option.value ~default:0 (Hashtbl.find_opt w.cur id) in
    Hashtbl.replace w.cur id (c + 1);
    w.seen <- w.seen + 1;
    w.seen >= w.size

  let advance w =
    let stale =
      Hashtbl.fold
        (fun id r acc ->
          let r' = r *. w.decay in
          if r' < 1e-9 then id :: acc
          else begin
            Hashtbl.replace w.hot id r';
            acc
          end)
        w.hot []
    in
    List.iter (Hashtbl.remove w.hot) stale;
    Hashtbl.reset w.prev;
    Hashtbl.iter
      (fun id c ->
        Hashtbl.replace w.prev id c;
        let r = Option.value ~default:0.0 (Hashtbl.find_opt w.hot id) in
        Hashtbl.replace w.hot id (r +. float_of_int c))
      w.cur;
    Hashtbl.reset w.cur;
    w.seen <- 0;
    w.closed <- w.closed + 1

  let rate w id = Option.value ~default:0.0 (Hashtbl.find_opt w.hot id)
  let last w id = Option.value ~default:0 (Hashtbl.find_opt w.prev id)
end

(* Observation scripts: [Some id] observes block [id] (advancing when
   the window fills, as the controller does), [None] closes the window
   early. *)
let qcheck_window_model =
  let gen =
    QCheck.Gen.(
      let* blocks = int_range 1 6 in
      let* size = int_range 1 8 in
      let* decay = oneofl [ 0.0; 0.01; 0.3; 0.5; 0.9; 0.999 ] in
      let* script =
        list_size (int_range 0 300)
          (frequency
             [ (12, map Option.some (int_range 0 (blocks - 1))); (1, pure None) ])
      in
      pure (blocks, size, decay, script))
  in
  let print (blocks, size, decay, script) =
    Printf.sprintf "blocks=%d size=%d decay=%g script=[%s]" blocks size decay
      (String.concat ";"
         (List.map
            (function Some id -> string_of_int id | None -> "adv")
            script))
  in
  QCheck.Test.make ~name:"window: dense ids = keyed model" ~count:300
    (QCheck.make ~print gen) (fun (blocks, size, decay, script) ->
      let w = Vm.Profile.Window.create ~size ~decay ~blocks in
      let m = Window_model.create ~size ~decay in
      let same () =
        Vm.Profile.Window.windows w = m.Window_model.closed
        && List.for_all
             (fun id ->
               Int64.equal
                 (Int64.bits_of_float (Vm.Profile.Window.rate w id))
                 (Int64.bits_of_float (Window_model.rate m id))
               && Vm.Profile.Window.last w id = Window_model.last m id)
             (List.init blocks Fun.id)
      in
      List.for_all
        (fun step ->
          (match step with
          | Some id ->
              let full = Vm.Profile.Window.observe w id in
              if full <> Window_model.observe m id then
                QCheck.Test.fail_report "observe disagrees";
              if full then begin
                Vm.Profile.Window.advance w;
                Window_model.advance m
              end
          | None ->
              Vm.Profile.Window.advance w;
              Window_model.advance m);
          same ())
        script)

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let test_machine_phi_swap () =
  (* Parallel phi semantics: swapping two values through a loop must not
     serialize.  After n iterations of (a, b) <- (b, a), with n even the
     original order is restored. *)
  let m =
    compile
      "int main(int n) { int a = 1; int b = 2; int i; for (i = 0; i < n; i = i + 1) { int t = a; a = b; b = t; } return a * 10 + b; }"
  in
  Alcotest.(check int) "even swaps" 12 (ret_int (run ~n:4 m));
  Alcotest.(check int) "odd swaps" 21 (ret_int (run ~n:5 m))

let test_machine_faults () =
  let m = compile "int main(int n) { return 10 / n; }" in
  Alcotest.(check bool) "division fault" true
    (try
       ignore (run ~n:0 m);
       false
     with Vm.Machine.Fault _ -> true);
  let m = compile "int a[4]; int main(int n) { return a[n]; }" in
  Alcotest.(check bool) "wild index" true
    (try
       ignore (run ~n:5000 m);
       false
     with Vm.Machine.Fault _ -> true)

let test_machine_missing_entry () =
  let m = compile "int main(int n) { return 0; }" in
  Alcotest.(check bool) "unknown entry" true
    (try
       ignore (Vm.Machine.run m ~entry:"nope" ~args:[]);
       false
     with Vm.Machine.Fault _ -> true)

let test_machine_fuel () =
  let m = compile "int main(int n) { while (1 == 1) { n = n + 1; } return n; }" in
  Alcotest.(check bool) "infinite loop stopped" true
    (try
       ignore (run ~fuel:10_000L m);
       false
     with Vm.Machine.Fault _ -> true)

let test_machine_clocks () =
  let m =
    compile
      "double v[64]; int main(int n) { int i; double s = 0.0; for (i = 0; i < 64; i = i + 1) { v[i] = i * 0.5; } for (i = 0; i < n; i = i + 1) { s = s + v[i & 63] * v[(i + 1) & 63]; } return s; }"
  in
  let out = run ~n:5000 m in
  Alcotest.(check bool) "native positive" true (out.Vm.Machine.native_cycles > 0.0);
  Alcotest.(check bool) "vm >= 0" true (out.Vm.Machine.vm_cycles > 0.0)

let test_machine_hot_loop_amortizes () =
  let src =
    "int main(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { s = s + i * 3; } return s; }"
  in
  let m = compile src in
  let small = run ~n:50 m in
  let large = run ~n:1_000_000 m in
  let ratio o = o.Vm.Machine.vm_cycles /. o.Vm.Machine.native_cycles in
  Alcotest.(check bool) "warm-up dominates small runs" true
    (ratio small > ratio large);
  Alcotest.(check bool) "hot loop converges near 1" true (ratio large < 1.05)

let test_machine_deterministic () =
  let m = compile "int main(int n) { return n * 3 + 1; }" in
  let a = run ~n:4 m and b = run ~n:4 m in
  Alcotest.(check int) "same result" (ret_int a) (ret_int b);
  Alcotest.(check (float 1e-9)) "same cycles" a.Vm.Machine.native_cycles
    b.Vm.Machine.native_cycles

(* Hand-build a module with a Ci_call: main(n) = ci0(n, 7).  Shared
   with the engine-differential suite below. *)
let ci_module () =
  let f = Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I32) ] ~ret_ty:Ir.Ty.I32 in
  let b = Ir.Builder.create f in
  let bb = Ir.Builder.new_block b ~name:"entry" in
  Ir.Builder.position_at b bb;
  let r =
    Ir.Builder.add b Ir.Ty.I32
      (Ir.Instr.Ci_call (0, [ Ir.Builder.reg 0; Ir.Builder.ci32 7 ]))
  in
  Ir.Builder.ret b (Some (Ir.Builder.reg r));
  let f = Ir.Builder.finish b in
  let m = Ir.Irmod.create ~name:"ci" in
  Ir.Irmod.add_func m f;
  m

(* A custom-instruction body built with [Ir.Builder]: [build] emits the
   nodes into a scratch block whose registers [0 .. k-1] are the
   declared inputs, and returns the root. *)
let build_ci_body (inputs : Ir.Ty.t list) build : Vm.Machine.ci_body =
  let params = List.mapi (fun i ty -> (i, ty)) inputs in
  let f = Ir.Func.create ~name:"ci" ~params ~ret_ty:Ir.Ty.Void in
  let b = Ir.Builder.create f in
  let bb = Ir.Builder.new_block b ~name:"body" in
  Ir.Builder.position_at b bb;
  let root = build b in
  {
    Vm.Machine.cb_inputs = Array.of_list params;
    cb_nodes = Array.of_list bb.Ir.Block.instrs;
    cb_root = root;
  }

(* A registry holding one CI per body, numbered from 0, interpreted by
   {!Core.Adapt.eval_body}. *)
let body_registry ?(cycles = 2) bodies =
  let cis = Vm.Machine.empty_cis () in
  List.iteri
    (fun id body ->
      Hashtbl.replace cis id
        {
          Vm.Machine.ci_eval = Core.Adapt.eval_body body;
          ci_cycles = cycles;
          ci_body = Some body;
        })
    bodies;
  cis

(* ci0(a, b) = a * b over i32, at 2 cycles. *)
let mul_ci_registry () =
  body_registry
    [
      build_ci_body [ Ir.Ty.I32; Ir.Ty.I32 ] (fun b ->
          Ir.Builder.binop b Ir.Instr.Mul Ir.Ty.I32 (Ir.Builder.reg 0)
            (Ir.Builder.reg 1));
    ]

let test_machine_ci_call () =
  (* The registry path: ci0(a, b) = a * b, at 2 cycles. *)
  let m = ci_module () in
  let cis = mul_ci_registry () in
  Alcotest.(check int) "ci computes" 42 (ret_int (run ~cis ~n:6 m));
  (* without the registry the call faults *)
  Alcotest.(check bool) "unconfigured ci faults" true
    (try
       ignore (run ~n:6 m);
       false
     with Vm.Machine.Fault _ -> true)

let test_jit_model_translation () =
  Alcotest.(check (float 0.0)) "empty module translates for free" 0.0
    (Vm.Jit_model.module_translation_cycles ~module_instrs:0);
  Alcotest.(check (float 0.0)) "6 500 cycles per instruction" 6.5e6
    (Vm.Jit_model.module_translation_cycles ~module_instrs:1000)

let test_jit_model_block_cycles () =
  let cycles prior =
    Vm.Jit_model.block_execution_cycles ~prior ~ninstrs:10 ~native_cycles:20
  in
  Alcotest.(check bool) "cold interp is slower" true (cycles 0L > 20.0);
  Alcotest.(check bool) "hot is native-or-better" true (cycles 1_000L <= 20.0);
  (* the default model: a 16-execution warm-up, then 0.985 of native *)
  Alcotest.(check bool) "15th execution interpreted" true (cycles 15L > 20.0);
  Alcotest.(check (float 0.0)) "16th execution compiled" (0.985 *. 20.0)
    (cycles 16L)

let test_dispatch_accounting () =
  (* The dispatch charge is per executed IR instruction, independent of
     how the host engine batches the work (DESIGN.md §13): a block of
     [ninstrs] instructions always charges exactly
     [vm_dispatch_cycles * ninstrs] while interpreted. *)
  Alcotest.(check int)
    "block charge is per-instruction" 20
    (Ir.Cost.block_dispatch_cycles ~ninstrs:10);
  Alcotest.(check int)
    "empty block charges nothing" 0
    (Ir.Cost.block_dispatch_cycles ~ninstrs:0);
  let cold =
    Vm.Jit_model.block_execution_cycles ~prior:0L ~ninstrs:10
      ~native_cycles:25
  in
  Alcotest.(check (float 0.0))
    "cold = native + dispatch"
    (float_of_int (25 + Ir.Cost.block_dispatch_cycles ~ninstrs:10))
    cold

let test_seconds_of_cycles () =
  Alcotest.(check (float 1e-12)) "300 MHz" 1.0
    (Vm.Machine.seconds_of_cycles Ir.Cost.clock_hz)

(* ------------------------------------------------------------------ *)
(* Engine differential: Reference vs Threaded                          *)
(* ------------------------------------------------------------------ *)

(* The threaded engine's whole contract is "byte-identical outcomes".
   These tests run the same module under both engines and require equal
   return values, EXACT clock equality (same float-addition order, so
   0.0 tolerance), equal executed-instruction counts and equal
   block-frequency profiles. *)

module W = Jitise_workloads
module Pp = Jitise_pivpav
module Cad = Jitise_cad
module An = Jitise_analysis
module Ise = Jitise_ise
module U = Jitise_util

let check_outcomes_equal what (a : Vm.Machine.outcome) (b : Vm.Machine.outcome)
    =
  (match (a.ret, b.ret) with
  | None, None -> ()
  | Some x, Some y when Ir.Eval.equal_value x y -> ()
  | _ -> Alcotest.fail (what ^ ": return values differ"));
  Alcotest.(check (float 0.0))
    (what ^ ": native cycles") a.native_cycles b.native_cycles;
  Alcotest.(check (float 0.0)) (what ^ ": vm cycles") a.vm_cycles b.vm_cycles;
  Alcotest.(check int64)
    (what ^ ": executed instrs") a.profile.Vm.Profile.executed_instrs
    b.profile.Vm.Profile.executed_instrs;
  Alcotest.(check bool)
    (what ^ ": profiles equal") true
    (Vm.Profile.to_list a.profile = Vm.Profile.to_list b.profile)

(* Run [m] under both engines and return (reference, threaded) after
   checking the outcomes are identical. *)
let diff ?fuel ?cis ?(entry = "main") ~args what m =
  let go engine = Vm.Machine.run ?fuel ?cis ~engine m ~entry ~args in
  let r = go Vm.Machine.Reference and t = go Vm.Machine.Threaded in
  check_outcomes_equal what r t;
  (r, t)

let diff_n ?fuel ?cis ~n what m =
  diff ?fuel ?cis ~args:[ Ir.Eval.VInt (Int64.of_int n) ] what m

(* Compare [len] cells of global [name] across the two outcomes. *)
let check_global_equal what name len (a : Vm.Machine.outcome)
    (b : Vm.Machine.outcome) =
  let mem_a = Option.get a.memory and mem_b = Option.get b.memory in
  let base_a = Vm.Memory.global_base mem_a name
  and base_b = Vm.Memory.global_base mem_b name in
  for i = 0 to len - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s[%d]" what name i)
      true
      (Ir.Eval.equal_value
         (Vm.Memory.load mem_a (base_a + i))
         (Vm.Memory.load mem_b (base_b + i)))
  done

let test_diff_mode_family () =
  (* Generated SPEC-shaped program: cold config code, a live dispatcher,
     dead modes — lots of branchy integer control flow. *)
  let src =
    W.Gen.mode_family ~app:"dx" ~live:6 ~cfg:5 ~dead:4
    ^ "int main(int n) {\n\
      \  int acc = dx_startup();\n\
      \  int t;\n\
      \  for (t = 0; t < n; t = t + 1) { acc = acc + dx_step(t); }\n\
      \  return acc;\n\
       }\n"
  in
  let m = compile src in
  List.iter
    (fun n -> ignore (diff_n ~n (Printf.sprintf "mode n=%d" n) m))
    [ 0; 1; 37; 500 ]

let test_diff_phase_family () =
  (* Float kernel with global arrays: checks the float fast paths and
     that memory ends up identical, not just the return value. *)
  let src =
    W.Gen.phase_family ~prefix:"px" ~phases:3 ~width:24 ~float_ops:true
    ^ W.Gen.float_helper_family ~prefix:"fh" ~count:4
    ^ "int main(int n) {\n\
      \  px_seed(n);\n\
      \  int r;\n\
      \  for (r = 0; r < 5; r = r + 1) { px_run(); }\n\
      \  double v = fh_eval(n - (n / 4) * 4, px_a[0] + px_b[23]);\n\
      \  if (v > 0.5) { return 1; }\n\
      \  return 0;\n\
       }\n"
  in
  let m = compile src in
  List.iter
    (fun n ->
      let r, t = diff_n ~n (Printf.sprintf "phase n=%d" n) m in
      check_global_equal "phase" "px_a" 24 r t;
      check_global_equal "phase" "px_b" 24 r t)
    [ 0; 3; 11 ]

let test_diff_intrinsics () =
  (* Every MiniC-reachable intrinsic, plus implicit int->double
     promotion on the way in. *)
  let src =
    "int main(int n) {\n\
    \  double x = 0.5 + n;\n\
    \  double s = sqrt(x) + sin(x) * cos(x) + atan(x) + exp(0.1 * x)\n\
    \    + log(x + 1.0) + fabs(0.0 - x) + floor(x) + pow(x, 2.0);\n\
    \  int i = abs(0 - n) + min(n, 3) + max(n, 7);\n\
    \  if (s > 100.0) { return i + 1000; }\n\
    \  return i;\n\
     }\n"
  in
  let m = compile src in
  List.iter
    (fun n -> ignore (diff_n ~n (Printf.sprintf "intrinsics n=%d" n) m))
    [ 0; 4; 50 ]

let test_diff_recursion () =
  let m =
    compile
      "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - \
       2); }\n\
       int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; \
       } return a; }\n\
       int main(int n) { return fib(n) * 100 + gcd(n * 12, 18); }\n"
  in
  List.iter
    (fun n -> ignore (diff_n ~n (Printf.sprintf "recursion n=%d" n) m))
    [ 0; 1; 10; 15 ]

(* Hand-built Switch with a duplicate case value: both engines must
   honor first-match-wins on the textual case order. *)
let switch_module () =
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I32) ] ~ret_ty:Ir.Ty.I32
  in
  let b = Ir.Builder.create f in
  let entry = Ir.Builder.new_block b ~name:"entry" in
  let bb1 = Ir.Builder.new_block b ~name:"one" in
  let bb2 = Ir.Builder.new_block b ~name:"one_dup" in
  let bb3 = Ir.Builder.new_block b ~name:"two" in
  let bbd = Ir.Builder.new_block b ~name:"default" in
  Ir.Builder.position_at b entry;
  Ir.Builder.set_term b
    (Ir.Instr.Switch
       ( Ir.Builder.reg 0,
         bbd.Ir.Block.label,
         [
           (1L, bb1.Ir.Block.label);
           (1L, bb2.Ir.Block.label);
           (2L, bb3.Ir.Block.label);
         ] ));
  let ret_const bb v =
    Ir.Builder.position_at b bb;
    Ir.Builder.ret b (Some (Ir.Builder.ci32 v))
  in
  ret_const bb1 10;
  ret_const bb2 20;
  ret_const bb3 30;
  ret_const bbd 99;
  let m = Ir.Irmod.create ~name:"sw" in
  Ir.Irmod.add_func m (Ir.Builder.finish b);
  m

let test_diff_switch () =
  let m = switch_module () in
  List.iter
    (fun (n, expect) ->
      let r, _ = diff_n ~n (Printf.sprintf "switch n=%d" n) m in
      Alcotest.(check int) (Printf.sprintf "switch %d -> %d" n expect) expect
        (Int64.to_int
           (match r.Vm.Machine.ret with
           | Some (Ir.Eval.VInt v) -> v
           | _ -> Alcotest.fail "int expected")))
    [ (1, 10); (2, 30); (7, 99); (0, 99) ]

let test_diff_ci_call () =
  let m = ci_module () in
  let cis = mul_ci_registry () in
  ignore (diff_n ~cis ~n:6 "ci" m);
  ignore (diff_n ~cis ~n:(-3) "ci negative" m)

(* Fault parity: both engines must fault on the same inputs with the
   SAME message (messages embed block names and budgets, so this pins
   the threaded engine's error paths, not just its happy path). *)
let fault_msg ?fuel ?cis ~engine ~n m =
  try
    ignore
      (Vm.Machine.run ?fuel ?cis ~engine m ~entry:"main"
         ~args:[ Ir.Eval.VInt (Int64.of_int n) ]);
    None
  with Vm.Machine.Fault msg -> Some msg

let check_fault_parity ?fuel ?cis what ~n m =
  let r = fault_msg ?fuel ?cis ~engine:Vm.Machine.Reference ~n m
  and t = fault_msg ?fuel ?cis ~engine:Vm.Machine.Threaded ~n m in
  Alcotest.(check bool) (what ^ ": faulted") true (r <> None);
  Alcotest.(check (option string)) (what ^ ": same message") r t

(* Rejection parity: [Machine.run] verifies the module before either
   engine starts, so both raise the same [Invalid_module]; one run per
   engine suffices, since no tuning is consulted before the check.
   Returns the message, which must name [names]. *)
let check_rejected ?cis ?(args = [ Ir.Eval.VInt 1L ]) what ~names m =
  let reject engine =
    match Vm.Machine.run ?cis ~engine m ~entry:"main" ~args with
    | _ -> None
    | exception Vm.Machine.Invalid_module msg -> Some msg
  in
  let r = reject Vm.Machine.Reference in
  Alcotest.(check (option string))
    (what ^ ": same rejection") r
    (reject Vm.Machine.Threaded);
  match r with
  | None -> Alcotest.fail (what ^ ": not rejected")
  | Some msg ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (what ^ ": names " ^ names ^ " in: " ^ msg) true
        (contains msg names);
      msg

(* main(n) reads register [%2] before the instruction that defines it:
   [split] puts the read in the entry block and the definition in the
   block the entry branches to; otherwise both sit in the entry block,
   the read first. *)
let read_before_write_module ~split =
  let open Ir.Builder in
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
  in
  let b = create f in
  let entry = new_block b ~name:"entry" in
  position_at b entry;
  let early = binop b Ir.Instr.Add Ir.Ty.I64 (reg 2) (ci64 1L) in
  if split then begin
    let next = new_block b ~name:"next" in
    br b next.Ir.Block.label;
    position_at b next
  end;
  let late = binop b Ir.Instr.Mul Ir.Ty.I64 (reg 0) (ci64 3L) in
  assert (late = 2);
  ret b (Some (reg (binop b Ir.Instr.Add Ir.Ty.I64 (reg early) (reg late))));
  let m = Ir.Irmod.create ~name:"rbw" in
  Ir.Irmod.add_func m (finish b);
  m

let test_reject_read_before_write () =
  Alcotest.(check string) "within one block"
    "main/bb0: add: the definition of %2 does not dominate this use"
    (check_rejected "within one block" ~names:"%2"
       (read_before_write_module ~split:false));
  Alcotest.(check string) "across blocks"
    "main/bb0: add: the definition of %2 does not dominate this use"
    (check_rejected "across blocks" ~names:"%2"
       (read_before_write_module ~split:true))

let unknown_callee_module () =
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I32) ] ~ret_ty:Ir.Ty.I32
  in
  let b = Ir.Builder.create f in
  let bb = Ir.Builder.new_block b ~name:"entry" in
  Ir.Builder.position_at b bb;
  let r = Ir.Builder.call b Ir.Ty.I32 "nope" [ Ir.Builder.reg 0 ] in
  Ir.Builder.ret b (Some (Ir.Builder.reg r));
  let m = Ir.Irmod.create ~name:"unk" in
  Ir.Irmod.add_func m (Ir.Builder.finish b);
  m

let test_diff_fault_parity () =
  check_fault_parity "div by zero" ~n:0
    (compile "int main(int n) { return 10 / n; }");
  check_fault_parity "wild index" ~n:5000
    (compile "int a[4]; int main(int n) { return a[n]; }");
  check_fault_parity "fuel" ~fuel:10_000L ~n:0
    (compile
       "int main(int n) { while (1 == 1) { n = n + 1; } return n; }");
  check_fault_parity "unknown callee" ~n:1 (unknown_callee_module ());
  check_fault_parity "unconfigured ci" ~n:6 (ci_module ())

(* ------------------------------------------------------------------ *)
(* Tuning-knob differential: all 16 knob combinations                  *)
(* ------------------------------------------------------------------ *)

(* The sixteen (link, fuse, ci_native, regalloc) knob combinations
   under a deliberately tiny linking budget (so the escape hatch fires
   inside short loops), plus the two budget extremes under full
   tuning. *)
let all_tunings =
  List.concat_map
    (fun link ->
      List.concat_map
        (fun fuse ->
          List.concat_map
            (fun ci_native ->
              List.map
                (fun regalloc ->
                  {
                    Vm.Machine.link;
                    fuse;
                    ci_native;
                    regalloc;
                    max_linked_blocks = 3;
                  })
                [ false; true ])
            [ false; true ])
        [ false; true ])
    [ false; true ]
  @ [
      {
        Vm.Machine.link = true;
        fuse = true;
        ci_native = true;
        regalloc = true;
        max_linked_blocks = 1;
      };
      {
        Vm.Machine.link = true;
        fuse = true;
        ci_native = true;
        regalloc = true;
        max_linked_blocks = 1024;
      };
    ]

let tuning_tag (t : Vm.Machine.tuning) =
  Printf.sprintf "link=%b fuse=%b ci=%b regalloc=%b budget=%d" t.Vm.Machine.link
    t.Vm.Machine.fuse t.Vm.Machine.ci_native t.Vm.Machine.regalloc
    t.Vm.Machine.max_linked_blocks

(* One Reference run, then every tuned Threaded variant against it. *)
let diff_all_tunings ?fuel ?cis ?(entry = "main") ~args what m =
  let ref_out =
    Vm.Machine.run ?fuel ?cis ~engine:Vm.Machine.Reference m ~entry ~args
  in
  List.iter
    (fun tuning ->
      let t =
        Vm.Machine.run ?fuel ?cis ~engine:Vm.Machine.Threaded ~tuning m ~entry
          ~args
      in
      check_outcomes_equal (what ^ " [" ^ tuning_tag tuning ^ "]") ref_out t)
    all_tunings;
  ref_out

let diff_all_n ?fuel ?cis ~n what m =
  diff_all_tunings ?fuel ?cis ~args:[ Ir.Eval.VInt (Int64.of_int n) ] what m

let check_fault_parity_tunings ?fuel ?cis what ~n m =
  let r = fault_msg ?fuel ?cis ~engine:Vm.Machine.Reference ~n m in
  Alcotest.(check bool) (what ^ ": faulted") true (r <> None);
  List.iter
    (fun tuning ->
      let t =
        try
          ignore
            (Vm.Machine.run ?fuel ?cis ~engine:Vm.Machine.Threaded ~tuning m
               ~entry:"main"
               ~args:[ Ir.Eval.VInt (Int64.of_int n) ]);
          None
        with Vm.Machine.Fault msg -> Some msg
      in
      Alcotest.(check (option string))
        (what ^ " [" ^ tuning_tag tuning ^ "]")
        r t)
    all_tunings

let test_tuning_self_loop () =
  (* A single self-looping block: a linked chain repeatedly re-enters
     the same compiled block and trips the budget escape hatch. *)
  let m =
    compile
      "int main(int n) {\n\
      \  int i = 0; int acc = 0;\n\
      \  while (i < n) { acc = acc + i * 3 - 1; i = i + 1; }\n\
      \  return acc;\n\
       }\n"
  in
  List.iter
    (fun n -> ignore (diff_all_n ~n (Printf.sprintf "self loop n=%d" n) m))
    [ 0; 1; 2; 3; 4; 100 ]

let test_tuning_block_cycle () =
  (* Two alternating loop-body blocks (a mutual cycle through the loop
     header): linking follows the cycle across distinct blocks. *)
  let m =
    compile
      "int main(int n) {\n\
      \  int a = 0; int b = 1; int i = 0;\n\
      \  while (i < n) {\n\
      \    if (i - (i / 2) * 2 == 0) { a = a + b; } else { b = a + b; }\n\
      \    i = i + 1;\n\
      \  }\n\
      \  return a * 1000 + b;\n\
       }\n"
  in
  List.iter
    (fun n -> ignore (diff_all_n ~n (Printf.sprintf "block cycle n=%d" n) m))
    [ 0; 1; 2; 3; 7; 64 ]

let test_tuning_switch_heavy () =
  (* First-match-wins duplicate-case switch under every combination. *)
  let m = switch_module () in
  List.iter
    (fun n -> ignore (diff_all_n ~n (Printf.sprintf "tuned switch n=%d" n) m))
    [ 0; 1; 2; 7 ];
  (* and a dispatch-table-shaped loop: a mode dispatcher driven round
     the table, so every arm's block chain gets linked and fused *)
  let src =
    W.Gen.mode_family ~app:"tx" ~live:5 ~cfg:3 ~dead:2
    ^ "int main(int n) {\n\
      \  int acc = tx_startup();\n\
      \  int t;\n\
      \  for (t = 0; t < n; t = t + 1) { acc = acc + tx_step(t); }\n\
      \  return acc;\n\
       }\n"
  in
  let dm = compile src in
  List.iter
    (fun n -> ignore (diff_all_n ~n (Printf.sprintf "dispatch n=%d" n) dm))
    [ 0; 5; 83 ]

let test_tuning_fuel_mid_chain () =
  (* Fuel runs out in the middle of a linked chain: the fault must name
     the same function and remaining budget under every combination,
     i.e. linking must not batch fuel across block boundaries. *)
  let m =
    compile "int main(int n) { while (1 == 1) { n = n + 3; } return n; }"
  in
  List.iter
    (fun fuel ->
      check_fault_parity_tunings
        (Printf.sprintf "fuel=%Ld mid-chain" fuel)
        ~fuel ~n:0 m)
    [ 7L; 100L; 10_001L ]

let test_tuning_ci_call () =
  (* Exercises the ci_native knob on both the hit and the miss path. *)
  let m = ci_module () in
  let cis = mul_ci_registry () in
  ignore (diff_all_n ~cis ~n:6 "tuned ci" m);
  ignore (diff_all_n ~cis ~n:(-3) "tuned ci negative" m)

(* ------------------------------------------------------------------ *)
(* CI bodies: spliced typed lanes against the ci_eval oracle           *)
(* ------------------------------------------------------------------ *)

(* A call-site operand: a register of the given type derived from
   main's argument, a constant, or the operand at an earlier position
   again (the same register passed twice). *)
type ci_arg = Of of Ir.Ty.t | K of Ir.Instr.operand | Again of int

(* main(n : i64) derives one register per [Of] operand from [n], calls
   ci0 on the operands and returns its [ret]-typed result.  [stray]
   adds the result to a register just past main's own. *)
let ci_site_module ?(stray = false) ~ret (args : ci_arg list) =
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:ret
  in
  let b = Ir.Builder.create f in
  Ir.Builder.position_at b (Ir.Builder.new_block b ~name:"entry");
  let r = Ir.Builder.reg and n = Ir.Builder.reg 0 in
  let derive = function
    | Ir.Ty.I64 -> n
    | Ir.Ty.I1 -> r (Ir.Builder.icmp b Ir.Instr.Islt n (Ir.Builder.ci64 3L))
    | (Ir.Ty.F32 | Ir.Ty.F64) as ty ->
        let k =
          if ty = Ir.Ty.F32 then Ir.Builder.cf32 0.37 else Ir.Builder.cf64 0.37
        in
        r
          (Ir.Builder.binop b Ir.Instr.Fmul ty
             (r (Ir.Builder.cast b Ir.Instr.Sitofp ty n))
             k)
    | ty ->
        (* a narrower int: the low bits of a product, so sign and
           truncation vary with n *)
        let p =
          Ir.Builder.binop b Ir.Instr.Mul Ir.Ty.I64 n
            (Ir.Builder.ci64 0x9E3779B97F4A7C15L)
        in
        r (Ir.Builder.cast b Ir.Instr.Trunc ty (r p))
  in
  let placed = ref [] in
  List.iter
    (fun a ->
      let op =
        match a with
        | Of ty -> derive ty
        | K op -> op
        | Again k -> List.nth (List.rev !placed) k
      in
      placed := op :: !placed)
    args;
  let d =
    Ir.Builder.add b ret (Ir.Instr.Ci_call (0, List.rev !placed))
  in
  let d =
    if stray then
      let past = f.Ir.Func.next_reg + 1 in
      Ir.Builder.binop b Ir.Instr.Add ret (r d) (r past)
    else d
  in
  Ir.Builder.ret b (Some (r d));
  let m = Ir.Irmod.create ~name:"cisite" in
  Ir.Irmod.add_func m (Ir.Builder.finish b);
  m

type ci_case = {
  cc_name : string;
  cc_body : Vm.Machine.ci_body;
  cc_args : ci_arg list;
  cc_ret : Ir.Ty.t;  (** the call's destination type *)
  cc_splices : bool;  (** compiled inline when [ci_native] is on *)
}

let ci_case ?args ?(ret = Ir.Ty.Void) ?(tweak = Fun.id) ~splices name inputs
    build =
  let body = tweak (build_ci_body inputs build) in
  let root_ty =
    match
      Array.find_opt
        (fun (i : Ir.Instr.t) -> i.Ir.Instr.id = body.Vm.Machine.cb_root)
        body.Vm.Machine.cb_nodes
    with
    | Some i -> i.Ir.Instr.ty
    | None -> Ir.Ty.I32
  in
  {
    cc_name = name;
    cc_body = body;
    cc_args =
      (match args with Some a -> a | None -> List.map (fun t -> Of t) inputs);
    cc_ret = (if ret = Ir.Ty.Void then root_ty else ret);
    cc_splices = splices;
  }

module B = Ir.Builder

(* Every integer binop over [ty], chained so each result feeds the
   next; divisors are forced odd, so only the shapes below divide by
   zero. *)
let int_chain ty b =
  let r = B.reg and k v = Ir.Instr.Const (Ir.Instr.Cint (v, ty)) in
  let bin op x y = B.binop b op ty x y in
  let x = r 0 and y = r 1 in
  let a = bin Ir.Instr.Add x y in
  let s = bin Ir.Instr.Sub (r a) x in
  let m = bin Ir.Instr.Mul (r s) y in
  let an = bin Ir.Instr.And (r m) (k 0x5a5aL) in
  let o = bin Ir.Instr.Or (r an) x in
  let xo = bin Ir.Instr.Xor (r o) y in
  let sh = bin Ir.Instr.Shl (r xo) (k 3L) in
  let l = bin Ir.Instr.Lshr (r sh) y in
  let ash = bin Ir.Instr.Ashr (r l) (k 1L) in
  let odd v = r (bin Ir.Instr.Or v (k 1L)) in
  let ud = bin Ir.Instr.Udiv (r ash) (odd y) in
  let ur = bin Ir.Instr.Urem (r ud) (odd x) in
  let sd = bin Ir.Instr.Sdiv (r ur) (k 3L) in
  bin Ir.Instr.Srem (r sd) (odd (r xo))

let float_chain ty b =
  let r = B.reg in
  let k v =
    Ir.Instr.Const (Ir.Instr.Cfloat (v, ty))
  in
  let bin op x y = B.binop b op ty x y in
  let a = bin Ir.Instr.Fadd (r 0) (r 1) in
  let s = bin Ir.Instr.Fsub (r a) (k 0.1) in
  let m = bin Ir.Instr.Fmul (r s) (r 1) in
  bin Ir.Instr.Fdiv (r m) (r 0)

let ci_cases =
  let r = B.reg and i32 = Ir.Ty.I32 and i64 = Ir.Ty.I64 in
  let f64 = Ir.Ty.F64 and f32 = Ir.Ty.F32 and i1 = Ir.Ty.I1 in
  let i8 = Ir.Ty.I8 in
  let mul b = B.binop b Ir.Instr.Mul i32 (r 0) (r 1) in
  [
    (* ---- spliced ---- *)
    ci_case ~splices:true "int chain i64" [ i64; i64 ] (int_chain i64);
    ci_case ~splices:true "int chain i32" [ i32; i32 ] (int_chain i32);
    ci_case ~splices:true "int chain i8" [ i8; i8 ] (int_chain i8);
    ci_case ~splices:true "sdiv by zero" [ i64; i64 ] (fun b ->
        B.binop b Ir.Instr.Sdiv i64 (r 0) (r 1));
    ci_case ~splices:true "float chain f64" [ f64; f64 ] (float_chain f64);
    ci_case ~splices:true "float chain f32" [ f32; f32 ] (float_chain f32);
    ci_case ~splices:true "compares" [ i32; i32; f64; f64 ] (fun b ->
        let acc = ref None in
        let fold c =
          acc :=
            Some
              (match !acc with
              | None -> c
              | Some a -> B.binop b Ir.Instr.Xor i1 (r a) (r c))
        in
        List.iter
          (fun p -> fold (B.icmp b p (r 0) (r 1)))
          Ir.Instr.[ Ieq; Ine; Islt; Isle; Isgt; Isge; Iult; Iule; Iugt; Iuge ];
        List.iter
          (fun p -> fold (B.fcmp b p (r 2) (r 3)))
          Ir.Instr.[ Foeq; Fone; Folt; Fole; Fogt; Foge ];
        Option.get !acc);
    ci_case ~splices:true "cross-class casts" [ i64; f64; f32; i8 ] (fun b ->
        let c k ty x = B.cast b k ty x in
        let t1 = c Ir.Instr.Trunc Ir.Ty.I16 (r 0) in
        let t2 = c Ir.Instr.Sext i64 (r t1) in
        let t3 = c Ir.Instr.Sitofp f32 (r t2) in
        let t4 = c Ir.Instr.Fpext f64 (r t3) in
        let t5 = B.binop b Ir.Instr.Fadd f64 (r t4) (r 1) in
        let t6 = c Ir.Instr.Fptosi i32 (r t5) in
        let t7 = c Ir.Instr.Zext i64 (r t6) in
        let t8 = c Ir.Instr.Bitcast f64 (r t7) in
        let t9 = c Ir.Instr.Fptrunc f32 (r t8) in
        let t10 = B.binop b Ir.Instr.Fmul f32 (r t9) (r 2) in
        let t11 = c Ir.Instr.Bitcast i32 (r t10) in
        let t12 = c Ir.Instr.Zext i32 (r 3) in
        let t13 = c Ir.Instr.Bitcast i64 (r 1) in
        let t14 = c Ir.Instr.Trunc i32 (r t13) in
        let t15 = B.binop b Ir.Instr.Xor i32 (r t11) (r t12) in
        B.binop b Ir.Instr.Add i32 (r t15) (r t14));
    ci_case ~splices:true "select" [ i1; i32; i32; f64; f64 ] (fun b ->
        let select ty c x y = B.add b ty (Ir.Instr.Select (c, x, y)) in
        let s1 = select i32 (r 0) (r 1) (r 2) in
        let s2 = select f64 (r 0) (r 3) (B.cf64 (-2.5)) in
        let s3 = B.cast b Ir.Instr.Fptosi i32 (r s2) in
        let s4 =
          select i32 (Ir.Instr.Const (Ir.Instr.Cint (1L, i1))) (r s3) (B.ci32 9)
        in
        B.binop b Ir.Instr.Add i32 (r s1) (r s4));
    ci_case ~splices:true "constant operands" [ i32; i32; f64 ]
      ~args:[ Of i32; K (B.ci32 (-5)); K (B.cf64 2.5) ]
      (fun b ->
        let c = B.cast b Ir.Instr.Fptosi i32 (r 2) in
        let m = mul b in
        B.binop b Ir.Instr.Sub i32 (r m) (r c));
    ci_case ~splices:true "one register at two positions" [ i32; i32 ]
      ~args:[ Of i32; Again 0 ] mul;
    ci_case ~splices:true "input listed twice: the last wins" [ i32 ]
      ~args:[ K (B.ci32 1000); Of i32 ]
      ~tweak:(fun body ->
        { body with Vm.Machine.cb_inputs = [| (0, i32); (0, i32) |] })
      (fun b -> B.binop b Ir.Instr.Add i32 (r 0) (B.ci32 1));
    (* ---- the boxed ci_eval seam ---- *)
    ci_case ~splices:false "too few operands" [ i32; i32 ] ~args:[ Of i32 ] mul;
    ci_case ~splices:false "too many operands" [ i32; i32 ]
      ~args:[ Of i32; Of i32; Of i32 ] mul;
    ci_case ~splices:false "float register to an int input" [ i32; i32 ]
      ~args:[ Of f64; Of i32 ] mul;
    ci_case ~splices:false "static type differs" [ i32; i32 ]
      ~args:[ Of i64; Of i32 ] mul;
    ci_case ~splices:false "unbound register" [ i32 ] (fun b ->
        B.binop b Ir.Instr.Add i32 (r 0) (r 7));
    ci_case ~splices:false "reads a later node" [ i32 ]
      ~tweak:(fun body ->
        let nodes = Array.copy body.Vm.Machine.cb_nodes in
        let later = nodes.(1).Ir.Instr.id in
        nodes.(0) <-
          {
            (nodes.(0)) with
            Ir.Instr.kind = Ir.Instr.Binop (Ir.Instr.Add, r 0, r later);
          };
        { body with Vm.Machine.cb_nodes = nodes })
      (fun b ->
        let a = B.binop b Ir.Instr.Add i32 (r 0) (B.ci32 1) in
        B.binop b Ir.Instr.Mul i32 (r a) (B.ci32 3));
    ci_case ~splices:false "infeasible node kind" [ i32 ] (fun b ->
        let p = B.alloca b i32 1 in
        let a = B.binop b Ir.Instr.Add i32 (r 0) (r p) in
        a);
    ci_case ~splices:false "root not last" [ i32 ]
      ~tweak:(fun body ->
        {
          body with
          Vm.Machine.cb_root = body.Vm.Machine.cb_nodes.(0).Ir.Instr.id;
        })
      (fun b ->
        let a = B.binop b Ir.Instr.Add i32 (r 0) (B.ci32 1) in
        B.binop b Ir.Instr.Mul i32 (r a) (B.ci32 3));
    ci_case ~splices:false "result class differs from its type" [ f64; f64 ]
      ~ret:f64
      (fun b -> B.binop b Ir.Instr.Fadd i32 (r 0) (r 1));
    ci_case ~splices:false "duplicate node ids" [ i32 ]
      ~tweak:(fun body ->
        let nodes = Array.copy body.Vm.Machine.cb_nodes in
        nodes.(1) <- { (nodes.(1)) with Ir.Instr.id = nodes.(0).Ir.Instr.id };
        {
          body with
          Vm.Machine.cb_nodes = nodes;
          cb_root = nodes.(0).Ir.Instr.id;
        })
      (fun b ->
        let a = B.binop b Ir.Instr.Add i32 (r 0) (B.ci32 1) in
        B.binop b Ir.Instr.Mul i32 (r a) (B.ci32 3));
  ]

(* A run's observable result: the outcome, or the fault it raised. *)
let ci_result ~cis ~engine ?tuning m n =
  match
    Vm.Machine.run ~cis ~engine ?tuning m ~entry:"main"
      ~args:[ Ir.Eval.VInt n ]
  with
  | o -> Ok o
  | exception Vm.Machine.Fault msg -> Error ("fault: " ^ msg)
  | exception Invalid_argument msg -> Error ("invalid: " ^ msg)

let test_tuning_ci_bodies () =
  List.iter
    (fun c ->
      let calls = ref 0 in
      let cis = Vm.Machine.empty_cis () in
      let eval = Core.Adapt.eval_body c.cc_body in
      Hashtbl.replace cis 0
        {
          Vm.Machine.ci_eval =
            (fun args ->
              incr calls;
              eval args);
          ci_cycles = 3;
          ci_body = Some c.cc_body;
        };
      let m = ci_site_module ~ret:c.cc_ret c.cc_args in
      List.iter
        (fun n ->
          let what = Printf.sprintf "%s n=%Ld" c.cc_name n in
          let ref_out = ci_result ~cis ~engine:Vm.Machine.Reference m n in
          List.iter
            (fun tuning ->
              let what = what ^ " [" ^ tuning_tag tuning ^ "]" in
              let before = !calls in
              (match
                 ( ref_out,
                   ci_result ~cis ~engine:Vm.Machine.Threaded ~tuning m n )
               with
              | Ok a, Ok b -> check_outcomes_equal what a b
              | Error a, Error b -> Alcotest.(check string) what a b
              | Ok _, Error e -> Alcotest.fail (what ^ ": only tuned: " ^ e)
              | Error e, Ok _ -> Alcotest.fail (what ^ ": only reference: " ^ e));
              let boxed = !calls > before in
              Alcotest.(check bool)
                (what ^ ": takes the ci_eval seam")
                (not (tuning.Vm.Machine.ci_native && c.cc_splices))
                boxed)
            all_tunings)
        [ 0L; 1L; -1L; 2L; 3L; 7L; 1000L; -123456789L; Int64.max_int ])
    ci_cases;
  (* the parity cases must actually fault, in the caller's block *)
  let fault_of name n =
    let c = List.find (fun c -> c.cc_name = name) ci_cases in
    let m = ci_site_module ~ret:c.cc_ret c.cc_args in
    match
      ci_result ~cis:(body_registry [ c.cc_body ]) ~engine:Vm.Machine.Threaded m
        n
    with
    | Error e -> e
    | Ok _ -> "no fault"
  in
  Alcotest.(check string) "sdiv by zero" "fault: @main/bb0: division by zero"
    (fault_of "sdiv by zero" 0L);
  Alcotest.(check string) "float register to an int input"
    "fault: @main/bb0: expected an integer value"
    (fault_of "float register to an int input" 5L);
  (* a caller reading a register past its own, where a spliced body's
     fresh registers would sit, is rejected before anything runs *)
  let c = List.find (fun c -> c.cc_name = "int chain i32") ci_cases in
  let m = ci_site_module ~stray:true ~ret:c.cc_ret c.cc_args in
  ignore
    (check_rejected ~cis:(body_registry [ c.cc_body ])
       ~args:[ Ir.Eval.VInt 5L ] "stray register" ~names:"undefined register"
       m)

let test_tuning_load_sink_faults () =
  (* A fusable single-use load with a wild computed index: the sunk
     load's fault must carry the same block-level message. *)
  check_fault_parity_tunings "sunk load wild index" ~n:5000
    (compile "int a[4]; int main(int n) { return a[n * 3 + 1] + 1; }");
  check_fault_parity_tunings "sunk load null" ~n:(-1000)
    (compile "int a[4]; int main(int n) { return a[n] * 2; }");
  (* two single-use loads feeding one add: each is a barrier inside the
     other's sink window, so at most one sinks; the reported address
     must stay the textually first load's under every combination *)
  check_fault_parity_tunings "two-load barrier" ~n:5000
    (compile "int a[4]; int b[4]; int main(int n) { return a[n] + b[0]; }");
  (* a store between a load and its consumer is a barrier too *)
  check_fault_parity_tunings "store barrier" ~n:5000
    (compile
       "int a[4]; int b[4];\n\
        int main(int n) { int x = a[n]; b[0] = 7; return x + 1; }\n")

(* Give the phis of [block], built with no incoming edges, their
   [(phi, incoming)] edges once the back-edge registers exist. *)
let wire_phis block incoming =
  Ir.Block.set_instrs block
    (List.map
       (fun (i : Ir.Instr.t) ->
         match List.assoc_opt i.Ir.Instr.id incoming with
         | Some inc -> { i with Ir.Instr.kind = Ir.Instr.Phi inc }
         | None -> i)
       block.Ir.Block.instrs)

(* A loop header the MiniC frontend never emits: a 3-cycle of i64 phis
   (a <- b, b <- c, c <- a), a swapped pair of f64 phis and a ptr phi
   walking a global, all fed from the back edge.  Parallel assignment
   must hold per register class (typed staging and commit) and on the
   all-boxed compile alike. *)
let phi_cycle_module () =
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
  in
  let b = Ir.Builder.create f in
  let entry = Ir.Builder.new_block b ~name:"entry" in
  let header = Ir.Builder.new_block b ~name:"header" in
  let body = Ir.Builder.new_block b ~name:"body" in
  let exit = Ir.Builder.new_block b ~name:"exit" in
  let r = Ir.Builder.reg in
  Ir.Builder.position_at b entry;
  let base = Ir.Builder.add b Ir.Ty.Ptr (Ir.Instr.Gaddr "cells") in
  Ir.Builder.br b header.Ir.Block.label;
  (* Phis first with no incoming edges; they are wired below, once the
     back-edge registers exist. *)
  Ir.Builder.position_at b header;
  let phi ty = Ir.Builder.add b ty (Ir.Instr.Phi []) in
  let pa = phi Ir.Ty.I64 and pb = phi Ir.Ty.I64 and pc = phi Ir.Ty.I64 in
  let px = phi Ir.Ty.F64 and py = phi Ir.Ty.F64 in
  let pp = phi Ir.Ty.Ptr and pi = phi Ir.Ty.I64 in
  let cond = Ir.Builder.icmp b Ir.Instr.Islt (r pi) (r 0) in
  Ir.Builder.cond_br b (r cond) body.Ir.Block.label exit.Ir.Block.label;
  Ir.Builder.position_at b body;
  Ir.Builder.store b (r pi) (r pp);
  let q = Ir.Builder.gep b (r pp) (Ir.Builder.ci64 1L) in
  let i1 = Ir.Builder.binop b Ir.Instr.Add Ir.Ty.I64 (r pi) (Ir.Builder.ci64 1L) in
  Ir.Builder.br b header.Ir.Block.label;
  let e = entry.Ir.Block.label and l = body.Ir.Block.label in
  let incoming =
    [
      (pa, [ (e, Ir.Builder.ci64 1L); (l, r pb) ]);
      (pb, [ (e, Ir.Builder.ci64 2L); (l, r pc) ]);
      (pc, [ (e, Ir.Builder.ci64 3L); (l, r pa) ]);
      (px, [ (e, Ir.Builder.cf64 0.5); (l, r py) ]);
      (py, [ (e, Ir.Builder.cf64 (-1.25)); (l, r px) ]);
      (pp, [ (e, r base); (l, r q) ]);
      (pi, [ (e, Ir.Builder.ci64 0L); (l, r i1) ]);
    ]
  in
  wire_phis header incoming;
  (* exit: a*100 + b*10 + c + 1000*fptosi(8x) + 100000*fptosi(8y)
     + 10^7 * cells[trips] (the cell past the last store) *)
  Ir.Builder.position_at b exit;
  let mul k v = Ir.Builder.binop b Ir.Instr.Mul Ir.Ty.I64 (Ir.Builder.ci64 k) v in
  let add x y = Ir.Builder.binop b Ir.Instr.Add Ir.Ty.I64 (r x) (r y) in
  let scaled v k =
    let f8 =
      Ir.Builder.binop b Ir.Instr.Fmul Ir.Ty.F64 v (Ir.Builder.cf64 8.0)
    in
    mul k (r (Ir.Builder.cast b Ir.Instr.Fptosi Ir.Ty.I64 (r f8)))
  in
  let ints = add (add (mul 100L (r pa)) (mul 10L (r pb))) pc in
  let floats = add (scaled (r px) 1000L) (scaled (r py) 100000L) in
  let cell = mul 10_000_000L (r (Ir.Builder.load b Ir.Ty.I64 (r pp))) in
  Ir.Builder.ret b (Some (r (add (add ints floats) cell)));
  let m = Ir.Irmod.create ~name:"phicycle" in
  Ir.Irmod.add_global m
    {
      Ir.Irmod.gname = "cells";
      gty = Ir.Ty.I64;
      gsize = 16;
      ginit = Ir.Irmod.Ints (Array.init 16 (fun k -> Int64.of_int (k + 1)));
    };
  Ir.Irmod.add_func m (Ir.Builder.finish b);
  m

let test_tuning_phi_cycle () =
  let m = phi_cycle_module () in
  Alcotest.(check int) "verifier-valid" 0
    (List.length (Ir.Verifier.check_module m));
  List.iter
    (fun n ->
      let out = diff_all_n ~n (Printf.sprintf "phi cycle n=%d" n) m in
      (* the cycle has period 3 and the float pair period 2 *)
      let abc = [| 123; 231; 312 |].(n mod 3) in
      let fx, fy = if n mod 2 = 0 then (4, -10) else (-10, 4) in
      Alcotest.(check int)
        (Printf.sprintf "phi cycle n=%d value" n)
        ((10_000_000 * (n + 1)) + (100000 * fy) + (1000 * fx) + abc)
        (ret_int out))
    [ 0; 1; 2; 3; 4; 5; 6; 13 ]

(* A loop header whose phi row is [m] phis of one register lane (the
   loop counts in the "ctr" global, so no counter phi joins the row).
   From the entry phi [k] takes a start value; from the body it takes
   its own value stepped by [k + 1], except that [conflict = (reader,
   sibling)] makes phi [reader] take phi [sibling]'s destination
   instead ([reader = sibling] is a self-read, which needs no
   staging).  [missing] drops the body entries of the phis it lists.  The
   exit returns a hash of every phi's value.  Blocks: entry bb0,
   header bb1, body bb2, exit bb3. *)
type lane = Int_lane | Float_lane | Ptr_lane

let lane_name = function
  | Int_lane -> "int"
  | Float_lane -> "float"
  | Ptr_lane -> "ptr"

let phi_row_module ?conflict ?(missing = []) ~lane m =
  let open Ir.Builder in
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
  in
  let b = create f in
  let entry = new_block b ~name:"entry" in
  let header = new_block b ~name:"header" in
  let body = new_block b ~name:"body" in
  let exit = new_block b ~name:"exit" in
  position_at b entry;
  let ctr = add b Ir.Ty.Ptr (Ir.Instr.Gaddr "ctr") in
  let base = add b Ir.Ty.Ptr (Ir.Instr.Gaddr "cells") in
  let start k =
    match lane with
    | Int_lane -> ci64 (Int64.of_int (10 * (k + 1)))
    | Float_lane -> cf64 (0.5 *. float_of_int (k + 1))
    | Ptr_lane -> reg (gep b (reg base) (ci64 (Int64.of_int k)))
  in
  let starts = List.init m start in
  br b header.Ir.Block.label;
  position_at b header;
  let ty =
    match lane with
    | Int_lane -> Ir.Ty.I64
    | Float_lane -> Ir.Ty.F64
    | Ptr_lane -> Ir.Ty.Ptr
  in
  let phis = Array.init m (fun _ -> add b ty (Ir.Instr.Phi [])) in
  let c = load b Ir.Ty.I64 (reg ctr) in
  let cond = icmp b Ir.Instr.Islt (reg c) (reg 0) in
  cond_br b (reg cond) body.Ir.Block.label exit.Ir.Block.label;
  position_at b body;
  let c1 = binop b Ir.Instr.Add Ir.Ty.I64 (reg c) (ci64 1L) in
  store b (reg c1) (reg ctr);
  let step k =
    let p = reg phis.(k) and d = k + 1 in
    match lane with
    | Int_lane -> binop b Ir.Instr.Add Ir.Ty.I64 p (ci64 (Int64.of_int d))
    | Float_lane -> binop b Ir.Instr.Fadd Ir.Ty.F64 p (cf64 (float_of_int d))
    | Ptr_lane -> gep b p (ci64 1L)
  in
  let steps = Array.init m step in
  br b header.Ir.Block.label;
  let back k =
    match conflict with
    | Some (reader, sibling) when k = reader -> reg phis.(sibling)
    | _ -> reg steps.(k)
  in
  let incoming =
    List.mapi
      (fun k s ->
        let e = (entry.Ir.Block.label, s) in
        ( phis.(k),
          if List.mem k missing then [ e ]
          else [ e; (body.Ir.Block.label, back k) ] ))
      starts
  in
  wire_phis header incoming;
  position_at b exit;
  let value k =
    let p = reg phis.(k) in
    match lane with
    | Int_lane -> p
    | Float_lane ->
        reg
          (cast b Ir.Instr.Fptosi Ir.Ty.I64
             (reg (binop b Ir.Instr.Fmul Ir.Ty.F64 p (cf64 4.0))))
    | Ptr_lane -> reg (load b Ir.Ty.I64 p)
  in
  let acc =
    List.fold_left
      (fun acc k ->
        let a = binop b Ir.Instr.Mul Ir.Ty.I64 acc (ci64 31L) in
        reg (binop b Ir.Instr.Add Ir.Ty.I64 (reg a) (value k)))
      (ci64 0L) (List.init m Fun.id)
  in
  ret b (Some acc);
  let md = Ir.Irmod.create ~name:"phirow" in
  Ir.Irmod.add_global md
    {
      Ir.Irmod.gname = "ctr";
      gty = Ir.Ty.I64;
      gsize = 1;
      ginit = Ir.Irmod.Ints [| 0L |];
    };
  Ir.Irmod.add_global md
    {
      Ir.Irmod.gname = "cells";
      gty = Ir.Ty.I64;
      gsize = 32;
      ginit =
        Ir.Irmod.Ints (Array.init 32 (fun i -> Int64.of_int ((7 * i) + 1)));
    };
  Ir.Irmod.add_func md (finish b);
  md

(* The boxed lane is every row under the all-boxed tunings: a typed
   register is boxed only there, and a [Void] one is never read. *)
let phi_lanes = [ Int_lane; Float_lane; Ptr_lane ]

(* Rows with exactly one entry that reads a sibling's destination, the
   sibling before or after the reader; such a row must stage.  The
   self-read rows take the direct path. *)
let test_tuning_phi_row_conflicts () =
  List.iter
    (fun lane ->
      List.iter
        (fun (m, reader, sibling) ->
          let md = phi_row_module ~conflict:(reader, sibling) ~lane m in
          List.iter
            (fun n ->
              ignore
                (diff_all_n ~n
                   (Printf.sprintf "%s row of %d, phi %d reads phi %d, n=%d"
                      (lane_name lane) m reader sibling n)
                   md))
            [ 0; 1; 2; 5 ])
        [
          (2, 1, 0); (2, 0, 1); (3, 2, 0); (3, 0, 2); (3, 1, 1);
          (4, 3, 1); (4, 1, 3); (5, 4, 2); (5, 2, 4);
        ])
    phi_lanes

(* A predecessor without an entry for some phi of a multi-phi row is
   rejected before anything runs, whichever phi lacks it, and also when
   no phi of the row has one. *)
let test_tuning_phi_row_missing_entry () =
  List.iter
    (fun lane ->
      List.iter
        (fun (m, missing) ->
          let md = phi_row_module ~missing ~lane m in
          let what =
            Printf.sprintf "%s row of %d, phis [%s] have no body entry"
              (lane_name lane) m
              (String.concat ";" (List.map string_of_int missing))
          in
          ignore
            (check_rejected what
               ~names:"incoming labels do not match predecessors"
               md))
        [
          (2, [ 0 ]); (2, [ 1 ]); (3, [ 1 ]); (3, [ 2 ]); (2, [ 0; 1 ]);
          (3, [ 0; 1; 2 ]);
        ])
    phi_lanes

(* Coalescing makes a row read a sibling's slot without naming the
   sibling.  main(n): entry bb0 defines [x] and branches on [n > 0] to
   bb1 (defines [z]) or bb2 (defines [y]); the join bb3 has
   [p1 = phi [bb1: x, bb2: y]] and [p2 = phi [bb1: z, bb2: x]].  [x]
   joins [p1] and [z] joins [p2], so the row from bb1 moves nothing, and
   the row from bb2 writes [p1]'s slot and reads [x]'s — the same slot:
   it must stage, or [p2] reads [y]. *)
let coalesced_conflict_module ~lane =
  let open Ir.Builder in
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
  in
  let b = create f in
  let blocks =
    Array.map (fun name -> new_block b ~name) [| "entry"; "a"; "b"; "join" |]
  in
  let at k = position_at b blocks.(k) in
  at 0;
  let base = add b Ir.Ty.Ptr (Ir.Instr.Gaddr "cells") in
  let value k =
    match lane with
    | Int_lane ->
        binop b Ir.Instr.Mul Ir.Ty.I64 (reg 0) (ci64 (Int64.of_int (k + 2)))
    | Float_lane ->
        let x = cast b Ir.Instr.Sitofp Ir.Ty.F64 (reg 0) in
        binop b Ir.Instr.Fadd Ir.Ty.F64 (reg x) (cf64 (0.25 *. float_of_int k))
    | Ptr_lane -> gep b (reg base) (ci64 (Int64.of_int (3 * k)))
  in
  let x = value 1 in
  let c = icmp b Ir.Instr.Isgt (reg 0) (ci64 0L) in
  cond_br b (reg c) 1 2;
  at 1;
  let z = value 2 in
  br b 3;
  at 2;
  let y = value 3 in
  br b 3;
  at 3;
  let ty =
    match lane with
    | Int_lane -> Ir.Ty.I64
    | Float_lane -> Ir.Ty.F64
    | Ptr_lane -> Ir.Ty.Ptr
  in
  let p1 = add b ty (Ir.Instr.Phi [ (1, reg x); (2, reg y) ]) in
  let p2 = add b ty (Ir.Instr.Phi [ (1, reg z); (2, reg x) ]) in
  let int_of p =
    match lane with
    | Int_lane -> reg p
    | Float_lane ->
        reg
          (cast b Ir.Instr.Fptosi Ir.Ty.I64
             (reg (binop b Ir.Instr.Fmul Ir.Ty.F64 (reg p) (cf64 4.0))))
    | Ptr_lane -> reg (load b Ir.Ty.I64 (reg p))
  in
  let hi = binop b Ir.Instr.Mul Ir.Ty.I64 (int_of p1) (ci64 1000L) in
  ret b (Some (reg (binop b Ir.Instr.Add Ir.Ty.I64 (reg hi) (int_of p2))));
  let m = Ir.Irmod.create ~name:"coalesced" in
  Ir.Irmod.add_global m
    {
      Ir.Irmod.gname = "cells";
      gty = Ir.Ty.I64;
      gsize = 16;
      ginit = Ir.Irmod.Ints (Array.init 16 (fun i -> Int64.of_int (i + 1)));
    };
  let f = finish b in
  Ir.Irmod.add_func m f;
  (m, f, (x, y, z, p1, p2))

let test_tuning_coalesced_conflict () =
  List.iter
    (fun lane ->
      let m, f, (x, y, z, p1, p2) = coalesced_conflict_module ~lane in
      let c = Ir.Coalesce.classes (Ir.Coalesce.scratch ()) f in
      Alcotest.(check (array int))
        (lane_name lane ^ ": classes")
        (Array.of_list (List.sort compare [ x; z; p1; p2 ]))
        c.Ir.Coalesce.members;
      let rep r =
        let k = ref 0 in
        while c.Ir.Coalesce.members.(!k) <> r do incr k done;
        c.Ir.Coalesce.reps.(!k)
      in
      Alcotest.(check bool)
        (lane_name lane ^ ": x joins p1, z joins p2, y none")
        true
        (rep x = rep p1 && rep z = rep p2 && rep x <> rep z
        && not (Array.mem y c.Ir.Coalesce.members));
      List.iter
        (fun n ->
          ignore
            (diff_all_n ~n
               (Printf.sprintf "%s coalesced conflict n=%d" (lane_name lane) n)
               m))
        [ -1; 0; 1; 5 ])
    phi_lanes

(* A [Gaddr] of a global the module does not declare is rejected
   before anything runs, in both engines. *)
let test_reject_unknown_global () =
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
  in
  let b = Ir.Builder.create f in
  Ir.Builder.position_at b (Ir.Builder.new_block b ~name:"entry");
  let g = Ir.Builder.add b Ir.Ty.Ptr (Ir.Instr.Gaddr "nowhere") in
  Ir.Builder.ret b
    (Some (Ir.Builder.reg (Ir.Builder.load b Ir.Ty.I64 (Ir.Builder.reg g))));
  let m = Ir.Irmod.create ~name:"unknown_global" in
  Ir.Irmod.add_func m (Ir.Builder.finish b);
  Alcotest.(check string) "message"
    "main/bb0: gaddr %1 names unknown global @nowhere"
    (check_rejected "unknown global" ~names:"@nowhere" m)

(* ------------------------------------------------------------------ *)
(* Address fusion: a gep folded into the loads and stores it feeds     *)
(* ------------------------------------------------------------------ *)

(* The address-fusion windows ([gep+load], [gep+store]) that compiling
   [m] under [default_tuning] counts, by one run of main(1) (which may
   fault). *)
let gep_windows ?cis m =
  Vm.Machine.reset_fusion_stats ();
  (try
     ignore
       (Vm.Machine.run ?cis ~engine:Vm.Machine.Threaded m ~entry:"main"
          ~args:[ Ir.Eval.VInt 1L ])
   with Vm.Machine.Fault _ -> ());
  let w =
    List.filter
      (fun (p, _) -> p = "gep+load" || p = "gep+store")
      (Vm.Machine.fusion_stats ())
  in
  Vm.Machine.reset_fusion_stats ();
  w

(* An i64 global "cells" of [size] cells holding [1, 4, 9, ...]. *)
let add_square_cells m size =
  Ir.Irmod.add_global m
    {
      Ir.Irmod.gname = "cells";
      gty = Ir.Ty.I64;
      gsize = size;
      ginit =
        Ir.Irmod.Ints
          (Array.init size (fun i -> Int64.of_int ((i + 1) * (i + 1))));
    }

(* main(n) loops [i] over [0, n) (entry bb0, header bb1, body bb2,
   exit bb3) and, in the body, takes [g = gep cells, i], then
   [i1 = i + 1] — [update] builds it from [cells] and [i] — and then
   reads or writes cell [g] ([write]: writes [acc + 1] there).  [i] and [i1] are
   one phi-congruence class, so [i1] takes [i]'s slot once the gep has
   read [i]: a fold that ignored the write would address cell [i + 1].
   With [use_first] the memory op comes before the update and folds. *)
let slot_hazard_module
    ?(update =
      fun b _ i ->
        Ir.Builder.binop b Ir.Instr.Add Ir.Ty.I64 i (Ir.Builder.ci64 1L))
    ~use_first ~write () =
  let open Ir.Builder in
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
  in
  let b = create f in
  let blocks =
    Array.map (fun name -> new_block b ~name)
      [| "entry"; "header"; "body"; "exit" |]
  in
  position_at b blocks.(0);
  let cells = add b Ir.Ty.Ptr (Ir.Instr.Gaddr "cells") in
  br b 1;
  position_at b blocks.(1);
  let i = add b Ir.Ty.I64 (Ir.Instr.Phi []) in
  let acc = add b Ir.Ty.I64 (Ir.Instr.Phi []) in
  let c = icmp b Ir.Instr.Islt (reg i) (reg 0) in
  cond_br b (reg c) 2 3;
  position_at b blocks.(2);
  let g = gep b (reg cells) (reg i) in
  let mem () =
    if write then begin
      let v = binop b Ir.Instr.Add Ir.Ty.I64 (reg acc) (ci64 1L) in
      store b (reg v) (reg g);
      v
    end
    else load b Ir.Ty.I64 (reg g)
  in
  let x, i1 =
    if use_first then
      let x = mem () in
      (x, update b cells (reg i))
    else
      let i1 = update b cells (reg i) in
      (mem (), i1)
  in
  let h = binop b Ir.Instr.Mul Ir.Ty.I64 (reg acc) (ci64 31L) in
  let acc1 = binop b Ir.Instr.Add Ir.Ty.I64 (reg h) (reg x) in
  br b 1;
  wire_phis blocks.(1)
    [
      (i, [ (0, ci64 0L); (2, reg i1) ]); (acc, [ (0, ci64 0L); (2, reg acc1) ]);
    ];
  position_at b blocks.(3);
  ret b (Some (reg acc));
  let m = Ir.Irmod.create ~name:"hazard" in
  add_square_cells m 16;
  let f = finish b in
  Ir.Irmod.add_func m f;
  (m, f, (i, i1))

(* [i] and [i1] share one phi-congruence class in [f]. *)
let check_one_class what f i i1 =
  let c = Ir.Coalesce.classes (Ir.Coalesce.scratch ()) f in
  let rep r =
    let k = ref 0 and members = c.Ir.Coalesce.members in
    while !k < Array.length members && members.(!k) <> r do
      incr k
    done;
    if !k < Array.length members then c.Ir.Coalesce.reps.(!k) else r
  in
  Alcotest.(check bool) (what ^ ": index and update share a class") true
    (rep i = rep i1)

(* [diff_all_n], comparing the [size] cells of "cells" as well. *)
let diff_all_cells ?cis ~size ~n what m =
  let args = [ Ir.Eval.VInt (Int64.of_int n) ] in
  let r =
    Vm.Machine.run ?cis ~engine:Vm.Machine.Reference m ~entry:"main" ~args
  in
  List.iter
    (fun tuning ->
      let what = what ^ " [" ^ tuning_tag tuning ^ "]" in
      let t =
        Vm.Machine.run ?cis ~engine:Vm.Machine.Threaded ~tuning m ~entry:"main"
          ~args
      in
      check_outcomes_equal what r t;
      check_global_equal what "cells" size r t)
    all_tunings

let test_fusion_slot_hazard () =
  List.iter
    (fun (use_first, write) ->
      let m, f, (i, i1) = slot_hazard_module ~use_first ~write () in
      let what =
        Printf.sprintf "%s %s the update" (if write then "store" else "load")
          (if use_first then "before" else "after")
      in
      check_one_class what f i i1;
      Alcotest.(check (list (pair string int)))
        (what ^ ": windows")
        (if use_first then [ ((if write then "gep+store" else "gep+load"), 1) ]
         else [])
        (gep_windows m);
      List.iter
        (fun n ->
          diff_all_cells ~size:16 ~n (Printf.sprintf "%s n=%d" what n) m)
        [ 0; 1; 5; 15 ])
    [ (false, false); (false, true); (true, false); (true, true) ]

(* A faulting run's whole observable outcome: the fault message and the
   clocks of lane 0 at every block a monitor sees, bit for bit. *)
let fault_outcome ?fuel ~engine ?tuning m n =
  let trace = ref [] in
  let monitor (ctls : Vm.Machine.control array) bid =
    trace :=
      ( bid,
        Int64.bits_of_float (ctls.(0).Vm.Machine.ctl_native ()),
        Int64.bits_of_float (ctls.(0).Vm.Machine.ctl_vm ()) )
      :: !trace
  in
  let msg =
    match
      Vm.Machine.run ?fuel ~engine ?tuning ~monitor m ~entry:"main"
        ~args:[ Ir.Eval.VInt (Int64.of_int n) ]
    with
    | _ -> None
    | exception Vm.Machine.Fault msg -> Some msg
  in
  (msg, List.rev !trace)

type fused_op = Load_int | Load_float | Store_int

(* main(n) runs [i] over [0, 4) (entry bb0, header bb1, body bb2, exit
   bb3); the body addresses [g = gep cells, i * n] and [op] reads or
   writes it, at once.  Cell 3 (cell 0 for a float load) holds a
   float, the others ints; the loaded value is used in the body, where
   the Reference engine's conversion faults, so a type-confused load
   faults in the same block in both engines. *)
let fused_fault_module op =
  let open Ir.Builder in
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
  in
  let b = create f in
  let blocks =
    Array.map (fun name -> new_block b ~name)
      [| "entry"; "header"; "body"; "exit" |]
  in
  position_at b blocks.(0);
  let cells = add b Ir.Ty.Ptr (Ir.Instr.Gaddr "cells") in
  let fcell = if op = Load_float then 0L else 3L in
  store b (cf64 2.5) (reg (gep b (reg cells) (ci64 fcell)));
  br b 1;
  position_at b blocks.(1);
  let i = add b Ir.Ty.I64 (Ir.Instr.Phi []) in
  let acc = add b Ir.Ty.I64 (Ir.Instr.Phi []) in
  let c = icmp b Ir.Instr.Islt (reg i) (ci64 4L) in
  cond_br b (reg c) 2 3;
  position_at b blocks.(2);
  let j = binop b Ir.Instr.Mul Ir.Ty.I64 (reg i) (reg 0) in
  let g = gep b (reg cells) (reg j) in
  let x =
    match op with
    | Load_int -> load b Ir.Ty.I64 (reg g)
    | Load_float ->
        let x = load b Ir.Ty.F64 (reg g) in
        let y = binop b Ir.Instr.Fadd Ir.Ty.F64 (reg x) (cf64 0.5) in
        cast b Ir.Instr.Fptosi Ir.Ty.I64 (reg y)
    | Store_int ->
        store b (reg acc) (reg g);
        j
  in
  let acc1 = binop b Ir.Instr.Add Ir.Ty.I64 (reg acc) (reg x) in
  let i1 = binop b Ir.Instr.Add Ir.Ty.I64 (reg i) (ci64 1L) in
  br b 1;
  wire_phis blocks.(1)
    [
      (i, [ (0, ci64 0L); (2, reg i1) ]); (acc, [ (0, ci64 0L); (2, reg acc1) ]);
    ];
  position_at b blocks.(3);
  ret b (Some (reg acc));
  let m = Ir.Irmod.create ~name:"fused_fault" in
  add_square_cells m 8;
  Ir.Irmod.add_func m (finish b);
  m

let test_fusion_fault_parity () =
  List.iter
    (fun (op, name, window) ->
      let m = fused_fault_module op in
      Alcotest.(check bool) (name ^ ": folded") true
        (List.mem_assoc window (gep_windows m));
      let parity ?fuel what n =
        let r = fault_outcome ?fuel ~engine:Vm.Machine.Reference m n in
        List.iter
          (fun tuning ->
            let t =
              fault_outcome ?fuel ~engine:Vm.Machine.Threaded ~tuning m n
            in
            Alcotest.(
              check (pair (option string) (list (triple int int64 int64))))
              (what ^ " [" ^ tuning_tag tuning ^ "]")
              r t)
          all_tunings;
        fst r
      in
      let expect what n prefix =
        match parity what n with
        | Some msg
          when String.length msg >= String.length prefix
               && String.sub msg 0 (String.length prefix) = prefix ->
            ()
        | r ->
            Alcotest.failf "%s: expected a fault starting %S, got %s" what
              prefix
              (Option.value ~default:"no fault" r)
      in
      let bad = "@main/bb2: bad address" in
      expect (name ^ " past the end") 100_000 bad;
      expect (name ^ " below zero") (-100_000) bad;
      (match op with
      | Load_int ->
          expect (name ^ " of a float cell") 1
            "@main/bb2: expected an integer value"
      | Load_float ->
          expect (name ^ " of an int cell") 1 "@main/bb2: expected a float value"
      | Store_int -> ignore (parity (name ^ " in range") 1));
      (* fuel runs out before, at or after the faulting block *)
      for fuel = 1 to 24 do
        ignore
          (parity ~fuel:(Int64.of_int fuel)
             (Printf.sprintf "%s past the end, fuel %d" name fuel)
             100_000)
      done)
    [
      (Load_int, "int load", "gep+load");
      (Load_float, "float load", "gep+load");
      (Store_int, "store", "gep+store");
    ]

(* main(n) loops [i] over [0, n) (entry bb0, header bb1, body bb2, tail
   bb3, exit bb4).  The body reads and rewrites cell [i] through one
   gep [g] (a load and a store: both fold), and loads cell [i + 8]
   through [h], which the tail stores back to: a use in another block,
   so [h] does not fold. *)
let multi_use_module () =
  let open Ir.Builder in
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
  in
  let b = create f in
  let blocks =
    Array.map (fun name -> new_block b ~name)
      [| "entry"; "header"; "body"; "tail"; "exit" |]
  in
  position_at b blocks.(0);
  let cells = add b Ir.Ty.Ptr (Ir.Instr.Gaddr "cells") in
  br b 1;
  position_at b blocks.(1);
  let i = add b Ir.Ty.I64 (Ir.Instr.Phi []) in
  let acc = add b Ir.Ty.I64 (Ir.Instr.Phi []) in
  let c = icmp b Ir.Instr.Islt (reg i) (reg 0) in
  cond_br b (reg c) 2 4;
  position_at b blocks.(2);
  let g = gep b (reg cells) (reg i) in
  let x = load b Ir.Ty.I64 (reg g) in
  let y = binop b Ir.Instr.Mul Ir.Ty.I64 (reg x) (ci64 3L) in
  store b (reg y) (reg g);
  let k = binop b Ir.Instr.Add Ir.Ty.I64 (reg i) (ci64 8L) in
  let h = gep b (reg cells) (reg k) in
  let z = load b Ir.Ty.I64 (reg h) in
  br b 3;
  position_at b blocks.(3);
  let z1 = binop b Ir.Instr.Add Ir.Ty.I64 (reg z) (reg y) in
  store b (reg z1) (reg h);
  let acc1 = binop b Ir.Instr.Add Ir.Ty.I64 (reg acc) (reg z1) in
  let i1 = binop b Ir.Instr.Add Ir.Ty.I64 (reg i) (ci64 1L) in
  br b 1;
  wire_phis blocks.(1)
    [
      (i, [ (0, ci64 0L); (3, reg i1) ]); (acc, [ (0, ci64 0L); (3, reg acc1) ]);
    ];
  position_at b blocks.(4);
  ret b (Some (reg acc));
  let m = Ir.Irmod.create ~name:"multi_use" in
  add_square_cells m 16;
  Ir.Irmod.add_func m (finish b);
  m

let test_fusion_multi_use () =
  let m = multi_use_module () in
  Alcotest.(check (list (pair string int)))
    "g folds into its load and its store, h into nothing"
    [ ("gep+load", 1); ("gep+store", 1) ]
    (gep_windows m);
  List.iter
    (fun n -> diff_all_cells ~size:16 ~n (Printf.sprintf "multi-use n=%d" n) m)
    [ 0; 1; 3; 8 ]

(* ci0(a, b) = a * b + a, and ci1(a, b) = a + b, both over i64. *)
let fusion_ci_registry () =
  body_registry
    [
      build_ci_body [ Ir.Ty.I64; Ir.Ty.I64 ] (fun b ->
          let t =
            Ir.Builder.binop b Ir.Instr.Mul Ir.Ty.I64 (Ir.Builder.reg 0)
              (Ir.Builder.reg 1)
          in
          Ir.Builder.binop b Ir.Instr.Add Ir.Ty.I64 (Ir.Builder.reg t)
            (Ir.Builder.reg 0));
      build_ci_body [ Ir.Ty.I64; Ir.Ty.I64 ] (fun b ->
          Ir.Builder.binop b Ir.Instr.Add Ir.Ty.I64 (Ir.Builder.reg 0)
            (Ir.Builder.reg 1));
    ]

(* A spliced CI site inside a fused window.  In the loop of
   {!slot_hazard_module}, [t = ci0(i, n)] stands between a second gep
   [g2 = gep cells, i] and its load (its temp and its destination have
   slots of their own: [g2] folds), and the update is [i1 = ci1(i, 1)],
   after [g]'s load ([use_first]: [g] folds) or before it (the spliced
   root writes [i]'s slot: [g] does not fold). *)
let test_fusion_ci_site () =
  let cis = fusion_ci_registry () in
  List.iter
    (fun use_first ->
      let update b cells i =
        let open Ir.Builder in
        let g2 = gep b (reg cells) i in
        let t = add b Ir.Ty.I64 (Ir.Instr.Ci_call (0, [ i; reg 0 ])) in
        let x2 = load b Ir.Ty.I64 (reg g2) in
        let s = binop b Ir.Instr.Add Ir.Ty.I64 (reg t) (reg x2) in
        store b (reg s) (reg (gep b (reg cells) (ci64 15L)));
        add b Ir.Ty.I64 (Ir.Instr.Ci_call (1, [ i; ci64 1L ]))
      in
      let m, f, (i, i1) =
        slot_hazard_module ~update ~use_first ~write:false ()
      in
      let what =
        Printf.sprintf "ci update %s the load"
          (if use_first then "after" else "before")
      in
      check_one_class what f i i1;
      Alcotest.(check (list (pair string int)))
        (what ^ ": windows")
        [ ("gep+load", if use_first then 2 else 1); ("gep+store", 1) ]
        (gep_windows ~cis m);
      List.iter
        (fun n ->
          diff_all_cells ~cis ~size:16 ~n (Printf.sprintf "%s n=%d" what n) m)
        [ 0; 1; 5; 14 ])
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Generated loop nests: phi rows against the Reference engine         *)
(* ------------------------------------------------------------------ *)

(* A loop nest of one to three levels.  Level [d] has a header (its
   phis, then [i < trips]), a body (the next level's preheader, or the
   innermost one), a latch (the updates, back to the header) and an
   exit, which hashes the level's phis — into [out.(d)], or as main's
   result for the outermost one — and goes to the enclosing latch.  Each
   phi has a lane (int, float, ptr) and two entries, each a (kind,
   argument) pair:

   - from the preheader: a constant (ptr: an address of [cells]), an
     enclosing level's phi of the lane, or [n] (int) / the [Gaddr] of
     [cells] (ptr) / a constant (float);
   - from the latch: its own update, a sibling of the lane (a swap or
     rotation, or itself), a sibling's update, an inner level's phi of
     the lane (read after that loop's exit), a constant, or [n] / the
     [Gaddr] / a constant.

   The latch updates the phis in order: an int or float phi adds a
   constant or (for an odd argument) a sibling of its lane, which may
   then be read after the sibling's own update; a pointer takes [gep 1].
   Every level also has its counter, so each pointer moves at most one
   cell per iteration and stays inside [cells].

   The body and the latch of every level also address a cell by the
   counter ([nest_mem]): [gep cells, counter] (or the 8-cell f64 global
   [fcells]) and a memory op of a lane value — an int load, add and
   store back ([kind] 0), an int store (1) or a float load, add and
   store back (2), of the level's [arg]-th phi of the lane or a
   constant.  In the latch the gep either comes first and its uses
   after all the updates ([early]: the counter's update takes the
   counter's slot in between, once coalesced) or reads the update and
   its uses follow at once. *)
type nest_phi = { lane : int; pre : int * int; back : int * int }
type nest_mem = { kind : int; arg : int; early : bool }

type nest_level = {
  trips : int;
  phis : nest_phi list;
  body_mem : nest_mem;
  latch_mem : nest_mem;
}

let nest_gen : nest_level list QCheck.Gen.t =
  QCheck.Gen.(
    let entry k = pair (0 -- k) (0 -- 7) in
    let phi =
      map3
        (fun lane pre back -> { lane; pre; back })
        (0 -- 2) (entry 2) (entry 5)
    in
    let mem =
      map3 (fun kind arg early -> { kind; arg; early }) (0 -- 2) (0 -- 7) bool
    in
    list_size (1 -- 3)
      (map4
         (fun trips phis body_mem latch_mem ->
           { trips; phis; body_mem; latch_mem })
         (0 -- 3) (list_size (1 -- 5) phi) mem mem))

let nest_to_string levels =
  let mem m =
    Printf.sprintf "%d:%d%s" m.kind m.arg (if m.early then "e" else "")
  in
  String.concat " / "
    (List.map
       (fun l ->
         Printf.sprintf "trips %d: %s; mem %s %s" l.trips
           (String.concat ", "
              (List.map
                 (fun p ->
                   Printf.sprintf "%d(%d,%d|%d,%d)" p.lane (fst p.pre)
                     (snd p.pre) (fst p.back) (snd p.back))
                 l.phis))
           (mem l.body_mem) (mem l.latch_mem))
       levels)

let nest_module (levels : nest_level list) =
  let open Ir.Builder in
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
  in
  let b = create f in
  let levels = Array.of_list levels in
  let depth = Array.length levels in
  let entry = new_block b ~name:"entry" in
  let blk =
    Array.init depth (fun d ->
        Array.map
          (fun nm -> new_block b ~name:(Printf.sprintf "%s%d" nm d))
          [| "header"; "body"; "latch"; "exit" |])
  in
  let label d k = blk.(d).(k).Ir.Block.label in
  let lane_ty = function 0 -> Ir.Ty.I64 | 1 -> Ir.Ty.F64 | _ -> Ir.Ty.Ptr in
  position_at b entry;
  let cells = add b Ir.Ty.Ptr (Ir.Instr.Gaddr "cells") in
  let out = add b Ir.Ty.Ptr (Ir.Instr.Gaddr "out") in
  let fcells = add b Ir.Ty.Ptr (Ir.Instr.Gaddr "fcells") in
  br b (label 0 0);
  let const lane arg =
    match lane with
    | 0 -> ci64 (Int64.of_int ((7 * arg) - 3))
    | 1 -> cf64 (0.75 *. float_of_int arg)
    | _ -> Ir.Instr.Const (Ir.Instr.Cint (Int64.of_int (arg + 1), Ir.Ty.Ptr))
  in
  let other lane arg =
    match lane with 0 -> reg 0 | 1 -> const 1 arg | _ -> reg cells
  in
  (* the phis of every level (counter first), created in the headers *)
  let phis =
    Array.mapi
      (fun d l ->
        position_at b blk.(d).(0);
        let counter = add b Ir.Ty.I64 (Ir.Instr.Phi []) in
        let ps =
          List.map (fun p -> (p, add b (lane_ty p.lane) (Ir.Instr.Phi []))) l.phis
        in
        let c = icmp b Ir.Instr.Islt (reg counter) (ci64 (Int64.of_int l.trips)) in
        cond_br b (reg c) (label d 1) (label d 3);
        (counter, ps))
      levels
  in
  let of_lane d lane =
    if d < 0 || d >= depth then [||]
    else
      Array.of_list
        (List.filter_map
           (fun (p, r) -> if p.lane = lane then Some r else None)
           (snd phis.(d)))
  in
  let pick d lane arg fallback =
    let rs = of_lane d lane in
    if Array.length rs = 0 then fallback else reg rs.(arg mod Array.length rs)
  in
  (* [nest_mem]'s gep, and its memory op on the cell it addresses *)
  let mem_gep m index =
    gep b (reg (if m.kind = 2 then fcells else cells)) index
  in
  let mem_op d m g =
    match m.kind with
    | 0 ->
        let x = load b Ir.Ty.I64 (reg g) in
        let v = pick d 0 m.arg (ci64 (Int64.of_int (m.arg + 1))) in
        store b (reg (binop b Ir.Instr.Add Ir.Ty.I64 (reg x) v)) (reg g)
    | 1 -> store b (pick d 0 m.arg (ci64 (Int64.of_int (m.arg + 1)))) (reg g)
    | _ ->
        let x = load b Ir.Ty.F64 (reg g) in
        let v = pick d 1 m.arg (cf64 0.25) in
        store b (reg (binop b Ir.Instr.Fadd Ir.Ty.F64 (reg x) v)) (reg g)
  in
  for d = 0 to depth - 1 do
    let counter, ps = phis.(d) in
    let l = levels.(d) in
    (* body: a memory op, then the next level's preheader, or straight
       to the latch *)
    position_at b blk.(d).(1);
    mem_op d l.body_mem (mem_gep l.body_mem (reg counter));
    br b (if d + 1 < depth then label (d + 1) 0 else label d 2);
    (* latch: the updates, and a memory op around them *)
    position_at b blk.(d).(2);
    let early =
      if l.latch_mem.early then Some (mem_gep l.latch_mem (reg counter))
      else None
    in
    let update (p, r) =
      let arg = snd p.back in
      let other c = if arg mod 2 = 0 then c else pick d p.lane arg c in
      match p.lane with
      | 0 ->
          binop b Ir.Instr.Add Ir.Ty.I64 (reg r)
            (other (ci64 (Int64.of_int (arg + 1))))
      | 1 -> binop b Ir.Instr.Fadd Ir.Ty.F64 (reg r) (other (cf64 0.5))
      | _ -> gep b (reg r) (ci64 1L)
    in
    let updates = List.map (fun pr -> (snd pr, update pr)) ps in
    let counter1 = binop b Ir.Instr.Add Ir.Ty.I64 (reg counter) (ci64 1L) in
    mem_op d l.latch_mem
      (match early with
      | Some g -> g
      | None -> mem_gep l.latch_mem (reg counter1));
    br b (label d 0);
    let pre_label = if d = 0 then entry.Ir.Block.label else label (d - 1) 1 in
    let latch_label = label d 2 in
    let entries (p, r) =
      let kind, arg = p.pre in
      let pre =
        match kind with
        | 0 -> const p.lane arg
        | 1 -> pick (d - 1) p.lane arg (const p.lane arg)
        | _ -> other p.lane arg
      in
      let own = reg (List.assoc r updates) in
      let kind, arg = p.back in
      let back =
        match kind with
        | 0 -> own
        | 1 -> pick d p.lane arg own
        | 2 -> (
            match pick d p.lane arg own with
            | Ir.Instr.Reg s -> reg (List.assoc s updates)
            | c -> c)
        | 3 -> pick (d + 1) p.lane arg own
        | 4 -> const p.lane arg
        | _ -> other p.lane arg
      in
      (r, [ (pre_label, pre); (latch_label, back) ])
    in
    wire_phis blk.(d).(0)
      ((counter, [ (pre_label, ci64 0L); (latch_label, reg counter1) ])
      :: List.map entries ps);
    (* exit: hash the level's phis *)
    position_at b blk.(d).(3);
    let value (p, r) =
      match p.lane with
      | 0 -> reg r
      | 1 ->
          reg
            (cast b Ir.Instr.Fptosi Ir.Ty.I64
               (reg (binop b Ir.Instr.Fmul Ir.Ty.F64 (reg r) (cf64 16.0))))
      | _ -> reg (load b Ir.Ty.I64 (reg r))
    in
    let h =
      List.fold_left
        (fun acc pr ->
          let a = binop b Ir.Instr.Mul Ir.Ty.I64 acc (ci64 31L) in
          reg (binop b Ir.Instr.Add Ir.Ty.I64 (reg a) (value pr)))
        (reg counter) ps
    in
    if d = 0 then ret b (Some h)
    else begin
      store b h (reg (gep b (reg out) (ci64 (Int64.of_int d))));
      br b (label (d - 1) 2)
    end
  done;
  let m = Ir.Irmod.create ~name:"nest" in
  Ir.Irmod.add_global m
    {
      Ir.Irmod.gname = "cells";
      gty = Ir.Ty.I64;
      gsize = 128;
      ginit = Ir.Irmod.Ints (Array.init 128 (fun i -> Int64.of_int ((5 * i) + 1)));
    };
  Ir.Irmod.add_global m
    { Ir.Irmod.gname = "out"; gty = Ir.Ty.I64; gsize = 4; ginit = Ir.Irmod.Zero };
  Ir.Irmod.add_global m
    {
      Ir.Irmod.gname = "fcells";
      gty = Ir.Ty.F64;
      gsize = 8;
      ginit = Ir.Irmod.Floats (Array.init 8 (fun i -> 0.5 *. float_of_int i));
    };
  Ir.Irmod.add_func m (finish b);
  m

let qcheck_loop_nests =
  QCheck.Test.make ~name:"generated loop nests: every tuning agrees"
    ~count:60
    (QCheck.make ~print:nest_to_string nest_gen)
    (fun levels ->
      let m = nest_module levels in
      let what = nest_to_string levels in
      Alcotest.(check (list string)) (what ^ ": verifies") []
        (List.map
           (Format.asprintf "%a" Ir.Verifier.pp_error)
           (Ir.Verifier.check_module m));
      let args = [ Ir.Eval.VInt 3L ] in
      let ref_out =
        Vm.Machine.run ~engine:Vm.Machine.Reference m ~entry:"main" ~args
      in
      List.iter
        (fun tuning ->
          let what = what ^ " [" ^ tuning_tag tuning ^ "]" in
          let t =
            Vm.Machine.run ~engine:Vm.Machine.Threaded ~tuning m ~entry:"main"
              ~args
          in
          check_outcomes_equal what ref_out t;
          check_global_equal what "out" 4 ref_out t;
          check_global_equal what "cells" 128 ref_out t;
          check_global_equal what "fcells" 8 ref_out t)
        all_tunings;
      true)

(* Unread registers share one sink slot per lane.  [rec(n, dead, x, p)]
   recurses to depth [n] (so frames are reused at every depth), and
   main calls it three times.  Its body writes every kind
   of unread register between the definitions and the uses of read
   ones of the same lane: the store ids ([Void]), the parameter
   [dead], unread int/float/ptr call results, an unread load, a
   spliced CI call whose result nothing reads, and the unread phis
   [da]/[df]/[dp] of a loop header whose row from the body is direct
   and whose row from the latch is staged.  A classifier that sent a
   read register to its lane's sink would see it overwritten.  Blocks
   of rec: entry bb0, base bb1, body bb2, loop bb3, latch bb4, out
   bb5. *)
let sink_slots_module () =
  let r = Ir.Builder.reg and i64 = Ir.Builder.ci64 in
  let leaf name ty body =
    let f = Ir.Func.create ~name ~params:[ (0, ty) ] ~ret_ty:ty in
    let b = Ir.Builder.create f in
    Ir.Builder.position_at b (Ir.Builder.new_block b ~name:"entry");
    Ir.Builder.ret b (Some (r (body b (r 0))));
    Ir.Builder.finish b
  in
  let leaf_i =
    leaf "leaf_i" Ir.Ty.I64 (fun b x ->
        Ir.Builder.binop b Ir.Instr.Mul Ir.Ty.I64 x (i64 3L))
  and leaf_f =
    leaf "leaf_f" Ir.Ty.F64 (fun b x ->
        Ir.Builder.binop b Ir.Instr.Fmul Ir.Ty.F64 x (Ir.Builder.cf64 0.5))
  and leaf_p =
    leaf "leaf_p" Ir.Ty.Ptr (fun b p -> Ir.Builder.gep b p (i64 1L))
  in
  let f =
    Ir.Func.create ~name:"rec"
      ~params:[ (0, Ir.Ty.I64); (1, Ir.Ty.I64); (2, Ir.Ty.F64); (3, Ir.Ty.Ptr) ]
      ~ret_ty:Ir.Ty.I64
  in
  let b = Ir.Builder.create f in
  let entry = Ir.Builder.new_block b ~name:"entry" in
  let base = Ir.Builder.new_block b ~name:"base" in
  let body = Ir.Builder.new_block b ~name:"body" in
  let loop = Ir.Builder.new_block b ~name:"loop" in
  let latch = Ir.Builder.new_block b ~name:"latch" in
  let out = Ir.Builder.new_block b ~name:"out" in
  let n = r 0 and x = r 2 and p = r 3 in
  Ir.Builder.position_at b entry;
  let c = Ir.Builder.icmp b Ir.Instr.Isle n (i64 0L) in
  Ir.Builder.cond_br b (r c) base.Ir.Block.label body.Ir.Block.label;
  Ir.Builder.position_at b base;
  Ir.Builder.ret b
    (Some (r (Ir.Builder.binop b Ir.Instr.Add Ir.Ty.I64 n (i64 100L))));
  Ir.Builder.position_at b body;
  ignore (Ir.Builder.call b Ir.Ty.I64 "leaf_i" [ n ]);
  ignore (Ir.Builder.call b Ir.Ty.F64 "leaf_f" [ x ]);
  ignore (Ir.Builder.call b Ir.Ty.Ptr "leaf_p" [ p ]);
  ignore (Ir.Builder.load b Ir.Ty.I64 p);
  Ir.Builder.store b n p;
  ignore (Ir.Builder.add b Ir.Ty.I64 (Ir.Instr.Ci_call (0, [ n; n ])));
  let n1 = Ir.Builder.binop b Ir.Instr.Sub Ir.Ty.I64 n (i64 1L) in
  let x1 =
    Ir.Builder.binop b Ir.Instr.Fadd Ir.Ty.F64 x (Ir.Builder.cf64 0.25)
  in
  let p1 = Ir.Builder.gep b p (i64 1L) in
  let rr = Ir.Builder.call b Ir.Ty.I64 "rec" [ r n1; n; r x1; r p1 ] in
  Ir.Builder.br b loop.Ir.Block.label;
  Ir.Builder.position_at b loop;
  let phi ty = Ir.Builder.add b ty (Ir.Instr.Phi []) in
  let pa = phi Ir.Ty.I64 and pb = phi Ir.Ty.I64 and da = phi Ir.Ty.I64 in
  let fx = phi Ir.Ty.F64 and fy = phi Ir.Ty.F64 and df = phi Ir.Ty.F64 in
  let pp = phi Ir.Ty.Ptr and dp = phi Ir.Ty.Ptr and k = phi Ir.Ty.I64 in
  let c2 = Ir.Builder.icmp b Ir.Instr.Islt (r k) (i64 3L) in
  Ir.Builder.cond_br b (r c2) latch.Ir.Block.label out.Ir.Block.label;
  Ir.Builder.position_at b latch;
  ignore (Ir.Builder.call b Ir.Ty.I64 "leaf_i" [ r pa ]);
  ignore (Ir.Builder.call b Ir.Ty.F64 "leaf_f" [ r fx ]);
  ignore (Ir.Builder.call b Ir.Ty.Ptr "leaf_p" [ r pp ]);
  let k1 = Ir.Builder.binop b Ir.Instr.Add Ir.Ty.I64 (r k) (i64 1L) in
  let pp2 = Ir.Builder.gep b (r pp) (i64 1L) in
  Ir.Builder.br b loop.Ir.Block.label;
  let bl = body.Ir.Block.label and ll = latch.Ir.Block.label in
  wire_phis loop
    [
      (pa, [ (bl, r rr); (ll, r pb) ]);
      (pb, [ (bl, n); (ll, r pa) ]);
      (da, [ (bl, r n1); (ll, r pa) ]);
      (fx, [ (bl, r x1); (ll, r fy) ]);
      (fy, [ (bl, x); (ll, r fx) ]);
      (df, [ (bl, x); (ll, r fx) ]);
      (pp, [ (bl, r p1); (ll, r pp2) ]);
      (dp, [ (bl, p); (ll, r pp) ]);
      (k, [ (bl, i64 0L); (ll, r k1) ]);
    ];
  (* out: 7a + 3b + fptosi(8 fx) + fptosi(16 fy) + 5 * cells[pp] *)
  Ir.Builder.position_at b out;
  let mul v kk = Ir.Builder.binop b Ir.Instr.Mul Ir.Ty.I64 v (i64 kk) in
  let add x y = Ir.Builder.binop b Ir.Instr.Add Ir.Ty.I64 (r x) (r y) in
  let scaled v kk =
    let f = Ir.Builder.binop b Ir.Instr.Fmul Ir.Ty.F64 v (Ir.Builder.cf64 kk) in
    Ir.Builder.cast b Ir.Instr.Fptosi Ir.Ty.I64 (r f)
  in
  let cell = mul (r (Ir.Builder.load b Ir.Ty.I64 (r pp))) 5L in
  let ints = add (mul (r pa) 7L) (mul (r pb) 3L) in
  let floats = add (scaled (r fx) 8.0) (scaled (r fy) 16.0) in
  Ir.Builder.ret b (Some (r (add (add ints floats) cell)));
  let f = Ir.Builder.finish b in
  (* main(n) = rec(3, 0, 0.5, cells) * 31 + rec(4, 1, 1.5, cells) * 7
     + rec(n, 2, -0.75, cells) *)
  let mf =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
  in
  let mb = Ir.Builder.create mf in
  Ir.Builder.position_at mb (Ir.Builder.new_block mb ~name:"entry");
  let cells = Ir.Builder.add mb Ir.Ty.Ptr (Ir.Instr.Gaddr "cells") in
  let call d dead x =
    Ir.Builder.call mb Ir.Ty.I64 "rec"
      [ d; i64 dead; Ir.Builder.cf64 x; r cells ]
  in
  let c1 = call (i64 3L) 0L 0.5 in
  let c2 = call (i64 4L) 1L 1.5 in
  let c3 = call (r 0) 2L (-0.75) in
  let scale v kk = Ir.Builder.binop mb Ir.Instr.Mul Ir.Ty.I64 (r v) (i64 kk) in
  let add x y = Ir.Builder.binop mb Ir.Instr.Add Ir.Ty.I64 (r x) (r y) in
  Ir.Builder.ret mb (Some (r (add (add (scale c1 31L) (scale c2 7L)) c3)));
  let m = Ir.Irmod.create ~name:"sinks" in
  Ir.Irmod.add_global m
    {
      Ir.Irmod.gname = "cells";
      gty = Ir.Ty.I64;
      gsize = 16;
      ginit = Ir.Irmod.Ints (Array.init 16 (fun k -> Int64.of_int (10 * k)));
    };
  List.iter (Ir.Irmod.add_func m)
    [ leaf_i; leaf_f; leaf_p; f; Ir.Builder.finish mb ];
  m

(* ci0(a, b) = a * b + a: a two-node body, so a spliced site also has
   a temp. *)
let mul_add_ci_registry () =
  body_registry
    [
      build_ci_body [ Ir.Ty.I64; Ir.Ty.I64 ] (fun b ->
          let t =
            Ir.Builder.binop b Ir.Instr.Mul Ir.Ty.I64 (Ir.Builder.reg 0)
              (Ir.Builder.reg 1)
          in
          Ir.Builder.binop b Ir.Instr.Add Ir.Ty.I64 (Ir.Builder.reg t)
            (Ir.Builder.reg 0));
    ]

let test_tuning_sink_slots () =
  let m = sink_slots_module () in
  let cis = mul_add_ci_registry () in
  Alcotest.(check int) "verifier-valid" 0
    (List.length (Ir.Verifier.check_module m));
  List.iter
    (fun n ->
      let args = [ Ir.Eval.VInt (Int64.of_int n) ] in
      let ref_out =
        Vm.Machine.run ~cis ~engine:Vm.Machine.Reference m ~entry:"main" ~args
      in
      List.iter
        (fun tuning ->
          let what =
            Printf.sprintf "sink slots n=%d [%s]" n (tuning_tag tuning)
          in
          let t =
            Vm.Machine.run ~cis ~engine:Vm.Machine.Threaded ~tuning m
              ~entry:"main" ~args
          in
          check_outcomes_equal what ref_out t;
          check_global_equal what "cells" 16 ref_out t)
        all_tunings)
    [ 0; 1; 2; 5 ]

(* Typed memory cells through the compiled engine's own (inlined)
   typed loads and stores, against the Reference engine's boxed ones.
   [typed_mem_module body] is main(n : i64) over a zeroed f64 global
   "cells" of eight cells; [body b cell] emits the instructions, [cell i]
   the address of cell [i], and returns main's result operand. *)
let typed_mem_module ?(extra = fun _ -> ()) body =
  let m = Ir.Irmod.create ~name:"tm" in
  Ir.Irmod.add_global m
    { Ir.Irmod.gname = "cells"; gty = Ir.Ty.F64; gsize = 8;
      ginit = Ir.Irmod.Zero };
  extra m;
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
  in
  let b = Ir.Builder.create f in
  Ir.Builder.position_at b (Ir.Builder.new_block b ~name:"entry");
  let base = Ir.Builder.add b Ir.Ty.Ptr (Ir.Instr.Gaddr "cells") in
  let cell i =
    Ir.Builder.reg
      (Ir.Builder.add b Ir.Ty.Ptr
         (Ir.Instr.Gep (Ir.Builder.reg base, Ir.Builder.ci64 (Int64.of_int i))))
  in
  Ir.Builder.ret b (Some (body b cell));
  Ir.Irmod.add_func m (Ir.Builder.finish b);
  m

let test_tuning_typed_memory () =
  let open Ir.Builder in
  let load b ty a = reg (add b ty (Ir.Instr.Load a)) in
  let store b x a = add_void b (Ir.Instr.Store (x, a)) in
  (* Round trip: immediate and register stores of every class, loads
     into every class through a direct and a loaded address, and a
     pointer cell read as an int (type-sound: the add converts it the
     same way). *)
  let m =
    typed_mem_module (fun b cell ->
        store b (cf64 (-0.0)) (cell 0);
        store b (cf64 nan_payload) (cell 1);
        store b (load b Ir.Ty.F64 (cell 0)) (cell 2);
        store b (load b Ir.Ty.F64 (cell 1)) (cell 3);
        store b (cell 2) (cell 4);
        store b (reg 0) (cell 5);
        let p = load b Ir.Ty.Ptr (cell 4) in
        store b (load b Ir.Ty.F64 p) (cell 6);
        let pi = load b Ir.Ty.I64 (cell 4) in
        let n = load b Ir.Ty.I64 (cell 5) in
        reg (binop b Ir.Instr.Add Ir.Ty.I64 pi n))
  in
  let cells (o : Vm.Machine.outcome) =
    let mem = Option.get o.memory in
    let base = Vm.Memory.global_base mem "cells" in
    List.init 8 (fun i -> cell_repr (Vm.Memory.load mem (base + i)))
  in
  List.iter
    (fun n ->
      let args = [ Ir.Eval.VInt n ] in
      let r =
        Vm.Machine.run ~engine:Vm.Machine.Reference m ~entry:"main" ~args
      in
      Alcotest.(check (list string))
        "reference cells"
        (List.map cell_repr
           Ir.Eval.
             [ VFloat (-0.0); VFloat nan_payload; VFloat (-0.0);
               VFloat nan_payload; VPtr 3; VInt n; VFloat (-0.0);
               VFloat 0.0 ])
        (cells r);
      List.iter
        (fun tuning ->
          let t =
            Vm.Machine.run ~engine:Vm.Machine.Threaded ~tuning m ~entry:"main"
              ~args
          in
          let what =
            Printf.sprintf "typed memory n=%Ld [%s]" n (tuning_tag tuning)
          in
          check_outcomes_equal what r t;
          Alcotest.(check (list string)) (what ^ ": cells") (cells r) (cells t))
        all_tunings)
    [ 0L; 5L; -9L ];
  (* Mismatched loads: the same Type_error text and block.  The
     Reference engine keeps the boxed cell and faults at the first use,
     the typed engine at the load itself (DESIGN.md §14), so the value is
     used right away. *)
  let mismatch what ty ~stored =
    check_fault_parity_tunings what ~n:1
      (typed_mem_module (fun b cell ->
           store b stored (cell 0);
           let v = load b ty (cell 0) in
           (match ty with
           | Ir.Ty.I64 -> ignore (binop b Ir.Instr.Add Ir.Ty.I64 v (ci64 1L))
           | Ir.Ty.F64 -> ignore (binop b Ir.Instr.Fadd Ir.Ty.F64 v (cf64 1.0))
           | _ -> ignore (load b Ir.Ty.I64 v));
           reg 0))
  in
  mismatch "float cell as i64" Ir.Ty.I64 ~stored:(cf64 1.5);
  mismatch "float cell as ptr" Ir.Ty.Ptr ~stored:(cf64 1.5);
  mismatch "int cell as f64" Ir.Ty.F64 ~stored:(ci64 7L);
  mismatch "int register stored, loaded as f64" Ir.Ty.F64 ~stored:(reg 0);
  (* Bad_address before the type check: one past the stack pointer (a
     never-written int cell read as f64), and a released callee cell
     that still holds a float tag, read as i64. *)
  check_fault_parity_tunings "past the stack pointer" ~n:1
    (typed_mem_module (fun b cell ->
         ignore (load b Ir.Ty.F64 (cell 8));
         reg 0));
  let callee m =
    let f = Ir.Func.create ~name:"leak" ~params:[] ~ret_ty:Ir.Ty.Ptr in
    let b = Ir.Builder.create f in
    Ir.Builder.position_at b (Ir.Builder.new_block b ~name:"entry");
    let p = add b Ir.Ty.Ptr (Ir.Instr.Alloca (Ir.Ty.F64, 1)) in
    store b (cf64 2.5) (reg p);
    Ir.Builder.ret b (Some (reg p));
    Ir.Irmod.add_func m (Ir.Builder.finish b)
  in
  check_fault_parity_tunings "released float cell" ~n:1
    (typed_mem_module ~extra:callee (fun b _ ->
         let p = reg (call b Ir.Ty.Ptr "leak" []) in
         ignore (load b Ir.Ty.I64 p);
         reg 0))

let test_fusion_stats () =
  let m =
    compile
      "int a[8];\n\
       int main(int n) {\n\
      \  int i = 0;\n\
      \  while (i < n) { a[i - (i / 8) * 8] = i * 2 + 1; i = i + 1; }\n\
      \  return a[0];\n\
       }\n"
  in
  let go tuning =
    ignore
      (Vm.Machine.run ~engine:Vm.Machine.Threaded ~tuning m ~entry:"main"
         ~args:[ Ir.Eval.VInt 7L ])
  in
  Vm.Machine.reset_fusion_stats ();
  go Vm.Machine.untuned;
  Alcotest.(check (list (pair string int)))
    "untuned compiles no fused window" []
    (Vm.Machine.fusion_stats ());
  go Vm.Machine.default_tuning;
  let stats = Vm.Machine.fusion_stats () in
  Alcotest.(check bool)
    "fused patterns counted" true
    (stats <> [] && List.for_all (fun (_, c) -> c > 0) stats);
  Alcotest.(check bool)
    "a[...] = ... fuses its gep into the store" true
    (List.mem_assoc "gep+store" stats);
  Alcotest.(check (list string))
    "sorted by pattern name"
    (List.sort compare (List.map fst stats))
    (List.map fst stats);
  Vm.Machine.reset_fusion_stats ();
  Alcotest.(check (list (pair string int)))
    "reset clears" []
    (Vm.Machine.fusion_stats ())

(* Every dataset of [w], in order, under one engine and tuning. *)
let run_datasets ~engine ?tuning compiled (w : W.Workload.t) =
  List.map
    (fun d -> (d, W.Workload.run ~engine ?tuning compiled d))
    w.W.Workload.datasets

(* Full differential over real workloads from the registry, every
   dataset each, under each of [tunings]. *)
let diff_registry tunings =
  List.iter
    (fun name ->
      let w = Option.get (W.Registry.find name) in
      let compiled = W.Workload.compile w in
      let reference =
        run_datasets ~engine:Vm.Machine.Reference compiled w
      in
      List.iter
        (fun tuning ->
          List.iter2
            (fun (d, r) (_, t) ->
              check_outcomes_equal
                (Printf.sprintf "%s/%s [%s]" name d.W.Workload.label
                   (tuning_tag tuning))
                r t)
            reference
            (run_datasets ~engine:Vm.Machine.Threaded ~tuning compiled w))
        tunings)
    [ "fft"; "sor"; "whetstone"; "adpcm" ]

let test_diff_registry_workloads () =
  diff_registry [ Vm.Machine.default_tuning ]

(* Every knob off, and default minus typed registers: the all-boxed
   compile of the one compiler, on real workloads. *)
let test_diff_registry_knobs_off () =
  diff_registry
    [
      Vm.Machine.untuned; { Vm.Machine.default_tuning with regalloc = false };
    ]

let qcheck_diff_generated =
  let open QCheck in
  let gen =
    Gen.(
      quad (1 -- 4) (4 -- 24) bool (0 -- 30))
  in
  Test.make ~name:"random phase kernels: engines agree" ~count:10 (make gen)
    (fun (phases, width, float_ops, n) ->
      let prefix = "qx" in
      let src =
        W.Gen.phase_family ~prefix ~phases ~width ~float_ops
        ^ Printf.sprintf
            "int main(int n) {\n\
            \  %s_seed(n);\n\
            \  int r;\n\
            \  for (r = 0; r < 3; r = r + 1) { %s_run(); }\n\
            \  return n;\n\
             }\n"
            prefix prefix
      in
      let m = compile src in
      let r, t =
        diff_n ~n
          (Printf.sprintf "qcheck p=%d w=%d f=%b n=%d" phases width float_ops
             n)
          m
      in
      check_global_equal "qcheck" (prefix ^ "_a") width r t;
      check_global_equal "qcheck" (prefix ^ "_b") width r t;
      true)

(* ------------------------------------------------------------------ *)
(* Adversarial scalars: NaN, signed zero, Int64.min_int, renorm edges  *)
(* ------------------------------------------------------------------ *)

(* The typed register files specialize comparisons, arithmetic and
   casts per operand shape, so the edge cases where IEEE or two's
   complement semantics get interesting — NaN through every fcmp
   predicate, -0.0 vs 0.0, Int64.min_int wrap-around, float->int casts
   of NaN/infinity — must agree bit-for-bit across Reference, untuned
   Threaded and every tuned variant (all 16 knob combinations include
   regalloc on and off). *)

let adversarial_floats =
  [
    Float.nan;
    Float.infinity;
    Float.neg_infinity;
    -0.0;
    0.0;
    1.0;
    -1.0;
    0.5;
    -2.5;
    Float.epsilon;
    Float.max_float;
    -.Float.max_float;
    Float.min_float;
    9.3e18 (* above Int64.max_int: fptosi saturates/wraps, must agree *);
    -9.3e18;
    4503599627370497.0 (* 2^52 + 1: float->int->float not identity *);
  ]

let adversarial_ints =
  [
    Int64.min_int;
    Int64.max_int;
    Int64.add Int64.min_int 1L;
    Int64.sub Int64.max_int 1L;
    -1L;
    0L;
    1L;
    0x7FFF_FFFFL (* I32 sign boundary *);
    0x8000_0000L;
    0xFFFF_FFFFL;
    0x1_0000_0000L;
    -2147483648L;
    -2147483649L;
  ]

(* Every fcmp predicate on (x, y), float arithmetic (including IEEE
   division: inf/NaN, never a fault), and fptosi of values that may be
   NaN or out of int range.  The result packs all comparison bits so a
   single-predicate divergence flips the return value. *)
let adversarial_fcmp_src =
  "int main(double x, double y) {\n\
  \  int r = 0;\n\
  \  if (x < y)  { r = r + 1; }\n\
  \  if (x <= y) { r = r + 2; }\n\
  \  if (x > y)  { r = r + 4; }\n\
  \  if (x >= y) { r = r + 8; }\n\
  \  if (x == y) { r = r + 16; }\n\
  \  if (x != y) { r = r + 32; }\n\
  \  double s = x + y;\n\
  \  double d = x - y;\n\
  \  double p = x * y;\n\
  \  double q = x / y;\n\
  \  if (p == p) { r = r + 64; }\n\
  \  if (q != q) { r = r + 128; }\n\
  \  int ci = s;\n\
  \  int cd = d;\n\
  \  return r + ci - (ci / 1000) * 1000 + cd - (cd / 1000) * 1000;\n\
   }\n"

(* Renorm boundaries: arithmetic around Int64.min_int/max_int and the
   I32 boundaries, int->float->int round trips, signed comparisons on
   un-normalized inputs. *)
let adversarial_int_src =
  "int main(int n) {\n\
  \  int a = n + 1;\n\
  \  int b = n - 1;\n\
  \  int c = n * 3;\n\
  \  int d = n / 5;\n\
  \  int e = n - (n / 7) * 7;\n\
  \  double f = n;\n\
  \  int g = f;\n\
  \  int s = 0;\n\
  \  if (n < a)  { s = s + 1; }\n\
  \  if (n <= b) { s = s + 2; }\n\
  \  if (n > c)  { s = s + 4; }\n\
  \  if (n >= d) { s = s + 8; }\n\
  \  if (n == e) { s = s + 16; }\n\
  \  if (n != g) { s = s + 32; }\n\
  \  if (f < 0.0) { s = s + 64; }\n\
  \  return a + b + c + d + e + g + s;\n\
   }\n"

let adversarial_fcmp_mod = lazy (compile adversarial_fcmp_src)
let adversarial_int_mod = lazy (compile adversarial_int_src)

(* Every compare predicate, including the unsigned ones the frontend
   never emits, on every operand shape: two registers, a register and
   a constant, a constant and a register.  Each compare runs twice:
   once as a value (a bit of [acc]) and once as the condition of a
   branch that compare-and-branch fusion folds (a bit of a memory
   cell).  [compare_grid_fn ~name ty preds consts cmp] is the function
   [name](x, y : ty) returning [acc * 1000003 + cell]. *)
let compare_grid_fn ~name ty preds consts cmp =
  let open Ir.Builder in
  let i64 = Ir.Ty.I64 in
  let b =
    create (Ir.Func.create ~name ~params:[ (0, ty); (1, ty) ] ~ret_ty:i64)
  in
  position_at b (new_block b ~name:"entry");
  let cell = alloca b i64 1 in
  store b (ci64 0L) (reg cell);
  let shapes =
    (reg 0, reg 1)
    :: List.concat_map (fun k -> [ (reg 0, k); (k, reg 1) ]) consts
  in
  let acc = ref (ci64 0L) and bit = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun (x, y) ->
          let z = cast b Ir.Instr.Zext i64 (reg (cmp b p x y)) in
          let s = binop b Ir.Instr.Shl i64 !acc (ci64 1L) in
          acc := reg (binop b Ir.Instr.Or i64 (reg s) (reg z));
          let taken = new_block b ~name:"taken"
          and next = new_block b ~name:"next" in
          cond_br b
            (reg (cmp b p x y))
            taken.Ir.Block.label next.Ir.Block.label;
          position_at b taken;
          let v = load b i64 (reg cell) in
          let mask = ci64 (Int64.shift_left 1L !bit) in
          let v = binop b Ir.Instr.Or i64 (reg v) mask in
          store b (reg v) (reg cell);
          br b next.Ir.Block.label;
          position_at b next;
          incr bit)
        shapes)
    preds;
  let m = binop b Ir.Instr.Mul i64 !acc (ci64 1000003L) in
  let v = load b i64 (reg cell) in
  ret b (Some (reg (binop b Ir.Instr.Add i64 (reg m) (reg v))));
  finish b

let compare_grid_mod =
  lazy
    (let m = Ir.Irmod.create ~name:"cmpgrid" in
     Ir.Irmod.add_func m
       (compare_grid_fn ~name:"icmps" Ir.Ty.I64
          Ir.Instr.[ Ieq; Ine; Islt; Isle; Isgt; Isge; Iult; Iule; Iugt; Iuge ]
          Ir.Builder.[ ci64 0x8000_0000L; ci64 (-1L) ]
          Ir.Builder.icmp);
     Ir.Irmod.add_func m
       (compare_grid_fn ~name:"fcmps" Ir.Ty.F64
          Ir.Instr.[ Foeq; Fone; Folt; Fole; Fogt; Foge ]
          Ir.Builder.[ cf64 0.5; cf64 Float.nan ]
          Ir.Builder.fcmp);
     m)

let test_adversarial_scalars () =
  let fm = Lazy.force adversarial_fcmp_mod in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          ignore
            (diff_all_tunings
               ~args:[ Ir.Eval.VFloat x; Ir.Eval.VFloat y ]
               (Printf.sprintf "fcmp x=%h y=%h" x y)
               fm))
        adversarial_floats)
    adversarial_floats;
  let im = Lazy.force adversarial_int_mod in
  List.iter
    (fun n ->
      ignore
        (diff_all_tunings ~args:[ Ir.Eval.VInt n ]
           (Printf.sprintf "intedge n=%Ld" n)
           im))
    adversarial_ints;
  let gm = Lazy.force compare_grid_mod in
  let grid entry value show xs =
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            ignore
              (diff_all_tunings ~entry ~args:[ value x; value y ]
                 (Printf.sprintf "%s x=%s y=%s" entry (show x) (show y))
                 gm))
          xs)
      xs
  in
  grid "icmps" (fun n -> Ir.Eval.VInt n) Int64.to_string adversarial_ints;
  grid "fcmps"
    (fun f -> Ir.Eval.VFloat f)
    (Printf.sprintf "%h") adversarial_floats

(* [check_fault_parity_tunings] over arbitrary entry args, so the
   faulting input can be an adversarial float. *)
let fault_msg_args ?fuel ~engine ?tuning ~args m =
  try
    ignore (Vm.Machine.run ?fuel ~engine ?tuning m ~entry:"main" ~args);
    None
  with Vm.Machine.Fault msg -> Some msg

let check_fault_parity_tunings_args ?fuel what ~args m =
  let r = fault_msg_args ?fuel ~engine:Vm.Machine.Reference ~args m in
  Alcotest.(check bool) (what ^ ": faulted") true (r <> None);
  List.iter
    (fun tuning ->
      let t =
        fault_msg_args ?fuel ~engine:Vm.Machine.Threaded ~tuning ~args m
      in
      Alcotest.(check (option string))
        (what ^ " [" ^ tuning_tag tuning ^ "]")
        r t)
    all_tunings

let test_adversarial_fault_parity () =
  (* A NaN/huge float cast to an array index: NaN casts to 0 (in
     bounds, engines must agree on the value), while an out-of-range
     double must produce the same wild-index fault message under every
     tuning, regalloc included. *)
  let m =
    compile
      "int a[8];\n\
       int main(double x) { int i = x; a[2] = 9; return a[i] + 1; }\n"
  in
  ignore
    (diff_all_tunings ~args:[ Ir.Eval.VFloat Float.nan ] "nan index" m);
  check_fault_parity_tunings_args "huge index"
    ~args:[ Ir.Eval.VFloat 1e18 ]
    m;
  check_fault_parity_tunings_args "negative index"
    ~args:[ Ir.Eval.VFloat (-3.0) ]
    m;
  (* -inf casts to Int64.min_int, whose low 63 bits make the address
     wrap back in bounds: no fault, but every engine must wrap the same
     way. *)
  ignore
    (diff_all_tunings
       ~args:[ Ir.Eval.VFloat Float.neg_infinity ]
       "neg-inf index" m)

let qcheck_adversarial_floats =
  let open QCheck in
  let special = Gen.oneofl adversarial_floats in
  let gen = Gen.(pair (oneof [ special; float ]) (oneof [ special; float ])) in
  Test.make ~name:"adversarial float pairs: all tunings agree" ~count:40
    (make gen) (fun (x, y) ->
      ignore
        (diff_all_tunings
           ~args:[ Ir.Eval.VFloat x; Ir.Eval.VFloat y ]
           (Printf.sprintf "qfcmp x=%h y=%h" x y)
           (Lazy.force adversarial_fcmp_mod));
      true)

let qcheck_adversarial_ints =
  let open QCheck in
  let special = Gen.oneofl adversarial_ints in
  let gen = Gen.(oneof [ special; map Int64.of_int int ]) in
  Test.make ~name:"adversarial ints: all tunings agree" ~count:40 (make gen)
    (fun n ->
      ignore
        (diff_all_tunings ~args:[ Ir.Eval.VInt n ]
           (Printf.sprintf "qint n=%Ld" n)
           (Lazy.force adversarial_int_mod));
      true)

(* ------------------------------------------------------------------ *)
(* Call seam (typed arguments, returns, per-depth frames), divisions   *)
(* ------------------------------------------------------------------ *)

(* The typed calling convention: arguments move lane to lane, results
   come back through the typed return cell, frames come from a
   per-function stack indexed by recursion depth.  Every case is built
   from IR (shapes the frontend never emits included) and runs under
   all 18 tunings against the Reference engine. *)

(* A module with global "cells" (eight i64s: 10, 20, ..., 80) and the
   given functions; [fn ~name ~params ~ret_ty body] builds one function
   whose entry block [body] fills. *)
let seam_module funcs =
  let m = Ir.Irmod.create ~name:"seam" in
  Ir.Irmod.add_global m
    {
      Ir.Irmod.gname = "cells";
      gty = Ir.Ty.I64;
      gsize = 8;
      ginit =
        Ir.Irmod.Ints (Array.init 8 (fun k -> Int64.of_int (10 * (k + 1))));
    };
  List.iter (Ir.Irmod.add_func m) funcs;
  m

let fn ~name ~params ~ret_ty body =
  let b = Ir.Builder.create (Ir.Func.create ~name ~params ~ret_ty) in
  Ir.Builder.position_at b (Ir.Builder.new_block b ~name:"entry");
  body b;
  Ir.Builder.finish b

let cells_base b = Ir.Builder.add b Ir.Ty.Ptr (Ir.Instr.Gaddr "cells")

let test_call_seam_arity () =
  let open Ir.Builder in
  let two =
    fn ~name:"two" ~params:[ (0, Ir.Ty.I64); (1, Ir.Ty.I64) ]
      ~ret_ty:Ir.Ty.I64 (fun b ->
        ret b (Some (reg (binop b Ir.Instr.Add Ir.Ty.I64 (reg 0) (reg 1)))))
  in
  let main =
    fn ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64 (fun b ->
        ret b (Some (reg (call b Ir.Ty.I64 "two" [ reg 0 ]))))
  in
  let m = seam_module [ two; main ] in
  Alcotest.(check string) "arity rejection text"
    "main/bb0: call to @two with 1 arguments, expected 2"
    (check_rejected "arity mismatch" ~names:"@two" m)

(* An int register passed to a float parameter: rejected, so neither
   engine carries an int into a float frame. *)
let test_call_seam_int_to_float () =
  let open Ir.Builder in
  let half =
    fn ~name:"half" ~params:[ (0, Ir.Ty.F64) ] ~ret_ty:Ir.Ty.F64 (fun b ->
        ret b
          (Some (reg (binop b Ir.Instr.Fmul Ir.Ty.F64 (reg 0) (cf64 0.5)))))
  in
  let main =
    fn ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64 (fun b ->
        let t = binop b Ir.Instr.Add Ir.Ty.I64 (reg 0) (ci64 1L) in
        let h = call b Ir.Ty.F64 "half" [ reg t ] in
        ret b (Some (reg (cast b Ir.Instr.Fptosi Ir.Ty.I64 (reg h)))))
  in
  let m = seam_module [ half; main ] in
  Alcotest.(check string) "int to float rejection text"
    "main/bb0: call.half: operand has type i64, expected f64"
    (check_rejected "int to float param" ~names:"call.half" m)

(* A ptr register into an i64 parameter and an i64 holding an address
   into a ptr parameter: both arguments are rejected. *)
let test_call_seam_ptr_int () =
  let open Ir.Builder in
  let pick =
    fn ~name:"pick" ~params:[ (0, Ir.Ty.I64); (1, Ir.Ty.Ptr) ]
      ~ret_ty:Ir.Ty.I64 (fun b ->
        let v = load b Ir.Ty.I64 (reg 1) in
        ret b (Some (reg (binop b Ir.Instr.Add Ir.Ty.I64 (reg 0) (reg v)))))
  in
  let main =
    fn ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64 (fun b ->
        let base = cells_base b in
        let k = binop b Ir.Instr.Add Ir.Ty.I64 (reg base) (reg 0) in
        ret b (Some (reg (call b Ir.Ty.I64 "pick" [ reg base; reg k ]))))
  in
  let m = seam_module [ pick; main ] in
  let msg = check_rejected "ptr<->int args" ~names:"call.pick" m in
  List.iter
    (fun line ->
      Alcotest.(check bool) ("ptr<->int args rejects: " ^ line) true
        (List.mem line (String.split_on_char '\n' msg)))
    [
      "main/bb0: call.pick: operand has type ptr, expected i64";
      "main/bb0: call.pick: operand has type i64, expected ptr";
    ]

(* Float and ptr returns, immediate returns, a result read after a
   later call has overwritten the return cell, and a void callee whose
   (absent) result is ignored; the entries [main], [fmain] and [pmain]
   also return an int, a float and a ptr through the run's exit
   seam. *)
let test_call_seam_returns () =
  let open Ir.Builder in
  let fret =
    fn ~name:"fret" ~params:[ (0, Ir.Ty.F64) ] ~ret_ty:Ir.Ty.F64 (fun b ->
        ret b
          (Some (reg (binop b Ir.Instr.Fmul Ir.Ty.F64 (reg 0) (cf64 2.5)))))
  and fk =
    fn ~name:"fk" ~params:[] ~ret_ty:Ir.Ty.F64 (fun b ->
        ret b (Some (cf64 0.25)))
  and pret =
    fn ~name:"pret" ~params:[ (0, Ir.Ty.Ptr); (1, Ir.Ty.I64) ]
      ~ret_ty:Ir.Ty.Ptr (fun b -> ret b (Some (reg (gep b (reg 0) (reg 1)))))
  and seven =
    fn ~name:"seven" ~params:[] ~ret_ty:Ir.Ty.I64 (fun b ->
        ret b (Some (ci64 7L)))
  and nine =
    fn ~name:"nine" ~params:[] ~ret_ty:Ir.Ty.I64 (fun b ->
        ret b (Some (ci64 9L)))
  and boxed =
    (* the first call's result, returned after the second call left 9
       in the return cell's int lane *)
    fn ~name:"boxed" ~params:[] ~ret_ty:Ir.Ty.I64 (fun b ->
        let v = call b Ir.Ty.I64 "seven" [] in
        ignore (call b Ir.Ty.I64 "nine" []);
        ret b (Some (reg v)))
  and vd =
    fn ~name:"vd" ~params:[ (0, Ir.Ty.Ptr); (1, Ir.Ty.I64) ]
      ~ret_ty:Ir.Ty.Void (fun b ->
        store b (reg 1) (reg 0);
        ret b None)
  in
  let body b =
    let base = cells_base b in
    let f = cast b Ir.Instr.Sitofp Ir.Ty.F64 (reg 0) in
    let a = call b Ir.Ty.F64 "fret" [ reg f ] in
    let k = call b Ir.Ty.F64 "fk" [] in
    let s = binop b Ir.Instr.Fadd Ir.Ty.F64 (reg a) (reg k) in
    let q = call b Ir.Ty.Ptr "pret" [ reg base; ci64 3L ] in
    ignore (call b Ir.Ty.Void "vd" [ reg q; reg 0 ]);
    let l = load b Ir.Ty.I64 (reg q) in
    let t = call b Ir.Ty.I64 "boxed" [] in
    (s, q, l, t)
  in
  let main =
    fn ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64 (fun b ->
        let s, _, l, t = body b in
        let si = cast b Ir.Instr.Fptosi Ir.Ty.I64 (reg s) in
        let mul k v = binop b Ir.Instr.Mul Ir.Ty.I64 (ci64 k) (reg v) in
        let add x y = binop b Ir.Instr.Add Ir.Ty.I64 (reg x) (reg y) in
        ret b (Some (reg (add (add (mul 10_000L si) (mul 100L l)) t))))
  and fmain =
    fn ~name:"fmain" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.F64 (fun b ->
        let s, _, _, _ = body b in
        ret b (Some (reg s)))
  and pmain =
    fn ~name:"pmain" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.Ptr (fun b ->
        let _, q, _, _ = body b in
        ret b (Some (reg q)))
  in
  let m =
    seam_module [ fret; fk; pret; seven; nine; boxed; vd; main; fmain; pmain ]
  in
  List.iter
    (fun n ->
      let args = [ Ir.Eval.VInt (Int64.of_int n) ] in
      let what = Printf.sprintf "returns n=%d" n in
      let out = diff_all_tunings ~args what m in
      let s = (2.5 *. float_of_int n) +. 0.25 in
      Alcotest.(check int) (what ^ ": main")
        ((10_000 * int_of_float s) + (100 * n) + 7)
        (ret_int out);
      let fout = diff_all_tunings ~entry:"fmain" ~args (what ^ " fmain") m in
      Alcotest.(check bool) (what ^ ": fmain") true
        (fout.Vm.Machine.ret = Some (Ir.Eval.VFloat s));
      let pout = diff_all_tunings ~entry:"pmain" ~args (what ^ " pmain") m in
      Alcotest.(check bool) (what ^ ": pmain") true
        (pout.Vm.Machine.ret = Some (Ir.Eval.VPtr 4)))
    [ 0; 1; 6 ]

(* [even]/[odd] recurse into each other with an int, a float and a ptr
   that each invocation reads again after its call returns, so a
   callee that shared its caller's frame — or a depth that shared
   another depth's — corrupts the result.  n = 7 is eight invocations,
   four per function. *)
let test_call_seam_mutual_recursion () =
  let open Ir.Builder in
  let rec_fn ~name ~other ~k =
    let f =
      Ir.Func.create ~name
        ~params:[ (0, Ir.Ty.I64); (1, Ir.Ty.F64); (2, Ir.Ty.Ptr) ]
        ~ret_ty:Ir.Ty.I64
    in
    let b = Ir.Builder.create f in
    let entry = new_block b ~name:"entry" in
    let stop = new_block b ~name:"stop" in
    let recur = new_block b ~name:"recur" in
    position_at b entry;
    let c = icmp b Ir.Instr.Ieq (reg 0) (ci64 0L) in
    cond_br b (reg c) stop.Ir.Block.label recur.Ir.Block.label;
    position_at b stop;
    ret b (Some (reg (load b Ir.Ty.I64 (reg 2))));
    position_at b recur;
    let n1 = binop b Ir.Instr.Sub Ir.Ty.I64 (reg 0) (ci64 1L) in
    let x1 = binop b Ir.Instr.Fmul Ir.Ty.F64 (reg 1) (cf64 1.5) in
    let p1 = gep b (reg 2) (ci64 1L) in
    let r = call b Ir.Ty.I64 other [ reg n1; reg x1; reg p1 ] in
    let w = load b Ir.Ty.I64 (reg 2) in
    let xi = cast b Ir.Instr.Fptosi Ir.Ty.I64 (reg 1) in
    let add x y = binop b Ir.Instr.Add Ir.Ty.I64 (reg x) (reg y) in
    let rk = binop b Ir.Instr.Mul Ir.Ty.I64 (reg r) (ci64 k) in
    ret b (Some (reg (add (add (add rk 0) xi) w)));
    Ir.Builder.finish b
  in
  let even = rec_fn ~name:"even" ~other:"odd" ~k:3L
  and odd = rec_fn ~name:"odd" ~other:"even" ~k:(-2L) in
  let main =
    fn ~name:"main" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64 (fun b ->
        let base = cells_base b in
        ret b
          (Some (reg (call b Ir.Ty.I64 "even" [ reg 0; cf64 2.0; reg base ]))))
  in
  let m = seam_module [ even; odd; main ] in
  (* the same recursion in OCaml: depth d reads cell d and x = 2 * 1.5^d *)
  let rec expect d n =
    let cell = 10 * (d + 1) in
    if n = 0 then cell
    else
      let k = if d mod 2 = 0 then 3 else -2 in
      (k * expect (d + 1) (n - 1))
      + n
      + int_of_float (2.0 *. (1.5 ** float_of_int d))
      + cell
  in
  List.iter
    (fun n ->
      (* a small budget turns a runaway recursion into a quick fault *)
      let out =
        diff_all_n ~fuel:100_000L ~n
          (Printf.sprintf "mutual recursion n=%d" n)
          m
      in
      Alcotest.(check int)
        (Printf.sprintf "mutual recursion n=%d value" n)
        (expect 0 n) (ret_int out))
    [ 0; 1; 4; 7 ]

(* main -> f1 -> f2 -> f3, where f3 loops [n] times: the fuel runs out
   inside the depth-3 callee under every tuning, with the Reference
   engine's message, and a budget that suffices leaves every engine
   with the same clocks. *)
let test_call_seam_fuel_depth3 () =
  let open Ir.Builder in
  let f3 =
    let f =
      Ir.Func.create ~name:"f3" ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64
    in
    let b = Ir.Builder.create f in
    let entry = new_block b ~name:"entry" in
    let loop = new_block b ~name:"loop" in
    let exit = new_block b ~name:"exit" in
    position_at b entry;
    br b loop.Ir.Block.label;
    position_at b loop;
    let i = phi b Ir.Ty.I64 [] in
    let i1 = binop b Ir.Instr.Add Ir.Ty.I64 (reg i) (ci64 1L) in
    let c = icmp b Ir.Instr.Islt (reg i1) (reg 0) in
    cond_br b (reg c) loop.Ir.Block.label exit.Ir.Block.label;
    Ir.Block.set_instrs loop
      (List.map
         (fun (ins : Ir.Instr.t) ->
           if ins.Ir.Instr.id = i then
             {
               ins with
               Ir.Instr.kind =
                 Ir.Instr.Phi
                   [
                     (entry.Ir.Block.label, ci64 0L);
                     (loop.Ir.Block.label, reg i1);
                   ];
             }
           else ins)
         loop.Ir.Block.instrs);
    position_at b exit;
    ret b (Some (reg i1));
    Ir.Builder.finish b
  in
  let pass ~name ~callee =
    fn ~name ~params:[ (0, Ir.Ty.I64) ] ~ret_ty:Ir.Ty.I64 (fun b ->
        let r = call b Ir.Ty.I64 callee [ reg 0 ] in
        ret b (Some (reg (binop b Ir.Instr.Add Ir.Ty.I64 (reg r) (ci64 1L)))))
  in
  let m =
    seam_module
      [
        f3;
        pass ~name:"f2" ~callee:"f3";
        pass ~name:"f1" ~callee:"f2";
        pass ~name:"main" ~callee:"f1";
      ]
  in
  check_fault_parity_tunings ~fuel:500L "fuel out at depth 3" ~n:1_000 m;
  Alcotest.(check (option string))
    "fault names the depth-3 callee"
    (Some "execution budget exhausted in @f3")
    (fault_msg ~fuel:500L ~engine:Vm.Machine.Reference ~n:1_000 m);
  let out = diff_all_n ~fuel:500L ~n:20 "fuel suffices at depth 3" m in
  Alcotest.(check int) "depth-3 value" 23 (ret_int out)

(* Typed integer division arms (slot and constant operands, I32 and
   I64, signed and unsigned) and the typed one-argument float
   intrinsics, against the boxed Reference arithmetic; a zero divisor
   faults with the same message. *)
let test_typed_division_intrinsics () =
  let open Ir.Builder in
  let main =
    fn ~name:"main" ~params:[ (0, Ir.Ty.I64); (1, Ir.Ty.I64) ]
      ~ret_ty:Ir.Ty.I64 (fun b ->
        let acc = ref None in
        (* an i32 result is sign-extended before it joins the i64 hash *)
        let mix ?(ty = Ir.Ty.I64) v =
          let v =
            if ty = Ir.Ty.I64 then reg v
            else reg (cast b Ir.Instr.Sext Ir.Ty.I64 (reg v))
          in
          acc :=
            Some
              (match !acc with
              | None -> v
              | Some a ->
                  let m = binop b Ir.Instr.Mul Ir.Ty.I64 a (ci64 31L) in
                  reg (binop b Ir.Instr.Xor Ir.Ty.I64 (reg m) v))
        in
        let x32 = cast b Ir.Instr.Trunc Ir.Ty.I32 (reg 0)
        and y32 = cast b Ir.Instr.Trunc Ir.Ty.I32 (reg 1) in
        List.iter
          (fun op ->
            List.iter
              (fun (ty, x, y, k) ->
                mix ~ty (binop b op ty x y);
                mix ~ty (binop b op ty x k);
                mix ~ty (binop b op ty k y))
              [
                (Ir.Ty.I64, reg 0, reg 1, ci64 (-7L));
                (Ir.Ty.I32, reg x32, reg y32, ci32 (-7));
              ])
          Ir.Instr.[ Sdiv; Srem; Udiv; Urem ];
        let f = cast b Ir.Instr.Sitofp Ir.Ty.F64 (reg 0) in
        let fa = call b Ir.Ty.F64 "fabs" [ reg f ] in
        List.iter
          (fun name ->
            let r = call b Ir.Ty.F64 name [ reg fa ] in
            let s = binop b Ir.Instr.Fmul Ir.Ty.F64 (reg r) (cf64 1000.0) in
            mix (cast b Ir.Instr.Fptosi Ir.Ty.I64 (reg s)))
          [ "sqrt"; "sin"; "cos"; "atan"; "exp"; "log"; "floor" ];
        ret b !acc)
  in
  let m = seam_module [ main ] in
  let pairs =
    [
      (100L, 7L);
      (-100L, 7L);
      (100L, -7L);
      (Int64.min_int, -1L);
      (Int64.max_int, 3L);
      (0x1_2345_6789L, 0xFFFF_FFF1L);
      (-1L, 2L);
      (5L, Int64.add Int64.min_int 3L);
    ]
  in
  List.iter
    (fun (x, y) ->
      ignore
        (diff_all_tunings
           ~args:[ Ir.Eval.VInt x; Ir.Eval.VInt y ]
           (Printf.sprintf "typed division x=%Ld y=%Ld" x y)
           m))
    pairs;
  check_fault_parity_tunings_args "division by zero"
    ~args:[ Ir.Eval.VInt 9L; Ir.Eval.VInt 0L ]
    m

(* ------------------------------------------------------------------ *)
(* Allocation probe: the typed hot path allocates (almost) nothing     *)
(* ------------------------------------------------------------------ *)

(* The whole point of the typed register file and the typed memory
   cells is that hot paths stop boxing scalars.  Measure minor-heap
   words per executed dynamic instruction on real registry workloads.
   Gc.minor_words is an exact allocation counter, not a timing, so this
   is deterministic enough for CI.

   Two kinds of check:
   - relative: regalloc on allocates no more than regalloc off (sor);
   - absolute ceilings under [default_tuning]: sor (float loops over
     memory, no calls) stays below 0.05 words per instruction, and
     429.mcf (int-heavy) below 1.0.  A boxing site reintroduced on a
     hot arm — an int64 array lane, or a cross-module call that boxes
     its scalar arguments — costs 2 or more words per instruction and
     fails here.  The call-heavy apps guard the typed calling
     convention, at about twice their measured values: 458.sjeng
     (1.9 M calls per dataset set) below 0.015, whetstone below 0.025
     and adpcm (calls and divisions) below 0.008.  A call that boxed
     its arguments or return again, or allocated its frame, costs
     about 80 words per call: 0.5 or more per instruction on each. *)
let minor_words_per_instr name tuning =
  let w = Option.get (W.Registry.find name) in
  let compiled = W.Workload.compile w in
  (* Warm-up run: module-level lazies and shared caches settle. *)
  ignore (run_datasets ~engine:Vm.Machine.Threaded ~tuning compiled w);
  let before = Gc.minor_words () in
  let outs = run_datasets ~engine:Vm.Machine.Threaded ~tuning compiled w in
  let after = Gc.minor_words () in
  let instrs =
    List.fold_left
      (fun acc (_, (o : Vm.Machine.outcome)) ->
        Int64.add acc o.profile.Vm.Profile.executed_instrs)
      0L outs
  in
  (after -. before) /. Int64.to_float instrs

(* [name]'s module adapted to its whole selection, the adapted CI
   registry, and the size of its last dataset. *)
let adapted_module name =
  let w = Option.get (W.Registry.find name) in
  let spec = Core.Spec.default |> Core.Spec.with_prune Ise.Prune.none in
  let r = Core.Experiment.evaluate ~spec (Pp.Database.create ()) w in
  let adapt =
    Core.Adapt.apply r.Core.Experiment.compiled.F.Compiler.modul
      r.Core.Experiment.report.Core.Asip_sp.selection
  in
  ( adapt.Core.Adapt.registry,
    adapt.Core.Adapt.modul,
    (List.hd (List.rev w.W.Workload.datasets)).W.Workload.n )

(* Minor words per dynamic instruction of one monitored run of [name]'s
   adapted module, on its last dataset, with [lanes] clock lanes, set up
   like the online controller's run: every CI starts at a software cost
   in every lane, a phase window observes every block, and each closed
   window rebinds every CI between software and hardware cost, odd
   lanes in the opposite mode to even ones. *)
let monitored_adapted_words_per_instr ~lanes name =
  let cis, m, n = adapted_module name in
  let run () =
    let window =
      Vm.Profile.Window.create ~size:4096 ~decay:0.5
        ~blocks:(Ir.Irmod.num_blocks m)
    in
    let bind ctl hw =
      Hashtbl.iter
        (fun id (impl : Vm.Machine.ci_impl) ->
          ctl.Vm.Machine.ctl_bind id
            (if hw then float_of_int impl.Vm.Machine.ci_cycles else 40.0))
        cis
    in
    let monitor ctls =
      Array.iter (fun ctl -> bind ctl false) ctls;
      let hw = ref false in
      fun bid ->
        if Vm.Profile.Window.observe window bid then begin
          Vm.Profile.Window.advance window;
          hw := not !hw;
          Array.iteri (fun l ctl -> bind ctl (!hw = (l mod 2 = 0))) ctls
        end
    in
    Vm.Machine.run ~cis ~lanes ~monitor m ~entry:"main"
      ~args:[ Ir.Eval.VInt (Int64.of_int n) ]
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let o = run () in
  let after = Gc.minor_words () in
  Alcotest.(check bool) (name ^ ": the adapted module dispatches CIs") true
    (Hashtbl.length cis > 0);
  (after -. before) /. Int64.to_float o.profile.Vm.Profile.executed_instrs

(* Clock lanes: one monitored execution with several lanes reads, in
   each lane, exactly the clocks a single-lane run under that lane's
   schedule reads.  Lane schedules are keyed by the closed-window
   count, [k = 0] being the monitor start, and differ in every
   respect: which CIs they rebind, when, to what, and when they stall. *)
let lane_schedules : (int -> Vm.Machine.control -> int list -> unit) array =
  let bind_all ctl ids c =
    List.iter (fun id -> ctl.Vm.Machine.ctl_bind id c) ids
  in
  [|
    (* software cost from the start, a stall at monitor start, hardware
       cost on every third window *)
    (fun k ctl ids ->
      if k = 0 then begin
        ctl.Vm.Machine.ctl_stall 12345.5;
        bind_all ctl ids 40.0
      end
      else bind_all ctl ids (if k mod 3 = 0 then 3.0 else 40.0));
    (* static binding; odd CIs to software on odd windows, a stall on
       every fifth *)
    (fun k ctl ids ->
      if k > 0 then begin
        if k mod 5 = 0 then ctl.Vm.Machine.ctl_stall 777.25;
        List.iter
          (fun id ->
            if id mod 2 = 1 then
              ctl.Vm.Machine.ctl_bind id (if k mod 2 = 1 then 63.0 else 7.0))
          ids
      end);
    (* a large stall at monitor start, software cost forever *)
    (fun k ctl ids ->
      if k = 0 then begin
        bind_all ctl ids 40.0;
        ctl.Vm.Machine.ctl_stall 1.0e6
      end);
  |]

let test_monitor_lanes_match_single_runs () =
  List.iter
    (fun name ->
      let cis, m, n = adapted_module name in
      let ids =
        List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) cis [])
      in
      Alcotest.(check bool) (name ^ ": the adapted module has CIs") true
        (ids <> []);
      (* Run lanes [sel] of [lane_schedules] as one execution. *)
      let run engine (sel : int array) =
        let window =
          Vm.Profile.Window.create ~size:2048 ~decay:0.5
            ~blocks:(Ir.Irmod.num_blocks m)
        in
        let ctls = ref [||] in
        let monitor cs =
          ctls := cs;
          Array.iteri (fun i ctl -> lane_schedules.(sel.(i)) 0 ctl ids) cs;
          let k = ref 0 in
          fun bid ->
            if Vm.Profile.Window.observe window bid then begin
              Vm.Profile.Window.advance window;
              incr k;
              Array.iteri (fun i ctl -> lane_schedules.(sel.(i)) !k ctl ids) cs
            end
        in
        let o =
          Vm.Machine.run ~cis ~engine ~lanes:(Array.length sel) ~monitor m
            ~entry:"main" ~args:[ Ir.Eval.VInt (Int64.of_int n) ]
        in
        let clocks =
          Array.map
            (fun ctl ->
              ( Int64.bits_of_float (ctl.Vm.Machine.ctl_native ()),
                Int64.bits_of_float (ctl.Vm.Machine.ctl_vm ()) ))
            !ctls
        in
        (o, clocks)
      in
      List.iter
        (fun engine ->
          let what = name ^ " " ^ Vm.Machine.engine_name engine in
          let multi, lanes = run engine [| 0; 1; 2 |] in
          Alcotest.(check bool) (what ^ ": outcome clocks are lane 0's") true
            (lanes.(0)
            = ( Int64.bits_of_float multi.Vm.Machine.native_cycles,
                Int64.bits_of_float multi.Vm.Machine.vm_cycles ));
          Array.iteri
            (fun l clocks ->
              let single, single_clocks = run engine [| l |] in
              let lw = Printf.sprintf "%s lane %d" what l in
              Alcotest.(check bool) (lw ^ ": clocks bit for bit") true
                (clocks = single_clocks.(0));
              Alcotest.(check bool) (lw ^ ": ret") true
                (multi.Vm.Machine.ret = single.Vm.Machine.ret);
              Alcotest.(check bool) (lw ^ ": profile") true
                (Vm.Profile.to_list multi.Vm.Machine.profile
                 = Vm.Profile.to_list single.Vm.Machine.profile
                && multi.Vm.Machine.profile.Vm.Profile.executed_instrs
                   = single.Vm.Machine.profile.Vm.Profile.executed_instrs))
            lanes;
          Alcotest.(check bool) (what ^ ": the schedules disagree") true
            (lanes.(0) <> lanes.(1) && lanes.(1) <> lanes.(2)
            && lanes.(0) <> lanes.(2)))
        Vm.Machine.engines)
    [ "phased.sweep"; "phased.flash" ]

let test_monitor_lanes_validation () =
  let m = compile "int main(int n) { return n; }" in
  let invalid f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let monitor _ _ = () in
  let go ?monitor lanes () =
    Vm.Machine.run ~lanes ?monitor m ~entry:"main" ~args:[ Ir.Eval.VInt 1L ]
  in
  Alcotest.(check bool) "lanes 0" true (invalid (go ~monitor 0));
  Alcotest.(check bool) "lanes -1" true (invalid (go ~monitor (-1)));
  Alcotest.(check bool) "lanes 2 without a monitor" true (invalid (go 2));
  Alcotest.(check bool) "lanes 2 with a monitor" false
    (invalid (go ~monitor 2))

let test_regalloc_allocation_probe () =
  let off =
    minor_words_per_instr "sor"
      { Vm.Machine.default_tuning with regalloc = false }
  in
  let on = minor_words_per_instr "sor" Vm.Machine.default_tuning in
  Alcotest.(check bool)
    (Printf.sprintf
       "regalloc allocates no more per dynamic instr (on=%.3f off=%.3f \
        words/instr)"
       on off)
    true
    (on <= off +. 0.01);
  Alcotest.(check bool)
    (Printf.sprintf "sor: %.4f words/instr < 0.05" on)
    true (on < 0.05);
  let mcf = minor_words_per_instr "429.mcf" Vm.Machine.default_tuning in
  Printf.printf "minor words/instr: sor on=%.4f off=%.4f, 429.mcf %.4f\n" on
    off mcf;
  Alcotest.(check bool)
    (Printf.sprintf "429.mcf: %.4f words/instr < 1.0" mcf)
    true (mcf < 1.0);
  List.iter
    (fun (app, ceiling) ->
      let w = minor_words_per_instr app Vm.Machine.default_tuning in
      Printf.printf "minor words/instr: %s %.4f (ceiling %.3f)\n" app w
        ceiling;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f words/instr < %.3f" app w ceiling)
        true (w < ceiling))
    [ ("458.sjeng", 0.015); ("whetstone", 0.025); ("adpcm", 0.008) ];
  List.iter
    (fun lanes ->
      let mon = monitored_adapted_words_per_instr ~lanes "phased.sweep" in
      Printf.printf
        "minor words/instr: monitored adapted phased.sweep, %d lanes %.4f\n"
        lanes mon;
      Alcotest.(check bool)
        (Printf.sprintf
           "monitored adapted phased.sweep, %d lanes: %.4f words/instr < %.3f"
           lanes mon 0.065)
        true (mon < 0.065))
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* The VM's precondition holds for every module production runs        *)
(* ------------------------------------------------------------------ *)

(* Only two producers build the modules production runs: the MiniC
   frontend (every registry and phased workload) and [Adapt.apply]
   (the adapted module timeline and the online controller run), whose
   splicing must keep every use dominated by its definition.  Each
   registry app is specialized as [timeline] and [online] do and its
   whole selection applied. *)
let test_production_modules_verify () =
  let clean what m =
    Alcotest.(check (list string)) (what ^ " verifies") []
      (List.map
         (Format.asprintf "%a" Ir.Verifier.pp_error)
         (Ir.Verifier.check_module m))
  in
  List.iter
    (fun (w : W.Workload.t) ->
      clean w.W.Workload.name (W.Workload.compile w).F.Compiler.modul)
    (W.Registry.all @ W.Registry.phased);
  let db = Pp.Database.create () in
  let spliced = ref 0 in
  List.iter
    (fun (w : W.Workload.t) ->
      let compiled, report = Core.Experiment.specialize db w in
      let adapt =
        Core.Adapt.apply compiled.F.Compiler.modul
          report.Core.Asip_sp.selection
      in
      spliced := !spliced + Hashtbl.length adapt.Core.Adapt.registry;
      clean (w.W.Workload.name ^ " adapted") adapt.Core.Adapt.modul)
    W.Registry.all;
  Alcotest.(check bool)
    (Printf.sprintf "the adapted modules call %d CIs" !spliced)
    true (!spliced > 0)

(* Every [Machine.run] verifies its module first, so the verifier's
   allocation is paid once per run: it must stay a few words per
   register and block.  Minor words per IR instruction of one
   [check_module] call on each registry module, measured 5-25 (astar
   the highest), are capped at 30; a verifier that builds a list per
   instruction and a hashtable per function takes 32-81 on every one of
   them. *)
let test_verifier_allocation () =
  List.iter
    (fun (w : W.Workload.t) ->
      let m = (W.Workload.compile w).F.Compiler.modul in
      ignore (Ir.Verifier.check_module m);
      let before = Gc.minor_words () in
      ignore (Ir.Verifier.check_module m);
      let per_instr =
        (Gc.minor_words () -. before) /. float_of_int (Ir.Irmod.num_instrs m)
      in
      Printf.printf "verifier minor words/instr: %s %.1f\n" w.W.Workload.name
        per_instr;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f verifier words/instr < 30"
           w.W.Workload.name per_instr)
        true (per_instr < 30.0))
    W.Registry.all

(* Every threaded [Machine.run] computes each function's phi-congruence
   classes ({!Ir.Coalesce}) in one scratch per run.  Minor words per IR
   instruction of that over each registry and phased module, scratch
   included, measured 0.8-3.9 (fft the highest), are capped at 5; the
   same analysis with fresh arrays, a CFG and [Array.sort] per function
   took 2.7-16.2, above 5 on 13 of the 17 modules. *)
let test_coalesce_allocation () =
  List.iter
    (fun (w : W.Workload.t) ->
      let m = (W.Workload.compile w).F.Compiler.modul in
      let classes () =
        let sc = Ir.Coalesce.scratch () in
        List.iter
          (fun f -> ignore (Sys.opaque_identity (Ir.Coalesce.classes sc f)))
          m.Ir.Irmod.funcs
      in
      classes ();
      let before = Gc.minor_words () in
      classes ();
      let per_instr =
        (Gc.minor_words () -. before) /. float_of_int (Ir.Irmod.num_instrs m)
      in
      Printf.printf "coalescing minor words/instr: %s %.2f\n" w.W.Workload.name
        per_instr;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f coalescing words/instr < 5" w.W.Workload.name
           per_instr)
        true (per_instr < 5.0))
    (W.Registry.all @ W.Registry.phased)

(* ------------------------------------------------------------------ *)
(* Engine golden: full Experiment reports are engine-invariant         *)
(* ------------------------------------------------------------------ *)

(* Same projection idea as test_pipeline: the report minus measured
   wall clocks and the stage-record log. *)
type app_projection = {
  p_app : string;
  p_selection : string list;
  p_candidates : (string * float * float * int * float) list;
  p_dropped : int;
  p_const : float;
  p_map : float;
  p_par : float;
  p_sum : float;
  p_attempts_total : int;
  p_failed : int;
  p_ratio : float;
  p_ratio_max : float;
  p_break_even : An.Breakeven.result;
}

let project (r : Core.Experiment.app_result) : app_projection =
  let rep = r.Core.Experiment.report in
  let signature (s : Ise.Select.scored) =
    s.Ise.Select.candidate.Ise.Candidate.signature
  in
  {
    p_app = r.Core.Experiment.workload.W.Workload.name;
    p_selection = List.map signature rep.Core.Asip_sp.selection;
    p_candidates =
      List.map
        (fun (c : Core.Asip_sp.candidate_result) ->
          ( signature c.Core.Asip_sp.scored,
            c.Core.Asip_sp.c2v_seconds,
            c.Core.Asip_sp.total_seconds,
            c.Core.Asip_sp.attempts,
            c.Core.Asip_sp.wasted_seconds ))
        rep.Core.Asip_sp.candidates;
    p_dropped = List.length rep.Core.Asip_sp.dropped;
    p_const = rep.Core.Asip_sp.const_seconds;
    p_map = rep.Core.Asip_sp.map_seconds;
    p_par = rep.Core.Asip_sp.par_seconds;
    p_sum = rep.Core.Asip_sp.sum_seconds;
    p_attempts_total = rep.Core.Asip_sp.total_attempts;
    p_failed = rep.Core.Asip_sp.failed_attempts;
    p_ratio = rep.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio;
    p_ratio_max = rep.Core.Asip_sp.asip_ratio_max.Ise.Speedup.ratio;
    p_break_even = r.Core.Experiment.break_even;
  }

let golden_apps = [ "sor"; "fft" ]

let eval_apps ~spec db =
  List.map
    (fun n ->
      Core.Experiment.evaluate ~spec db (Option.get (W.Registry.find n)))
    golden_apps

let check_reports_identical what a b =
  List.iter2
    (fun x y ->
      let x = project x and y = project y in
      Alcotest.(check bool) (x.p_app ^ " " ^ what) true (x = y))
    a b

let with_engine engine spec = Core.Spec.with_vm_engine engine spec

(* JITISE_CHAOS_SEED, as in test_integration; any seed passes. *)
let fault_seed =
  match Sys.getenv_opt "JITISE_CHAOS_SEED" with
  | Some s -> int_of_string s
  | None -> 20110516

let test_golden_engine_serial () =
  let db = Pp.Database.create () in
  let threaded =
    eval_apps ~spec:(with_engine Vm.Machine.Threaded Core.Spec.default) db
  in
  let reference =
    eval_apps ~spec:(with_engine Vm.Machine.Reference Core.Spec.default) db
  in
  check_reports_identical "report engine-invariant (serial)" threaded
    reference

let test_golden_engine_faults () =
  let db = Pp.Database.create () in
  let spec =
    Core.Spec.default
    |> Core.Spec.with_chaos
         (U.Chaos.with_cad_defaults { U.Chaos.none with U.Chaos.seed = fault_seed })
    |> Core.Spec.with_retry (U.Retry.with_max_attempts 3 U.Retry.default)
  in
  let threaded = eval_apps ~spec:(with_engine Vm.Machine.Threaded spec) db in
  let reference = eval_apps ~spec:(with_engine Vm.Machine.Reference spec) db in
  check_reports_identical "report engine-invariant (faults on)" threaded
    reference

let test_golden_engine_digests () =
  (* Stage digests exclude the engine knob, so a store warmed under one
     engine serves the other: re-evaluating under Reference against a
     Threaded-warmed store recomputes NO profile stage. *)
  let db = Pp.Database.create () in
  let store = U.Artifact.create () in
  let warm_spec =
    Core.Spec.default
    |> Core.Spec.with_stage_cache store
    |> with_engine Vm.Machine.Threaded
  in
  let warm = eval_apps ~spec:warm_spec db in
  let cold_spec =
    Core.Spec.default
    |> Core.Spec.with_stage_cache store
    |> with_engine Vm.Machine.Reference
  in
  let again = eval_apps ~spec:cold_spec db in
  check_reports_identical "warm-store report engine-invariant" warm again;
  List.iter
    (fun r ->
      let records = r.Core.Experiment.report.Core.Asip_sp.stage_records in
      Alcotest.(check int)
        ((project r).p_app ^ ": profile served from the other engine's store")
        0
        (Fixtures.computed_of records "profile"))
    again

let () =
  Alcotest.run "vm"
    [
      ( "memory",
        [
          Alcotest.test_case "alloc/store/load" `Quick test_memory_alloc_store_load;
          Alcotest.test_case "bad address" `Quick test_memory_bad_address;
          Alcotest.test_case "frames" `Quick test_memory_frames;
          Alcotest.test_case "globals" `Quick test_memory_globals;
          Alcotest.test_case "limit" `Quick test_memory_limit;
          Alcotest.test_case "typed cells: tags" `Quick test_memory_typed_tags;
          Alcotest.test_case "typed cells: mismatch" `Quick
            test_memory_typed_mismatch;
          Alcotest.test_case "typed cells: bad address first" `Quick
            test_memory_typed_bad_address_first;
          Alcotest.test_case "typed cells: growth" `Quick
            test_memory_typed_growth;
          Alcotest.test_case "failed alloc" `Quick test_memory_failed_alloc;
        ] );
      ( "profile",
        [
          Alcotest.test_case "counts" `Quick test_profile_counts;
          Alcotest.test_case "merge" `Quick test_profile_merge;
          Alcotest.test_case "block costs" `Quick test_profile_block_costs_ordering;
          Alcotest.test_case "window: create validation" `Quick
            test_window_create_validation;
          Alcotest.test_case "window: counts and decay" `Quick
            test_window_counts;
          QCheck_alcotest.to_alcotest qcheck_window_model;
        ] );
      ( "machine",
        [
          Alcotest.test_case "phi swap" `Quick test_machine_phi_swap;
          Alcotest.test_case "faults" `Quick test_machine_faults;
          Alcotest.test_case "missing entry" `Quick test_machine_missing_entry;
          Alcotest.test_case "fuel" `Quick test_machine_fuel;
          Alcotest.test_case "clocks" `Quick test_machine_clocks;
          Alcotest.test_case "hot loop amortizes" `Quick test_machine_hot_loop_amortizes;
          Alcotest.test_case "deterministic" `Quick test_machine_deterministic;
          Alcotest.test_case "ci call" `Quick test_machine_ci_call;
        ] );
      ( "jit model",
        [
          Alcotest.test_case "translation" `Quick test_jit_model_translation;
          Alcotest.test_case "block cycles" `Quick test_jit_model_block_cycles;
          Alcotest.test_case "dispatch accounting" `Quick
            test_dispatch_accounting;
          Alcotest.test_case "clock" `Quick test_seconds_of_cycles;
        ] );
      ( "engine differential",
        [
          Alcotest.test_case "mode family" `Quick test_diff_mode_family;
          Alcotest.test_case "phase family" `Quick test_diff_phase_family;
          Alcotest.test_case "intrinsics" `Quick test_diff_intrinsics;
          Alcotest.test_case "recursion" `Quick test_diff_recursion;
          Alcotest.test_case "switch first-match" `Quick test_diff_switch;
          Alcotest.test_case "ci call" `Quick test_diff_ci_call;
          Alcotest.test_case "fault parity" `Quick test_diff_fault_parity;
          Alcotest.test_case "rejects read before write" `Quick
            test_reject_read_before_write;
          Alcotest.test_case "registry workloads" `Slow
            test_diff_registry_workloads;
          Alcotest.test_case "registry workloads, knobs off" `Slow
            test_diff_registry_knobs_off;
          QCheck_alcotest.to_alcotest qcheck_diff_generated;
        ] );
      ( "tuning differential",
        [
          Alcotest.test_case "self loop" `Quick test_tuning_self_loop;
          Alcotest.test_case "block cycle" `Quick test_tuning_block_cycle;
          Alcotest.test_case "switch heavy" `Quick test_tuning_switch_heavy;
          Alcotest.test_case "fuel mid-chain" `Quick
            test_tuning_fuel_mid_chain;
          Alcotest.test_case "ci call" `Quick test_tuning_ci_call;
          Alcotest.test_case "ci bodies" `Quick test_tuning_ci_bodies;
          Alcotest.test_case "load-sink faults" `Quick
            test_tuning_load_sink_faults;
          Alcotest.test_case "mixed-class phi cycle" `Quick
            test_tuning_phi_cycle;
          Alcotest.test_case "conflicting phi rows" `Quick
            test_tuning_phi_row_conflicts;
          Alcotest.test_case "phi row missing entry" `Quick
            test_tuning_phi_row_missing_entry;
          Alcotest.test_case "coalesced phi row conflict" `Quick
            test_tuning_coalesced_conflict;
          Alcotest.test_case "rejects unknown global" `Quick
            test_reject_unknown_global;
          Alcotest.test_case "address fusion: slot hazard" `Quick
            test_fusion_slot_hazard;
          Alcotest.test_case "address fusion: fault parity" `Quick
            test_fusion_fault_parity;
          Alcotest.test_case "address fusion: multi-use" `Quick
            test_fusion_multi_use;
          Alcotest.test_case "address fusion: ci site" `Quick
            test_fusion_ci_site;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20110516 |])
            qcheck_loop_nests;
          Alcotest.test_case "sink slots" `Quick test_tuning_sink_slots;
          Alcotest.test_case "typed memory cells" `Quick
            test_tuning_typed_memory;
          Alcotest.test_case "call seam: arity mismatch" `Quick
            test_call_seam_arity;
          Alcotest.test_case "call seam: int to float param" `Quick
            test_call_seam_int_to_float;
          Alcotest.test_case "call seam: ptr/int args" `Quick
            test_call_seam_ptr_int;
          Alcotest.test_case "call seam: returns" `Quick test_call_seam_returns;
          Alcotest.test_case "call seam: mutual recursion" `Quick
            test_call_seam_mutual_recursion;
          Alcotest.test_case "call seam: fuel at depth 3" `Quick
            test_call_seam_fuel_depth3;
          Alcotest.test_case "typed division and intrinsics" `Quick
            test_typed_division_intrinsics;
          Alcotest.test_case "fusion stats" `Quick test_fusion_stats;
        ] );
      ( "adversarial scalars",
        [
          Alcotest.test_case "fcmp/cast/renorm sweep" `Quick
            test_adversarial_scalars;
          Alcotest.test_case "fault parity" `Quick
            test_adversarial_fault_parity;
          QCheck_alcotest.to_alcotest qcheck_adversarial_floats;
          QCheck_alcotest.to_alcotest qcheck_adversarial_ints;
          Alcotest.test_case "allocation probe" `Slow
            test_regalloc_allocation_probe;
        ] );
      ( "monitor lanes",
        [
          Alcotest.test_case "lanes match single-lane runs" `Slow
            test_monitor_lanes_match_single_runs;
          Alcotest.test_case "lane count validation" `Quick
            test_monitor_lanes_validation;
        ] );
      ( "precondition",
        [
          Alcotest.test_case "production modules verify" `Slow
            test_production_modules_verify;
          Alcotest.test_case "verifier allocation" `Slow
            test_verifier_allocation;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "allocation" `Slow test_coalesce_allocation;
        ] );
      ( "engine golden",
        [
          Alcotest.test_case "serial" `Slow test_golden_engine_serial;
          Alcotest.test_case "faults on" `Slow test_golden_engine_faults;
          Alcotest.test_case "digest invariance" `Slow
            test_golden_engine_digests;
        ] );
    ]
