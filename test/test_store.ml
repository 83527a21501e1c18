(* The persistence layer of the artifact store: Binio wire format,
   domain codecs, the on-disk backend, and the store front-end over it.

   Three law families, per the redesign's acceptance bar:
   - every codec round-trips (qcheck for the combinators, encode/
     decode/encode stability for the domain codecs over real pipeline
     values);
   - the disk backend is crash-safe and first-put-wins, and ANY defect
     in a stored file — truncation, bad magic, bad version, a flipped
     payload byte — reads as a miss, never an error;
   - a fresh store front-end over a warm root serves every persistent
     key (the warm-restart contract), with correct Local/Shared
     attribution carried through the envelope's builder field. *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Hw = Jitise_hwgen
module Cad = Jitise_cad
module Core = Jitise_core
module U = Jitise_util
module An = Jitise_analysis

(* [Binio] plus what only these tests use: the production codecs store
   no bool, read options with the primitive readers, and decode through
   [decode_opt]. *)
module B = struct
  include U.Binio

  let bool =
    codec
      (fun b v -> w_byte b (if v then 1 else 0))
      (fun r ->
        match r_byte r with
        | 0 -> false
        | 1 -> true
        | n -> corrupt "bad bool tag %d" n)
  let option c = codec (w_option c.enc) (r_option c.dec)

  let triple a b c =
    map
      ~enc:(fun (x, y, z) -> (x, (y, z)))
      ~dec:(fun (x, (y, z)) -> (x, y, z))
      (pair a (pair b c))

  (* [decode_opt] without the [option]: its [Corrupt] messages reach
     the tests. *)
  let decode c s =
    let r = reader s in
    let v = c.dec r in
    if remaining r <> 0 then corrupt "trailing bytes: %d left" (remaining r);
    v
end

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let tmp_root () =
  let path = Filename.temp_file "jitise-store-test" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun name ->
        let p = Filename.concat dir name in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_root f =
  let root = tmp_root () in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

let rt codec v = B.decode codec (B.encode codec v)

(* The universal codec law usable for values containing hashtables or
   arrays (where [=] is unreliable): encoding is a fixpoint of one
   decode/encode cycle. *)
let stable name codec v =
  let bytes = B.encode codec v in
  Alcotest.(check string)
    (name ^ " encode/decode/encode stable")
    bytes
    (B.encode codec (B.decode codec bytes))

let raises_corrupt name f =
  match f () with
  | exception B.Corrupt _ -> ()
  | _ -> Alcotest.failf "%s: expected Binio.Corrupt" name

(* ------------------------------------------------------------------ *)
(* Binio: qcheck round-trip laws for every combinator                  *)
(* ------------------------------------------------------------------ *)

let prop_int_roundtrip =
  QCheck.Test.make ~name:"binio int round trip" ~count:1000 QCheck.int (fun v ->
      rt B.int v = v)

let prop_int64_roundtrip =
  QCheck.Test.make ~name:"binio int64 round trip" ~count:1000 QCheck.int64
    (fun v -> rt B.int64 v = v)

let vint64 = B.codec B.w_vint64 B.r_vint64

let prop_vint64_roundtrip =
  QCheck.Test.make ~name:"binio vint64 round trip" ~count:1000 QCheck.int64
    (fun v -> rt vint64 v = v)

(* Bit-level comparison so NaN payloads and signed zeros count too. *)
let prop_float_roundtrip =
  QCheck.Test.make ~name:"binio float round trip" ~count:1000 QCheck.float
    (fun v -> Int64.bits_of_float (rt B.float v) = Int64.bits_of_float v)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"binio string round trip" ~count:1000
    QCheck.(string_gen Gen.char)
    (fun v -> rt B.string v = v)

let prop_bool_roundtrip =
  QCheck.Test.make ~name:"binio bool round trip" ~count:20 QCheck.bool (fun v ->
      rt B.bool v = v)

let prop_option_roundtrip =
  QCheck.Test.make ~name:"binio option round trip" ~count:500
    QCheck.(option int)
    (fun v -> rt (B.option B.int) v = v)

let prop_list_roundtrip =
  QCheck.Test.make ~name:"binio list round trip" ~count:500
    QCheck.(list (pair string int))
    (fun v -> rt (B.list (B.pair B.string B.int)) v = v)

let prop_nested_roundtrip =
  QCheck.Test.make ~name:"binio nested round trip" ~count:300
    QCheck.(list (triple (option string) (list int) bool))
    (fun v ->
      let c = B.list (B.triple (B.option B.string) (B.list B.int) B.bool) in
      rt c v = v)

let prop_varint_compact =
  QCheck.Test.make ~name:"binio small ints are one byte" ~count:200
    QCheck.(int_range (-64) 63)
    (fun v -> String.length (B.encode B.int v) = 1)

let test_int_boundaries () =
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (rt B.int v))
    [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int ];
  List.iter
    (fun v ->
      Alcotest.(check int64) (Int64.to_string v) v (rt B.int64 v);
      Alcotest.(check int64) (Int64.to_string v ^ " varint") v (rt vint64 v))
    [ 0L; Int64.max_int; Int64.min_int; -1L ]

let test_enum_roundtrip () =
  let c = B.enum ~name:"abc" [ `A; `B; `C ] in
  List.iter (fun v -> assert (rt c v = v)) [ `A; `B; `C ];
  (* Out-of-range index is corrupt, not a crash. *)
  raises_corrupt "enum index 3" (fun () ->
      B.decode c (B.encode B.int 3));
  (* A value outside the enumeration cannot be encoded (a programming
     error, not a data defect: Invalid_argument, not Corrupt). *)
  match B.encode c `D with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoding an unknown enum value must raise"

let test_corrupt_inputs () =
  raises_corrupt "trailing bytes" (fun () ->
      B.decode B.int (B.encode B.int 7 ^ "x"));
  raises_corrupt "truncated string" (fun () ->
      let s = B.encode B.string "hello world" in
      B.decode B.string (String.sub s 0 (String.length s - 3)));
  raises_corrupt "truncated int64" (fun () -> B.decode B.int64 "abc");
  raises_corrupt "bad bool tag" (fun () -> B.decode B.bool "\x07");
  raises_corrupt "bad option tag" (fun () ->
      B.decode (B.option B.int) "\x09");
  raises_corrupt "length past end" (fun () ->
      (* a length prefix claiming more bytes than remain *)
      B.decode B.string (B.encode B.int 1000));
  raises_corrupt "unterminated varint" (fun () ->
      B.decode B.int "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff");
  (* A tenth byte above 1 sets bits past 63: it used to decode as 0
     through [int] and to wrap through [vint64]. *)
  raises_corrupt "overflowing varint" (fun () ->
      B.decode B.int "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02");
  raises_corrupt "overflowing vint64" (fun () ->
      B.decode vint64 "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x03");
  Alcotest.(check (option int)) "decode_opt maps Corrupt to None" None
    (B.decode_opt B.int "\xff");
  Alcotest.(check (option int)) "decode_opt passes valid input" (Some 42)
    (B.decode_opt B.int (B.encode B.int 42))

(* ------------------------------------------------------------------ *)
(* Domain codecs over real pipeline values                             *)
(* ------------------------------------------------------------------ *)

let db = Pp.Database.create ()
let sor = Option.get (W.Registry.find "sor")
let compiled = lazy (W.Workload.compile sor)

let profiled =
  lazy
    (let r = Lazy.force compiled in
     (r.F.Compiler.modul, W.Workload.run r { label = "t"; n = 12 }))

let report =
  lazy
    (let m, out = Lazy.force profiled in
     Core.Asip_sp.run_spec db m out.Vm.Machine.profile
       ~total_cycles:out.Vm.Machine.native_cycles)

let flow_run =
  lazy
    (let m, _ = Lazy.force profiled in
     let r = Lazy.force report in
     let s = List.hd r.Core.Asip_sp.selection in
     let c = s.Ise.Select.candidate in
     let f = Option.get (Ir.Irmod.find_func m c.Ise.Candidate.func) in
     let dfg = Ir.Dfg.of_block f (Ir.Func.block f c.Ise.Candidate.block) in
     let p = Hw.Project.create db dfg c in
     (p, Result.get_ok (Cad.Flow.implement_result db p)))

let test_codec_compiler_result () =
  let r = Lazy.force compiled in
  stable "compiler_result" Core.Codecs.compiler_result r;
  let r' = rt Core.Codecs.compiler_result r in
  (* The stats (including the measured compile time, which is part of
     the artifact, not of the record log) survive exactly. *)
  Alcotest.(check bool) "stats survive" true
    (r.F.Compiler.stats = r'.F.Compiler.stats);
  (* Every registry module survives structurally — void instructions'
     ids and [next_reg] included, which printed text does not carry —
     and its printed text, the parser's oracle, is unchanged too. *)
  List.iter
    (fun w ->
      let m = (W.Workload.compile w).F.Compiler.modul in
      let m' = rt Core.Codecs.irmod m in
      Alcotest.(check bool) (w.W.Workload.name ^ " module survives") true
        (m = m');
      Alcotest.(check string)
        (w.W.Workload.name ^ " module text survives")
        (Ir.Printer.module_to_string m)
        (Ir.Printer.module_to_string m'))
    W.Registry.all

let test_codec_profile_outcomes () =
  let r = Lazy.force compiled in
  let outcomes = W.Workload.run_all r sor in
  stable "profile_outcomes" Core.Codecs.profile_outcomes outcomes;
  let outcomes' = rt Core.Codecs.profile_outcomes outcomes in
  List.iter2
    (fun (d, (o : Vm.Machine.outcome)) (d', (o' : Vm.Machine.outcome)) ->
      Alcotest.(check string) "dataset label" d.W.Workload.label
        d'.W.Workload.label;
      Alcotest.(check (float 0.0)) "native cycles" o.Vm.Machine.native_cycles
        o'.Vm.Machine.native_cycles;
      Alcotest.(check (float 0.0)) "vm cycles" o.Vm.Machine.vm_cycles
        o'.Vm.Machine.vm_cycles;
      Alcotest.(check bool) "profile entries" true
        (Vm.Profile.to_list o.Vm.Machine.profile
        = Vm.Profile.to_list o'.Vm.Machine.profile);
      Alcotest.(check int64) "executed instrs"
        o.Vm.Machine.profile.Vm.Profile.executed_instrs
        o'.Vm.Machine.profile.Vm.Profile.executed_instrs)
    outcomes outcomes'

let test_codec_analyses () =
  let m, out = Lazy.force profiled in
  let out2 = W.Workload.run (Lazy.force compiled) { label = "t2"; n = 8 } in
  let cov =
    Jitise_analysis.Coverage.classify m
      [ out.Vm.Machine.profile; out2.Vm.Machine.profile ]
  in
  stable "coverage" Core.Codecs.coverage cov;
  let k = Jitise_analysis.Kernel.compute m out.Vm.Machine.profile in
  stable "kernel" Core.Codecs.kernel k

let test_codec_search_artifacts () =
  let m, out = Lazy.force profiled in
  let pruning =
    Ise.Prune.apply Ise.Prune.at_50p_s3l m out.Vm.Machine.profile
  in
  stable "prune_selection" Core.Codecs.prune_selection pruning;
  let cands =
    List.concat_map
      (fun (fname, label) ->
        match Ir.Irmod.find_func m fname with
        | None -> []
        | Some f ->
            let dfg = Ir.Dfg.of_block f (Ir.Func.block f label) in
            Ise.Maxmiso.of_block dfg ~func:fname)
      pruning.Ise.Prune.blocks
  in
  stable "candidates" Core.Codecs.candidates cands;
  let r = Lazy.force report in
  stable "scored_list" Core.Codecs.scored_list r.Core.Asip_sp.selection

let test_codec_hw_and_cad () =
  let p, run = Lazy.force flow_run in
  stable "project" Core.Codecs.project p;
  stable "flow_run" Core.Codecs.flow_run run;
  (* The bitstream checksum is carried verbatim: a well-formed one stays
     well-formed, and a corrupted one must NOT be healed by the codec. *)
  let bs = run.Cad.Flow.bitstream in
  Alcotest.(check bool) "round-tripped bitstream well-formed" true
    (Cad.Bitstream.well_formed (rt Core.Codecs.bitstream bs));
  let bad = { bs with Cad.Bitstream.checksum = bs.Cad.Bitstream.checksum + 1 } in
  Alcotest.(check bool) "corrupt bitstream stays corrupt" false
    (Cad.Bitstream.well_formed (rt Core.Codecs.bitstream bad))

(* Golden bytes for the profile stage's artifact.  The laws above hold
   for any format that encode and decode change together; a codec
   change that forgets the store version bump would make old entries
   decode wrongly instead of missing, so the bytes of a small fixed
   value are pinned (store format 4: no memory image).  The outcomes
   reach every value tag ([Int64.min_int], a NaN with payload bits, a
   pointer) and [None], -0.0 and a NaN among the clocks, an empty
   profile and one with counts at both int64 extremes. *)
let golden_outcomes () =
  let profile counts executed =
    let p = Vm.Profile.create () in
    List.iter (fun (k, n) -> Hashtbl.replace p.Vm.Profile.counts k n) counts;
    p.Vm.Profile.executed_instrs <- executed;
    p
  in
  let outcome ret native_cycles vm_cycles p =
    { Vm.Machine.ret; native_cycles; vm_cycles; profile = p; memory = None }
  in
  [
    ( { W.Workload.label = "train"; n = 3 },
      outcome (Some (Ir.Eval.VInt Int64.min_int)) 1.5 (-0.0)
        (profile
           [ (("main", 0), 5L); (("f", 2), Int64.max_int); (("f", 0), -1L) ]
           42L) );
    ( { W.Workload.label = "ref"; n = -7 },
      outcome
        (Some (Ir.Eval.VFloat (Int64.float_of_bits 0x7ff8_0000_0000_0abcL)))
        nan 0.0 (profile [] 0L) );
    ( { W.Workload.label = ""; n = 0 },
      outcome (Some (Ir.Eval.VPtr 7)) 0.0 2.25
        (profile [ (("", 1), 0L) ] Int64.min_int) );
    ({ W.Workload.label = "v"; n = 1 }, outcome None 3.0 4.0 (profile [] 1L));
  ]

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
    (List.of_seq (String.to_seq s)))

let test_codec_outcomes_golden () =
  let v = golden_outcomes () in
  let bytes = B.encode Core.Codecs.profile_outcomes v in
  Alcotest.(check string) "profile_outcomes bytes"
    ("0405747261696e0601000000000000000080000000000000f83f000000000000"
   ^ "008003016600ffffffffffffffff016604ffffffffffffff7f046d61696e0005"
   ^ "000000000000002a00000000000000037265660d0101bc0a00000000f87f0100"
   ^ "00000000f87f0000000000000000000000000000000000000001020e00000000"
   ^ "0000000000000000000002400100020000000000000000000000000000008001"
   ^ "76020000000000000008400000000000001040000100000000000000")
    (hex bytes);
  stable "profile_outcomes" Core.Codecs.profile_outcomes v;
  (* Bit-level: [=] cannot see NaN payloads or signed zeros. *)
  let bits (o : Vm.Machine.outcome) =
    ( (match o.Vm.Machine.ret with
      | Some (Ir.Eval.VFloat f) -> `Float (Int64.bits_of_float f)
      | r -> `Other r),
      Int64.bits_of_float o.Vm.Machine.native_cycles,
      Int64.bits_of_float o.Vm.Machine.vm_cycles )
  in
  List.iter2
    (fun (d, o) (d', o') ->
      let what = d.W.Workload.label in
      Alcotest.(check bool) (what ^ ": dataset") true (d = d');
      Alcotest.(check bool) (what ^ ": ret and clock bits") true
        (bits o = bits o');
      Alcotest.(check bool) (what ^ ": profile") true
        (Vm.Profile.to_list o.Vm.Machine.profile
         = Vm.Profile.to_list o'.Vm.Machine.profile
        && o.Vm.Machine.profile.Vm.Profile.executed_instrs
           = o'.Vm.Machine.profile.Vm.Profile.executed_instrs);
      Alcotest.(check bool) (what ^ ": no memory image") true
        (Option.is_none o'.Vm.Machine.memory))
    v
    (B.decode Core.Codecs.profile_outcomes bytes)

(* Golden bytes for the coverage stage's artifact (store format 5: no
   per-dataset frequencies), pinned like the outcomes above: a
   hand-made classification with all three classes, a block of an
   unnamed function and an empty (zero-instruction) block. *)
let golden_coverage () =
  let block func label classification instrs =
    { An.Coverage.func; label; classification; instrs }
  in
  {
    An.Coverage.blocks =
      [
        block "main" 0 An.Coverage.Constant 4;
        block "main" 3 An.Coverage.Live 12;
        block "never" 0 An.Coverage.Dead 2;
        block "" 7 An.Coverage.Dead 0;
      ];
    live_instrs = 12;
    dead_instrs = 2;
    const_instrs = 4;
    total_instrs = 18;
  }

let test_codec_coverage_golden () =
  let v = golden_coverage () in
  let bytes = B.encode Core.Codecs.coverage v in
  Alcotest.(check string) "coverage bytes"
    ("04046d61696e000108046d61696e060218056e65766572000004000e000018"
   ^ "040824")
    (hex bytes);
  Alcotest.(check bool) "decodes to the value" true
    (B.decode Core.Codecs.coverage bytes = v)

(* Golden bytes for one [implement] artifact, pinned like the
   outcomes above: a hand-built chain whose first attempt misses timing closure
   at PAR and whose relaxed second attempt succeeds (store format 6: a
   flow run carries no project, no syntax problems and no relaxed
   flag, and neither an attempt nor a failure its attempt number). *)
let golden_chain () =
  let stages =
    List.map
      (fun (stage, seconds) -> { Cad.Flow.stage; seconds })
      Cad.Flow.
        [
          (Check_syntax, 4.25); (Synthesis, 10.5); (Translate, 9.0);
          (Map, 46.0); (Place_and_route, 69.0); (Bitgen, 151.0);
        ]
  in
  let failure =
    {
      Cad.Flow.failed_stage = Cad.Flow.Place_and_route;
      fault = Cad.Faults.Timing_failure;
      wasted_seconds = 129.25;
    }
  in
  let run =
    {
      Cad.Flow.stages;
      total_seconds = 289.75;
      bitstream =
        Cad.Bitstream.make ~signature:"ci_g" ~size_bytes:3280 ~frames:5
          ~luts:120 ~generation_seconds:289.75;
    }
  in
  ( 3.25,
    {
      Core.Asip_sp.ch_attempts =
        [
          {
            Core.Asip_sp.att_failure = Some failure;
            att_backoff_seconds = 33.5;
          };
          { Core.Asip_sp.att_failure = None; att_backoff_seconds = 0.0 };
        ];
      ch_result = Ok run;
    } )

let test_codec_implement_golden () =
  let v = golden_chain () in
  Alcotest.(check string) "implement bytes"
    ("0000000000000a400201040200000000002860400000000000c0404000000000"
   ^ "0000000000000600000000000000114001000000000000254002000000000000"
   ^ "2240030000000000004740040000000000405140050000000000e06240000000"
   ^ "00001c72400463695f67a0330af00100000000001c72409a9ff9f5c6ae95ab58")
    (hex (B.encode Core.Asip_sp.implement_codec v));
  stable "implement" Core.Asip_sp.implement_codec v

(* Golden bytes for the IR module codec, pinned like the outcomes above.
   The module is hand-built, not verifier-valid: it reaches every
   [Ty.t], every instruction kind (Ci_call and Phi included), every
   terminator, a switch with duplicate cases, [Int64.min_int], -0.0, a
   NaN with payload bits, all three initializers and a [next_reg] above
   the highest register id. *)
let nan_payload = Int64.float_of_bits 0x7ff8_0000_0000_0abcL

let golden_irmod () =
  let open Ir.Instr in
  let instr id ty kind = { id; ty; kind } in
  let int v ty = Const (Cint (v, ty)) in
  let block label name instrs term = { Ir.Block.label; name; instrs; term } in
  let f =
    {
      Ir.Func.name = "f";
      params = [ (0, Ir.Ty.I32); (1, Ir.Ty.F64); (2, Ir.Ty.Ptr) ];
      ret_ty = Ir.Ty.I32;
      next_reg = 40;
      blocks =
        [|
          block 0 "entry"
            [
              instr 3 Ir.Ty.I32 (Binop (Add, Reg 0, int Int64.min_int Ir.Ty.I64));
              instr 4 Ir.Ty.I1 (Icmp (Islt, Reg 3, int 7L Ir.Ty.I32));
              instr 5 Ir.Ty.I1 (Fcmp (Folt, Reg 1, Const (Cfloat (-0.0, Ir.Ty.F64))));
              instr 6 Ir.Ty.I16 (Cast (Trunc, Reg 3));
              instr 7 Ir.Ty.I32 (Select (Reg 4, Reg 3, int (-1L) Ir.Ty.I32));
              instr 8 Ir.Ty.Ptr (Alloca (Ir.Ty.F32, 4));
              instr 9 Ir.Ty.F32 (Load (Reg 8));
              instr 10 Ir.Ty.Void
                (Store (Const (Cfloat (nan_payload, Ir.Ty.F32)), Reg 8));
              instr 11 Ir.Ty.Ptr (Gep (Reg 2, int 3L Ir.Ty.I32));
              instr 12 Ir.Ty.Ptr (Gaddr "xs");
              instr 13 Ir.Ty.Void (Call ("g", [ Reg 3; Reg 6 ]));
              instr 14 Ir.Ty.I8 (Ci_call (2, [ Reg 3; int 1L Ir.Ty.I8 ]));
            ]
            (Cond_br (Reg 4, 1, 2));
          block 1 "loop"
            [ instr 15 Ir.Ty.I32 (Phi [ (0, Reg 3); (1, Reg 15) ]) ]
            (Switch (Reg 15, 2, [ (1L, 1); (1L, 2); (-5L, 1) ]));
          block 2 "exit" [] (Ret (Some (Reg 7)));
        |];
    }
  in
  let g =
    {
      Ir.Func.name = "g";
      params = [ (0, Ir.Ty.I32); (1, Ir.Ty.I16) ];
      ret_ty = Ir.Ty.Void;
      next_reg = 2;
      blocks = [| block 0 "entry" [] (Br 1); block 1 "out" [] (Ret None) |];
    }
  in
  {
    Ir.Irmod.mname = "golden";
    globals =
      [
        { Ir.Irmod.gname = "z"; gty = Ir.Ty.I8; gsize = 4; ginit = Ir.Irmod.Zero };
        { Ir.Irmod.gname = "xs"; gty = Ir.Ty.I64; gsize = 2;
          ginit = Ir.Irmod.Ints [| Int64.min_int; 5L |] };
        { Ir.Irmod.gname = "fs"; gty = Ir.Ty.F32; gsize = 2;
          ginit = Ir.Irmod.Floats [| -0.0; nan_payload |] };
      ];
    funcs = [ f; g ];
  }

let golden_irmod_hex =
  ("06676f6c64656e03017a01080002787304040102ffffffffffffffffff010a02"
   ^ "6673050402020000000000000080bc0a00000000f87f02016603000302060407"
   ^ "0350030005656e7472790c0603000000000104ffffffffffffffffff01080001"
   ^ "02000601030e0a0002020002020600000000000000800c02030000060e030400"
   ^ "080006010301100705050812050600101408070205bc0a00000000f87f001016"
   ^ "070800040103061807090278731a080a0167020006000c1c010c040200060101"
   ^ "02020008020402046c6f6f70011e030b0200000602001e03001e040302020204"
   ^ "0902040465786974000001000e016702000302020804020005656e7472790001"
   ^ "0202036f7574000000")

let test_codec_irmod_golden () =
  let m = golden_irmod () in
  let bytes = B.encode Core.Codecs.irmod m in
  Alcotest.(check string) "irmod bytes" golden_irmod_hex (hex bytes);
  stable "irmod" Core.Codecs.irmod m;
  (* [=] cannot see NaN payloads or signed zeros; the bits can. *)
  let m' = B.decode Core.Codecs.irmod bytes in
  let fs =
    List.find (fun g -> g.Ir.Irmod.gname = "fs") m'.Ir.Irmod.globals
  in
  (match fs.Ir.Irmod.ginit with
  | Ir.Irmod.Floats [| z; n |] ->
      Alcotest.(check int64) "-0.0 survives" (Int64.bits_of_float (-0.0))
        (Int64.bits_of_float z);
      Alcotest.(check int64) "NaN payload survives"
        (Int64.bits_of_float nan_payload) (Int64.bits_of_float n)
  | _ -> Alcotest.fail "float initializer lost");
  Alcotest.(check int) "next_reg survives" 40
    (Option.get (Ir.Irmod.find_func m' "f")).Ir.Func.next_reg

(* Malformed IR bytes: every out-of-range tag raises [Corrupt] naming
   its field.  The bytes are written by hand — one global or one
   function of one block — so each tag sits where the format puts it. *)
let ir_bytes ?(globals = []) instrs term =
  let b = Buffer.create 64 in
  B.w_string b "m";
  B.w_len b (List.length globals);
  List.iter (fun g -> g b) globals;
  B.w_len b 1;
  B.w_string b "f";
  B.w_len b 0;
  Core.Codecs.ir_ty.B.enc b Ir.Ty.Void;
  B.w_int b 1;
  B.w_len b 1;
  B.w_int b 0;
  B.w_string b "entry";
  B.w_len b (List.length instrs);
  List.iter (fun i -> i b) instrs;
  term b;
  Buffer.contents b

let ret_void b =
  B.w_byte b 0;
  B.w_byte b 0

(* One instruction [%0 : i32] whose kind bytes are [tags]. *)
let instr_with tags b =
  B.w_int b 0;
  Core.Codecs.ir_ty.B.enc b Ir.Ty.I32;
  List.iter (B.w_byte b) tags

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_codec_irmod_bad_tags () =
  let expect field bytes =
    match B.decode Core.Codecs.irmod bytes with
    | exception B.Corrupt msg ->
        if not (contains ~sub:field msg) then
          Alcotest.failf "bad %s tag: message %S does not name it" field msg
    | _ -> Alcotest.failf "bad %s tag decoded" field
  in
  let bad_ty b =
    B.w_int b 0;
    B.w_byte b 9
  in
  expect "ty" (ir_bytes [ bad_ty ] ret_void);
  (* Load whose operand tag is 3. *)
  expect "operand" (ir_bytes [ instr_with [ 6; 3 ] ] ret_void);
  expect "kind" (ir_bytes [ instr_with [ 13 ] ] ret_void);
  expect "binop" (ir_bytes [ instr_with [ 0; 17 ] ] ret_void);
  expect "icmp" (ir_bytes [ instr_with [ 1; 10 ] ] ret_void);
  expect "fcmp" (ir_bytes [ instr_with [ 2; 6 ] ] ret_void);
  expect "cast" (ir_bytes [ instr_with [ 3; 8 ] ] ret_void);
  expect "terminator" (ir_bytes [] (fun b -> B.w_byte b 4));
  let bad_init b =
    B.w_string b "g";
    Core.Codecs.ir_ty.B.enc b Ir.Ty.I32;
    B.w_int b 1;
    B.w_byte b 3
  in
  expect "initializer" (ir_bytes ~globals:[ bad_init ] [] ret_void);
  (* The hand-written frame itself is well formed. *)
  ignore (B.decode Core.Codecs.irmod (ir_bytes [ instr_with [ 6; 0; 0 ] ] ret_void))

(* Damage to a golden encoding: every prefix and every single-byte
   substitution either decodes or raises [Corrupt] — never another
   exception. *)
let check_mutations codec v =
  let bytes = B.encode codec v in
  let survives what s =
    match B.decode codec s with
    | _ | (exception B.Corrupt _) -> ()
    | exception e ->
        Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  for len = 0 to String.length bytes - 1 do
    survives (Printf.sprintf "prefix %d" len) (String.sub bytes 0 len)
  done;
  String.iteri
    (fun i c ->
      for v = 0 to 255 do
        if v <> Char.code c then begin
          let b = Bytes.of_string bytes in
          Bytes.set b i (Char.chr v);
          survives (Printf.sprintf "byte %d := %d" i v) (Bytes.to_string b)
        end
      done)
    bytes

let test_codec_irmod_mutations () =
  check_mutations Core.Codecs.irmod (golden_irmod ())

let test_codec_outcomes_mutations () =
  check_mutations Core.Codecs.profile_outcomes (golden_outcomes ())

let test_codec_coverage_mutations () =
  check_mutations Core.Codecs.coverage (golden_coverage ())

let test_codec_implement_mutations () =
  check_mutations Core.Asip_sp.implement_codec (golden_chain ())

(* ------------------------------------------------------------------ *)
(* Store_disk: envelope, crash-safety, defect tolerance                *)
(* ------------------------------------------------------------------ *)

let digest_hex s = U.Digest.to_hex (U.Digest.of_string s)

(* A disk store's reads and writes, each through a freshly opened
   backend, as a new process would make them. *)
let disk_get ~root ~stage ~digest =
  (U.Store_disk.backend ~root ()).backend_get ~stage ~digest

let disk_put ?chaos ~root ~stage ~digest ~builder ~payload () =
  (U.Store_disk.backend ?chaos ~root ()).backend_put ~stage ~digest ~builder
    ~payload

(* The layout: [<root>/<stage>/<digest-hex>]. *)
let entry_path ~root ~stage ~digest =
  Filename.concat (Filename.concat root stage) digest

let test_disk_put_get () =
  with_root (fun root ->
      let digest = digest_hex "a" in
      Alcotest.(check (option (pair string string)))
        "absent entry" None
        (disk_get ~root ~stage:"compile" ~digest);
      disk_put ~root ~stage:"compile" ~digest ~builder:"sor"
        ~payload:"PAYLOAD\x00\xff bytes" ();
      Alcotest.(check (option (pair string string)))
        "round trip"
        (Some ("sor", "PAYLOAD\x00\xff bytes"))
        (disk_get ~root ~stage:"compile" ~digest))

let test_disk_first_put_wins () =
  with_root (fun root ->
      let digest = digest_hex "b" in
      disk_put ~root ~stage:"s" ~digest ~builder:"first" ~payload:"one" ();
      disk_put ~root ~stage:"s" ~digest ~builder:"second"
        ~payload:"two" ();
      Alcotest.(check (option (pair string string)))
        "first write wins"
        (Some ("first", "one"))
        (disk_get ~root ~stage:"s" ~digest))

(* A store written by an older build: the v5 entry (the format before
   the write-only fields left the compile, kernel, search, project and
   implement artifacts) reads as a miss, and the recompute's [put]
   replaces it instead of being blocked by it. *)
let test_disk_old_version_is_replaced () =
  with_root (fun root ->
      let digest = digest_hex "old" in
      let path = entry_path ~root ~stage:"s" ~digest in
      Unix.mkdir (Filename.dirname path) 0o755;
      let b = Buffer.create 64 in
      Buffer.add_string b "JTSE";
      B.w_byte b 5;
      B.w_string b "app";
      B.w_string b (digest_hex "old payload");
      B.w_string b "old payload";
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Buffer.contents b));
      Alcotest.(check (option (pair string string)))
        "a v5 entry reads as a miss" None
        (disk_get ~root ~stage:"s" ~digest);
      disk_put ~root ~stage:"s" ~digest ~builder:"app"
        ~payload:"new payload" ();
      Alcotest.(check (option (pair string string)))
        "the recompute replaces it"
        (Some ("app", "new payload"))
        (disk_get ~root ~stage:"s" ~digest))

let test_disk_defects_read_as_misses () =
  with_root (fun root ->
      let stage = "s" in
      let write_entry name payload =
        let digest = digest_hex name in
        disk_put ~root ~stage ~digest ~builder:"app" ~payload ();
        (digest, entry_path ~root ~stage ~digest)
      in
      let mutate path f =
        let s = In_channel.with_open_bin path In_channel.input_all in
        let b = Bytes.of_string s in
        f b;
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_bytes oc b)
      in
      let check_miss what digest =
        Alcotest.(check (option (pair string string)))
          (what ^ " reads as a miss") None
          (disk_get ~root ~stage ~digest)
      in
      (* Truncation: a crash mid-write would leave a short file only if
         rename were not atomic; readers must still survive one. *)
      let d, path = write_entry "trunc" "some payload" in
      let len = (Unix.stat path).Unix.st_size in
      Unix.truncate path (len / 2);
      check_miss "truncated entry" d;
      (* Empty file. *)
      let d, path = write_entry "empty" "x" in
      Unix.truncate path 0;
      check_miss "empty entry" d;
      (* Bad magic. *)
      let d, path = write_entry "magic" "payload" in
      mutate path (fun b -> Bytes.set b 0 'X');
      check_miss "bad magic" d;
      (* Unknown format version. *)
      let d, path = write_entry "version" "payload" in
      mutate path (fun b -> Bytes.set b 4 '\xf7');
      check_miss "bad version" d;
      (* A flipped payload byte fails the checksum. *)
      let d, path = write_entry "flip" "payload-payload-payload" in
      mutate path (fun b ->
          let i = Bytes.length b - 3 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41)));
      check_miss "flipped payload byte" d;
      (* Trailing garbage after the envelope. *)
      let d, path = write_entry "trail" "payload" in
      let s = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (s ^ "garbage"));
      check_miss "trailing bytes" d;
      (* And an intact neighbour is still served. *)
      let d, _ = write_entry "intact" "good" in
      Alcotest.(check (option (pair string string)))
        "intact entry unaffected"
        (Some ("app", "good"))
        (disk_get ~root ~stage ~digest:d))

let test_disk_orphan_sweep () =
  with_root (fun root ->
      let digest = digest_hex "kept" in
      disk_put ~root ~stage:"s" ~digest ~builder:"app" ~payload:"v" ();
      let dir = Filename.concat root "s" in
      let orphan name = Out_channel.with_open_bin
          (Filename.concat dir name)
          (fun oc -> Out_channel.output_string oc "partial")
      in
      orphan (digest ^ ".tmp.12345.0");
      orphan (digest ^ ".tmp.12345.1");
      (* Opening the backend sweeps the orphans and keeps real entries. *)
      let b = U.Store_disk.backend ~root () in
      Alcotest.(check int) "no tmp files survive" 0
        (Array.length
           (Array.of_list
              (List.filter
                 (fun n ->
                   String.length n > String.length digest)
                 (Array.to_list (Sys.readdir dir)))));
      Alcotest.(check (option (pair string string)))
        "the committed entry survives the sweep"
        (Some ("app", "v"))
        (b.U.Artifact.backend_get ~stage:"s" ~digest);
      Alcotest.(check (list string)) "nothing left for a second sweep" []
        (Fixtures.store_tmp_files root))

let test_disk_concurrent_first_put_wins () =
  with_root (fun root ->
      let digest = digest_hex "race" in
      (* Two writers race the same (stage, digest) with different
         payloads, many rounds: exactly one valid envelope must land and
         no temp residue may survive. *)
      let barrier = Atomic.make 0 in
      let store = U.Store_disk.backend ~root () in
      let writer payload () =
        Atomic.incr barrier;
        while Atomic.get barrier < 2 do Domain.cpu_relax () done;
        for _ = 1 to 50 do
          store.backend_put ~stage:"s" ~digest ~builder:payload ~payload
        done
      in
      let a = Domain.spawn (writer "one") in
      let b = Domain.spawn (writer "two") in
      Domain.join a;
      Domain.join b;
      (match disk_get ~root ~stage:"s" ~digest with
      | Some (b, p) ->
          Alcotest.(check bool) "a complete write won" true
            ((b, p) = ("one", "one") || (b, p) = ("two", "two"))
      | None -> Alcotest.fail "no valid envelope after the race");
      let residue =
        Array.to_list (Sys.readdir (Filename.concat root "s"))
        |> List.filter (fun n -> n <> digest)
      in
      Alcotest.(check (list string)) "no temp residue" [] residue)

let test_disk_torn_write_reads_as_miss () =
  with_root (fun root ->
      let digest = digest_hex "torn" in
      let always_torn =
        { U.Chaos.none with U.Chaos.seed = 1; store_torn_rate = 1.0 }
      in
      disk_put ~chaos:always_torn ~root ~stage:"s" ~digest
        ~builder:"app" ~payload:"value" ();
      Alcotest.(check bool) "the torn entry exists on disk" true
        (Sys.file_exists (entry_path ~root ~stage:"s" ~digest));
      Alcotest.(check (option (pair string string)))
        "a torn envelope reads as a miss" None
        (disk_get ~root ~stage:"s" ~digest);
      (* First-put-wins means the torn entry occupies the slot: the
         site stays a permanent miss and the pipeline recomputes. *)
      disk_put ~root ~stage:"s" ~digest ~builder:"app"
        ~payload:"value" ();
      Alcotest.(check (option (pair string string)))
        "the tear is permanent under first-put-wins" None
        (disk_get ~root ~stage:"s" ~digest))

(* ------------------------------------------------------------------ *)
(* Artifact front-end over the disk backend                            *)
(* ------------------------------------------------------------------ *)

let test_artifact_warm_restart () =
  with_root (fun root ->
      let key = U.Artifact.key ~codec:B.string "warm-stage" in
      let digest = U.Digest.of_string "input" in
      let store = U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) () in
      U.Artifact.put store key ~app:"sor" ~digest "the artifact";
      (* A NEW front-end over the same root: a simulated restart, so the
         hit must cross serialization and still attribute correctly. *)
      let fresh () =
        U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) ()
      in
      (match U.Artifact.find (fresh ()) key ~app:"sor" ~digest with
      | Some (v, U.Artifact.Local) ->
          Alcotest.(check string) "value survives restart" "the artifact" v
      | Some (_, U.Artifact.Shared) -> Alcotest.fail "expected Local"
      | None -> Alcotest.fail "expected a warm hit");
      (match U.Artifact.find (fresh ()) key ~app:"fft" ~digest with
      | Some (_, U.Artifact.Shared) -> ()
      | Some (_, U.Artifact.Local) ->
          Alcotest.fail "another app must see Shared"
      | None -> Alcotest.fail "expected a warm hit");
      (* Backend hits are promoted to L1: the second probe through ONE
         front-end must not re-read the disk (observable via stats — the
         promoted entry counts as an in-process entry). *)
      let store2 = fresh () in
      ignore (U.Artifact.find store2 key ~app:"sor" ~digest);
      let stats = U.Artifact.stats store2 in
      Alcotest.(check int) "promoted into L1" 1 stats.U.Artifact.total_entries)

let test_artifact_codecless_key_stays_local () =
  with_root (fun root ->
      let key = U.Artifact.key "ephemeral-stage" in
      let digest = U.Digest.of_string "input" in
      let store = U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) () in
      U.Artifact.put store key ~app:"a" ~digest 42;
      Alcotest.(check (array string)) "nothing persisted" [||]
        (Sys.readdir root);
      let fresh = U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) () in
      Alcotest.(check bool) "miss after restart" true
        (U.Artifact.find fresh key ~app:"a" ~digest = None))

let test_artifact_undecodable_payload_is_a_miss () =
  with_root (fun root ->
      let key = U.Artifact.key ~codec:(B.pair B.int B.string) "typed-stage" in
      let digest = U.Digest.of_string "input" in
      (* A valid envelope whose payload the codec rejects: must degrade
         to a miss at the front-end, not raise. *)
      disk_put ~root ~stage:"typed-stage"
        ~digest:(U.Digest.to_hex digest) ~builder:"a" ~payload:"not binio" ();
      let store = U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) () in
      Alcotest.(check bool) "undecodable payload misses" true
        (U.Artifact.find store key ~app:"a" ~digest = None);
      (* The recompute then overwrites nothing (first put wins at the
         byte layer) but L1 serves the fresh value from now on. *)
      U.Artifact.put store key ~app:"a" ~digest (7, "fresh");
      match U.Artifact.find store key ~app:"a" ~digest with
      | Some ((7, "fresh"), _) -> ()
      | _ -> Alcotest.fail "recomputed value must be served")

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "store"
    [
      ( "binio",
        [
          Alcotest.test_case "int boundaries" `Quick test_int_boundaries;
          Alcotest.test_case "enum" `Quick test_enum_roundtrip;
          Alcotest.test_case "corrupt inputs" `Quick test_corrupt_inputs;
        ]
        @ qsuite
            [
              prop_int_roundtrip; prop_int64_roundtrip; prop_vint64_roundtrip;
              prop_float_roundtrip;
              prop_string_roundtrip; prop_bool_roundtrip;
              prop_option_roundtrip; prop_list_roundtrip;
              prop_nested_roundtrip; prop_varint_compact;
            ] );
      ( "codecs",
        [
          Alcotest.test_case "compiler_result" `Quick
            test_codec_compiler_result;
          Alcotest.test_case "profile_outcomes" `Quick
            test_codec_profile_outcomes;
          Alcotest.test_case "coverage/kernel" `Quick test_codec_analyses;
          Alcotest.test_case "search artifacts" `Quick
            test_codec_search_artifacts;
          Alcotest.test_case "project/flow_run/bitstream" `Quick
            test_codec_hw_and_cad;
          Alcotest.test_case "outcomes golden bytes" `Quick
            test_codec_outcomes_golden;
          Alcotest.test_case "implement golden bytes" `Quick
            test_codec_implement_golden;
          Alcotest.test_case "irmod golden bytes" `Quick
            test_codec_irmod_golden;
          Alcotest.test_case "coverage golden bytes" `Quick
            test_codec_coverage_golden;
          Alcotest.test_case "irmod bad tags" `Quick test_codec_irmod_bad_tags;
          Alcotest.test_case "irmod truncations and byte flips" `Quick
            test_codec_irmod_mutations;
          Alcotest.test_case "outcomes truncations and byte flips" `Quick
            test_codec_outcomes_mutations;
          Alcotest.test_case "implement truncations and byte flips" `Quick
            test_codec_implement_mutations;
          Alcotest.test_case "coverage truncations and byte flips" `Quick
            test_codec_coverage_mutations;
        ] );
      ( "disk",
        [
          Alcotest.test_case "put/get" `Quick test_disk_put_get;
          Alcotest.test_case "first put wins" `Quick test_disk_first_put_wins;
          Alcotest.test_case "old version is replaced" `Quick
            test_disk_old_version_is_replaced;
          Alcotest.test_case "defects read as misses" `Quick
            test_disk_defects_read_as_misses;
          Alcotest.test_case "orphan sweep" `Quick test_disk_orphan_sweep;
          Alcotest.test_case "concurrent first put wins" `Quick
            test_disk_concurrent_first_put_wins;
          Alcotest.test_case "torn write reads as miss" `Quick
            test_disk_torn_write_reads_as_miss;
        ] );
      ( "front-end",
        [
          Alcotest.test_case "warm restart" `Quick test_artifact_warm_restart;
          Alcotest.test_case "codec-less key stays local" `Quick
            test_artifact_codecless_key_stays_local;
          Alcotest.test_case "undecodable payload is a miss" `Quick
            test_artifact_undecodable_payload_is_a_miss;
        ] );
    ]
