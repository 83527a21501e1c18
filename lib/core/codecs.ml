(** Binary codecs for every artifact the staged pipeline stores.

    One {!Jitise_util.Binio.codec} per stage output type, threaded into
    the stage keys of {!Experiment} and {!Asip_sp} so artifacts can be
    persisted through a byte backend ({!Jitise_util.Store_disk}) and
    read back in a later process.

    Faithfulness rules:
    - Every codec is a lossless round-trip for the fields the pipeline
      and report tables consume (the qcheck laws in the test suite pin
      this per codec).
    - IR modules travel structurally ({!irmod}), never as printed
      text: every field survives, floats bit-exact, void
      instructions' register ids and [next_reg] included.  The same
      bytes are the module's content address
      ({!Pipeline.digest_module}), so one format serves both storage
      and stage keys.
    - Bitstream checksums are encoded verbatim, never recomputed: a
      stored corrupt bitstream must stay corrupt ({!Cad.Bitstream.well_formed}
      still fails after a round-trip).

    Versioning: codecs have no per-codec version tags; the store
    envelope version in {!Jitise_util.Store_disk} covers the whole
    format, so any codec change must bump that version (old entries
    then read as misses and are recomputed). *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads
module An = Jitise_analysis
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Hw = Jitise_hwgen
module Cad = Jitise_cad
module B = Jitise_util.Binio

(* ------------------------------------------------------------------ *)
(* IR modules: the store format and the content-addressing format.    *)
(* ------------------------------------------------------------------ *)

module I = Ir.Instr

let ir_ty : Ir.Ty.t B.codec =
  B.enum ~name:"ty" Ir.Ty.[ I1; I8; I16; I32; I64; F32; F64; Ptr; Void ]

let ir_binop : I.binop B.codec =
  B.enum ~name:"binop"
    I.
      [
        Add; Sub; Mul; Sdiv; Udiv; Srem; Urem; And; Or; Xor; Shl; Lshr; Ashr;
        Fadd; Fsub; Fmul; Fdiv;
      ]

let ir_icmp : I.icmp_pred B.codec =
  B.enum ~name:"icmp"
    I.[ Ieq; Ine; Islt; Isle; Isgt; Isge; Iult; Iule; Iugt; Iuge ]

let ir_fcmp : I.fcmp_pred B.codec =
  B.enum ~name:"fcmp" I.[ Foeq; Fone; Folt; Fole; Fogt; Foge ]

let ir_cast : I.cast B.codec =
  B.enum ~name:"cast"
    I.[ Trunc; Zext; Sext; Fptosi; Sitofp; Fpext; Fptrunc; Bitcast ]

(* Constants are folded into the operand tag: 0 register, 1 integer
   constant, 2 float constant. *)
let w_operand b = function
  | I.Reg r -> B.w_byte b 0; B.w_int b r
  | I.Const (I.Cint (v, ty)) -> B.w_byte b 1; ir_ty.B.enc b ty; B.w_vint64 b v
  | I.Const (I.Cfloat (v, ty)) -> B.w_byte b 2; ir_ty.B.enc b ty; B.w_float b v

let r_operand r =
  match B.r_byte r with
  | 0 -> I.Reg (B.r_int r)
  | 1 ->
      let ty = ir_ty.B.dec r in
      I.Const (I.Cint (B.r_vint64 r, ty))
  | 2 ->
      let ty = ir_ty.B.dec r in
      I.Const (I.Cfloat (B.r_float r, ty))
  | n -> B.corrupt "bad operand tag %d" n

let w_operands b ops = List.iter (w_operand b) ops

let w_array w b a =
  B.w_len b (Array.length a);
  Array.iter (w b) a

(* [Array.init] reads the elements in index order. *)
let r_array rd r =
  let n = B.r_len r in
  Array.init n (fun _ -> rd r)

let w_kind b = function
  | I.Binop (op, x, y) ->
      B.w_byte b 0; ir_binop.B.enc b op; w_operands b [ x; y ]
  | I.Icmp (p, x, y) -> B.w_byte b 1; ir_icmp.B.enc b p; w_operands b [ x; y ]
  | I.Fcmp (p, x, y) -> B.w_byte b 2; ir_fcmp.B.enc b p; w_operands b [ x; y ]
  | I.Cast (c, x) -> B.w_byte b 3; ir_cast.B.enc b c; w_operand b x
  | I.Select (c, x, y) -> B.w_byte b 4; w_operands b [ c; x; y ]
  | I.Alloca (ty, n) -> B.w_byte b 5; ir_ty.B.enc b ty; B.w_int b n
  | I.Load a -> B.w_byte b 6; w_operand b a
  | I.Store (v, a) -> B.w_byte b 7; w_operands b [ v; a ]
  | I.Gep (x, i) -> B.w_byte b 8; w_operands b [ x; i ]
  | I.Gaddr g -> B.w_byte b 9; B.w_string b g
  | I.Call (f, args) ->
      B.w_byte b 10; B.w_string b f; B.w_list w_operand b args
  | I.Phi incoming ->
      B.w_byte b 11;
      B.w_list (fun b (l, op) -> B.w_int b l; w_operand b op) b incoming
  | I.Ci_call (id, args) ->
      B.w_byte b 12; B.w_int b id; B.w_list w_operand b args

let r_kind r =
  let two k =
    let x = r_operand r in
    let y = r_operand r in
    k x y
  in
  match B.r_byte r with
  | 0 ->
      let op = ir_binop.B.dec r in
      two (fun x y -> I.Binop (op, x, y))
  | 1 ->
      let p = ir_icmp.B.dec r in
      two (fun x y -> I.Icmp (p, x, y))
  | 2 ->
      let p = ir_fcmp.B.dec r in
      two (fun x y -> I.Fcmp (p, x, y))
  | 3 ->
      let c = ir_cast.B.dec r in
      I.Cast (c, r_operand r)
  | 4 ->
      let c = r_operand r in
      two (fun x y -> I.Select (c, x, y))
  | 5 ->
      let ty = ir_ty.B.dec r in
      I.Alloca (ty, B.r_int r)
  | 6 -> I.Load (r_operand r)
  | 7 -> two (fun v a -> I.Store (v, a))
  | 8 -> two (fun x i -> I.Gep (x, i))
  | 9 -> I.Gaddr (B.r_string r)
  | 10 ->
      let f = B.r_string r in
      I.Call (f, B.r_list r_operand r)
  | 11 -> I.Phi (B.r_list (fun r -> let l = B.r_int r in (l, r_operand r)) r)
  | 12 ->
      let id = B.r_int r in
      I.Ci_call (id, B.r_list r_operand r)
  | n -> B.corrupt "bad instr kind tag %d" n

let w_instr b (i : I.t) =
  B.w_int b i.id;
  ir_ty.B.enc b i.ty;
  w_kind b i.kind

let r_instr r =
  let id = B.r_int r in
  let ty = ir_ty.B.dec r in
  { I.id; ty; kind = r_kind r }

let w_term b = function
  | I.Ret op -> B.w_byte b 0; B.w_option w_operand b op
  | I.Br l -> B.w_byte b 1; B.w_int b l
  | I.Cond_br (c, t, f) -> B.w_byte b 2; w_operand b c; B.w_int b t; B.w_int b f
  | I.Switch (s, d, cases) ->
      B.w_byte b 3;
      w_operand b s;
      B.w_int b d;
      B.w_list (fun b (v, l) -> B.w_vint64 b v; B.w_int b l) b cases

let r_term r =
  match B.r_byte r with
  | 0 -> I.Ret (B.r_option r_operand r)
  | 1 -> I.Br (B.r_int r)
  | 2 ->
      let c = r_operand r in
      let t = B.r_int r in
      I.Cond_br (c, t, B.r_int r)
  | 3 ->
      let s = r_operand r in
      let d = B.r_int r in
      I.Switch
        (s, d, B.r_list (fun r -> let v = B.r_vint64 r in (v, B.r_int r)) r)
  | n -> B.corrupt "bad terminator tag %d" n

let w_block b (blk : Ir.Block.t) =
  B.w_int b blk.label;
  B.w_string b blk.name;
  B.w_list w_instr b blk.instrs;
  w_term b blk.term

let r_block r =
  let label = B.r_int r in
  let name = B.r_string r in
  let instrs = B.r_list r_instr r in
  { Ir.Block.label; name; instrs; term = r_term r }

let w_func b (f : Ir.Func.t) =
  B.w_string b f.name;
  B.w_list (fun b (reg, ty) -> B.w_int b reg; ir_ty.B.enc b ty) b f.params;
  ir_ty.B.enc b f.ret_ty;
  B.w_int b f.next_reg;
  w_array w_block b f.blocks

let r_func r =
  let name = B.r_string r in
  let params =
    B.r_list (fun r -> let reg = B.r_int r in (reg, ir_ty.B.dec r)) r
  in
  let ret_ty = ir_ty.B.dec r in
  let next_reg = B.r_int r in
  let blocks = r_array r_block r in
  { Ir.Func.name; params; ret_ty; blocks; next_reg }

let w_global b (g : Ir.Irmod.global) =
  B.w_string b g.gname;
  ir_ty.B.enc b g.gty;
  B.w_int b g.gsize;
  match g.ginit with
  | Ir.Irmod.Zero -> B.w_byte b 0
  | Ir.Irmod.Ints a -> B.w_byte b 1; w_array B.w_vint64 b a
  | Ir.Irmod.Floats a -> B.w_byte b 2; w_array B.w_float b a

let r_global r =
  let gname = B.r_string r in
  let gty = ir_ty.B.dec r in
  let gsize = B.r_int r in
  let ginit =
    match B.r_byte r with
    | 0 -> Ir.Irmod.Zero
    | 1 -> Ir.Irmod.Ints (r_array B.r_vint64 r)
    | 2 -> Ir.Irmod.Floats (r_array B.r_float r)
    | n -> B.corrupt "bad initializer tag %d" n
  in
  { Ir.Irmod.gname; gty; gsize; ginit }

(** IR modules, structurally: every field of every global, function,
    block, instruction and terminator, floats bit-exact.  These bytes
    are also what {!Pipeline.digest_module} hashes, so structurally
    equal modules share one store entry. *)
let irmod : Ir.Irmod.t B.codec =
  B.codec
    (fun b (m : Ir.Irmod.t) ->
      B.w_string b m.mname;
      B.w_list w_global b m.globals;
      B.w_list w_func b m.funcs)
    (fun r ->
      let mname = B.r_string r in
      let globals = B.r_list r_global r in
      let funcs = B.r_list r_func r in
      { Ir.Irmod.mname; globals; funcs })

(* ------------------------------------------------------------------ *)
(* Frontend: compile stage.                                           *)
(* ------------------------------------------------------------------ *)

let compiler_stats : F.Compiler.stats B.codec =
  B.codec
    (fun b (s : F.Compiler.stats) ->
      B.w_int b s.files;
      B.w_int b s.loc;
      B.w_float b s.compile_seconds;
      B.w_int b s.blocks;
      B.w_int b s.instrs)
    (fun r ->
      let files = B.r_int r in
      let loc = B.r_int r in
      let compile_seconds = B.r_float r in
      let blocks = B.r_int r in
      let instrs = B.r_int r in
      { F.Compiler.files; loc; compile_seconds; blocks; instrs })

let compiler_result : F.Compiler.result B.codec =
  B.map
    ~enc:(fun (r : F.Compiler.result) -> (r.modul, r.stats))
    ~dec:(fun (modul, stats) -> { F.Compiler.modul; stats })
    (B.pair irmod compiler_stats)

(* ------------------------------------------------------------------ *)
(* VM: profile stage.                                                 *)
(* ------------------------------------------------------------------ *)

let value : Ir.Eval.value B.codec =
  B.codec
    (fun b -> function
      | Ir.Eval.VInt i ->
          B.w_byte b 0;
          B.w_int64 b i
      | Ir.Eval.VFloat f ->
          B.w_byte b 1;
          B.w_float b f
      | Ir.Eval.VPtr p ->
          B.w_byte b 2;
          B.w_int b p)
    (fun r ->
      match B.r_byte r with
      | 0 -> Ir.Eval.VInt (B.r_int64 r)
      | 1 -> Ir.Eval.VFloat (B.r_float r)
      | 2 -> Ir.Eval.VPtr (B.r_int r)
      | n -> B.corrupt "bad value tag %d" n)

(** Profiles as their sorted [(func, label, count)] listing plus the
    dynamic instruction count. *)
let profile : Vm.Profile.t B.codec =
  B.map
    ~enc:(fun (p : Vm.Profile.t) ->
      let counts =
        Hashtbl.fold (fun (f, l) n acc -> ((f, l), n) :: acc) p.Vm.Profile.counts []
        |> List.sort compare
      in
      (counts, p.Vm.Profile.executed_instrs))
    ~dec:(fun (counts, executed) ->
      let p = Vm.Profile.create () in
      List.iter (fun (k, n) -> Hashtbl.replace p.Vm.Profile.counts k n) counts;
      p.Vm.Profile.executed_instrs <- executed;
      p)
    (B.pair (B.list (B.pair (B.pair B.string B.int) B.int64)) B.int64)

(** VM outcomes without their memory image, which no stage reads
    (the profile stage drops it before storing): decoding yields
    [memory = None]. *)
let machine_outcome : Vm.Machine.outcome B.codec =
  B.codec
    (fun b (o : Vm.Machine.outcome) ->
      B.w_option value.B.enc b o.Vm.Machine.ret;
      B.w_float b o.Vm.Machine.native_cycles;
      B.w_float b o.Vm.Machine.vm_cycles;
      profile.B.enc b o.Vm.Machine.profile)
    (fun r ->
      let ret = B.r_option value.B.dec r in
      let native_cycles = B.r_float r in
      let vm_cycles = B.r_float r in
      let profile = profile.B.dec r in
      { Vm.Machine.ret; native_cycles; vm_cycles; profile; memory = None })

let dataset : W.Workload.dataset B.codec =
  B.map
    ~enc:(fun (d : W.Workload.dataset) -> (d.label, d.n))
    ~dec:(fun (label, n) -> { W.Workload.label; n })
    (B.pair B.string B.int)

(** The profile stage's artifact: per-dataset VM outcomes. *)
let profile_outcomes : (W.Workload.dataset * Vm.Machine.outcome) list B.codec =
  B.list (B.pair dataset machine_outcome)

(* ------------------------------------------------------------------ *)
(* Analysis: coverage and kernel stages.                              *)
(* ------------------------------------------------------------------ *)

let classification : An.Coverage.classification B.codec =
  B.enum ~name:"classification"
    [ An.Coverage.Dead; An.Coverage.Constant; An.Coverage.Live ]

let block_class : An.Coverage.block_class B.codec =
  B.codec
    (fun b (c : An.Coverage.block_class) ->
      B.w_string b c.func;
      B.w_int b c.label;
      classification.B.enc b c.classification;
      B.w_int b c.instrs)
    (fun r ->
      let func = B.r_string r in
      let label = B.r_int r in
      let classification = classification.B.dec r in
      let instrs = B.r_int r in
      { An.Coverage.func; label; classification; instrs })

let coverage : An.Coverage.t B.codec =
  B.codec
    (fun b (c : An.Coverage.t) ->
      B.w_list block_class.B.enc b c.blocks;
      B.w_int b c.live_instrs;
      B.w_int b c.dead_instrs;
      B.w_int b c.const_instrs;
      B.w_int b c.total_instrs)
    (fun r ->
      let blocks = B.r_list block_class.B.dec r in
      let live_instrs = B.r_int r in
      let dead_instrs = B.r_int r in
      let const_instrs = B.r_int r in
      let total_instrs = B.r_int r in
      { An.Coverage.blocks; live_instrs; dead_instrs; const_instrs; total_instrs })

let kernel : An.Kernel.t B.codec =
  B.map
    ~enc:(fun (k : An.Kernel.t) -> (k.size_percent, k.time_percent))
    ~dec:(fun (size_percent, time_percent) ->
      { An.Kernel.size_percent; time_percent })
    (B.pair B.float B.float)

(* ------------------------------------------------------------------ *)
(* ISE search: prune, maxmiso and select stages.                      *)
(* ------------------------------------------------------------------ *)

let block_id : (string * Ir.Instr.label) B.codec = B.pair B.string B.int

let prune_selection : Ise.Prune.selection B.codec =
  B.codec
    (fun b (s : Ise.Prune.selection) ->
      B.w_list block_id.B.enc b s.blocks;
      B.w_int b s.selected_instrs)
    (fun r ->
      let blocks = B.r_list block_id.B.dec r in
      let selected_instrs = B.r_int r in
      { Ise.Prune.blocks; selected_instrs })

let candidate : Ise.Candidate.t B.codec =
  B.codec
    (fun b (c : Ise.Candidate.t) ->
      B.w_string b c.func;
      B.w_int b c.block;
      B.w_list B.w_int b c.nodes;
      B.w_int b c.root;
      B.w_int b c.size;
      B.w_int b c.num_inputs;
      B.w_list B.w_string b c.opcodes;
      B.w_string b c.signature)
    (fun r ->
      let func = B.r_string r in
      let block = B.r_int r in
      let nodes = B.r_list B.r_int r in
      let root = B.r_int r in
      let size = B.r_int r in
      let num_inputs = B.r_int r in
      let opcodes = B.r_list B.r_string r in
      let signature = B.r_string r in
      {
        Ise.Candidate.func;
        block;
        nodes;
        root;
        size;
        num_inputs;
        opcodes;
        signature;
      })

let candidates : Ise.Candidate.t list B.codec = B.list candidate

let estimate : Pp.Estimator.estimate B.codec =
  B.codec
    (fun b (e : Pp.Estimator.estimate) ->
      B.w_int b e.sw_cycles;
      B.w_int b e.hw_cycles;
      B.w_int b e.luts;
      B.w_float b e.speedup)
    (fun r ->
      let sw_cycles = B.r_int r in
      let hw_cycles = B.r_int r in
      let luts = B.r_int r in
      let speedup = B.r_float r in
      { Pp.Estimator.sw_cycles; hw_cycles; luts; speedup })

let scored : Ise.Select.scored B.codec =
  B.codec
    (fun b (s : Ise.Select.scored) ->
      candidate.B.enc b s.candidate;
      estimate.B.enc b s.estimate;
      B.w_float b s.saved_cycles)
    (fun r ->
      let candidate = candidate.B.dec r in
      let estimate = estimate.B.dec r in
      let saved_cycles = B.r_float r in
      { Ise.Select.candidate; estimate; saved_cycles })

let scored_list : Ise.Select.scored list B.codec = B.list scored

(* ------------------------------------------------------------------ *)
(* Hardware generation: vhdl stage.                                   *)
(* ------------------------------------------------------------------ *)

let component : Pp.Component.t B.codec =
  B.map
    ~enc:(fun (c : Pp.Component.t) -> (c.opcode, c.width))
    ~dec:(fun (opcode, width) -> { Pp.Component.opcode; width })
    (B.pair B.string B.int)

let vhdl : Hw.Vhdl.t B.codec =
  B.codec
    (fun b (v : Hw.Vhdl.t) ->
      B.w_string b v.entity_name;
      B.w_string b v.source;
      B.w_list component.B.enc b v.components;
      B.w_int b v.lines)
    (fun r ->
      let entity_name = B.r_string r in
      let source = B.r_string r in
      let components = B.r_list component.B.dec r in
      let lines = B.r_int r in
      { Hw.Vhdl.entity_name; source; components; lines })

let project : Hw.Project.t B.codec =
  B.codec
    (fun b (p : Hw.Project.t) ->
      B.w_string b p.name;
      vhdl.B.enc b p.vhdl;
      B.w_list (fun b (k, v) -> B.w_string b k; B.w_string b v) b p.netlists)
    (fun r ->
      let name = B.r_string r in
      let vhdl = vhdl.B.dec r in
      let netlists =
        B.r_list
          (fun r ->
            let k = B.r_string r in
            let v = B.r_string r in
            (k, v))
          r
      in
      { Hw.Project.name; vhdl; netlists })

(* ------------------------------------------------------------------ *)
(* CAD flow: pieces of the implement stage's chain artifact (the      *)
(* chain codec itself is composed in Asip_sp, next to the type).      *)
(* ------------------------------------------------------------------ *)

(** Checksums travel verbatim — a stored corrupt bitstream stays
    corrupt after a round-trip. *)
let bitstream : Cad.Bitstream.t B.codec =
  B.codec
    (fun b (s : Cad.Bitstream.t) ->
      B.w_string b s.signature;
      B.w_int b s.size_bytes;
      B.w_int b s.frames;
      B.w_int b s.luts;
      B.w_float b s.generation_seconds;
      B.w_int b s.checksum)
    (fun r ->
      let signature = B.r_string r in
      let size_bytes = B.r_int r in
      let frames = B.r_int r in
      let luts = B.r_int r in
      let generation_seconds = B.r_float r in
      let checksum = B.r_int r in
      {
        Cad.Bitstream.signature;
        size_bytes;
        frames;
        luts;
        generation_seconds;
        checksum;
      })

let flow_stage : Cad.Flow.stage B.codec =
  B.enum ~name:"flow_stage"
    Cad.Flow.
      [ Check_syntax; Synthesis; Translate; Map; Place_and_route; Bitgen ]

let stage_report : Cad.Flow.stage_report B.codec =
  B.map
    ~enc:(fun (s : Cad.Flow.stage_report) -> (s.stage, s.seconds))
    ~dec:(fun (stage, seconds) -> { Cad.Flow.stage; seconds })
    (B.pair flow_stage B.float)

let fault_kind : Cad.Faults.kind B.codec =
  B.enum ~name:"fault_kind"
    Cad.Faults.[ Tool_crash; Congestion; Timing_failure; Bitgen_corruption ]

let flow_failure : Cad.Flow.failure B.codec =
  B.codec
    (fun b (f : Cad.Flow.failure) ->
      flow_stage.B.enc b f.failed_stage;
      fault_kind.B.enc b f.fault;
      B.w_float b f.wasted_seconds)
    (fun r ->
      let failed_stage = flow_stage.B.dec r in
      let fault = fault_kind.B.dec r in
      let wasted_seconds = B.r_float r in
      { Cad.Flow.failed_stage; fault; wasted_seconds })

let flow_run : Cad.Flow.run B.codec =
  B.codec
    (fun b (run : Cad.Flow.run) ->
      B.w_list stage_report.B.enc b run.stages;
      B.w_float b run.total_seconds;
      bitstream.B.enc b run.bitstream)
    (fun r ->
      let stages = B.r_list stage_report.B.dec r in
      let total_seconds = B.r_float r in
      let bitstream = bitstream.B.dec r in
      { Cad.Flow.stages; total_seconds; bitstream })
