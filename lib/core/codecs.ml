(** Binary codecs for every artifact the staged pipeline stores.

    One {!Jitise_util.Binio.codec} per stage output type, threaded into
    the stage keys of {!Experiment} and {!Asip_sp} so artifacts can be
    persisted through a byte backend ({!Jitise_util.Store_disk}) and
    read back in a later process.

    Faithfulness rules:
    - Every codec is a lossless round-trip for the fields the pipeline
      and report tables consume (the qcheck laws in the test suite pin
      this per codec).
    - IR modules travel as printed text and are re-parsed on decode —
      [Printer]/[Parser] round-tripping is already a documented,
      tested invariant of the IR layer.
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
(* Frontend: compile stage.                                           *)
(* ------------------------------------------------------------------ *)

let opt_report : F.Opt.report B.codec =
  B.codec
    (fun b (r : F.Opt.report) ->
      B.w_int b r.promoted_allocas;
      B.w_int b r.folded;
      B.w_int b r.cse_eliminated;
      B.w_int b r.dce_removed;
      B.w_int b r.unreachable_removed;
      B.w_int b r.blocks_merged)
    (fun r ->
      let promoted_allocas = B.r_int r in
      let folded = B.r_int r in
      let cse_eliminated = B.r_int r in
      let dce_removed = B.r_int r in
      let unreachable_removed = B.r_int r in
      let blocks_merged = B.r_int r in
      {
        F.Opt.promoted_allocas;
        folded;
        cse_eliminated;
        dce_removed;
        unreachable_removed;
        blocks_merged;
      })

(** IR modules as printed text: [Parser.parse (Printer.print m)] is a
    documented structural identity of the IR layer. *)
let irmod : Ir.Irmod.t B.codec =
  B.map
    ~enc:(fun m -> Ir.Printer.module_to_string m)
    ~dec:(fun s ->
      try Ir.Parser.parse_module s
      with e -> B.corrupt "unparsable stored IR: %s" (Printexc.to_string e))
    B.string

let compiler_stats : F.Compiler.stats B.codec =
  B.codec
    (fun b (s : F.Compiler.stats) ->
      B.w_int b s.files;
      B.w_int b s.loc;
      B.w_float b s.compile_seconds;
      B.w_int b s.blocks;
      B.w_int b s.instrs;
      opt_report.B.enc b s.opt_report)
    (fun r ->
      let files = B.r_int r in
      let loc = B.r_int r in
      let compile_seconds = B.r_float r in
      let blocks = B.r_int r in
      let instrs = B.r_int r in
      let opt_report = opt_report.B.dec r in
      { F.Compiler.files; loc; compile_seconds; blocks; instrs; opt_report })

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

(** VM memory: the backed cells below the stack pointer (one boxed
    [value] each, whatever the in-memory cell layout), the global
    layout and the growth limit.  [load] only ever reads below
    [stack_pointer], so this reconstructs an observationally identical
    memory. *)
let memory : Vm.Memory.t B.codec =
  B.codec
    (fun b (m : Vm.Memory.t) ->
      B.w_int b m.Vm.Memory.stack_pointer;
      B.w_int b m.Vm.Memory.limit;
      let n = min m.Vm.Memory.stack_pointer (Vm.Memory.capacity m) in
      B.w_len b n;
      for i = 0 to n - 1 do
        value.B.enc b (Vm.Memory.cell m i)
      done;
      let globals =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.Vm.Memory.globals []
        |> List.sort compare
      in
      B.w_list (fun b (k, v) -> B.w_string b k; B.w_int b v) b globals)
    (fun r ->
      let stack_pointer = B.r_int r in
      let limit = B.r_int r in
      let n = B.r_len r in
      let m = Vm.Memory.create ~limit ~capacity:(max 1024 n) () in
      m.Vm.Memory.stack_pointer <- stack_pointer;
      for i = 0 to n - 1 do
        Vm.Memory.set_cell m i (value.B.dec r)
      done;
      let pairs =
        B.r_list
          (fun r ->
            let k = B.r_string r in
            let v = B.r_int r in
            (k, v))
          r
      in
      List.iter (fun (k, v) -> Hashtbl.replace m.Vm.Memory.globals k v) pairs;
      m)

let machine_outcome : Vm.Machine.outcome B.codec =
  B.codec
    (fun b (o : Vm.Machine.outcome) ->
      B.w_option value.B.enc b o.Vm.Machine.ret;
      B.w_float b o.Vm.Machine.native_cycles;
      B.w_float b o.Vm.Machine.vm_cycles;
      profile.B.enc b o.Vm.Machine.profile;
      memory.B.enc b o.Vm.Machine.memory)
    (fun r ->
      let ret = B.r_option value.B.dec r in
      let native_cycles = B.r_float r in
      let vm_cycles = B.r_float r in
      let profile = profile.B.dec r in
      let memory = memory.B.dec r in
      { Vm.Machine.ret; native_cycles; vm_cycles; profile; memory })

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
      B.w_int b c.instrs;
      B.w_list B.w_int64 b c.frequencies)
    (fun r ->
      let func = B.r_string r in
      let label = B.r_int r in
      let classification = classification.B.dec r in
      let instrs = B.r_int r in
      let frequencies = B.r_list B.r_int64 r in
      { An.Coverage.func; label; classification; instrs; frequencies })

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

let block_id : (string * Ir.Instr.label) B.codec = B.pair B.string B.int

let kernel : An.Kernel.t B.codec =
  B.codec
    (fun b (k : An.Kernel.t) ->
      B.w_float b k.threshold_percent;
      B.w_list block_id.B.enc b k.blocks;
      B.w_int b k.kernel_instrs;
      B.w_int b k.total_instrs;
      B.w_float b k.size_percent;
      B.w_float b k.time_percent)
    (fun r ->
      let threshold_percent = B.r_float r in
      let blocks = B.r_list block_id.B.dec r in
      let kernel_instrs = B.r_int r in
      let total_instrs = B.r_int r in
      let size_percent = B.r_float r in
      let time_percent = B.r_float r in
      {
        An.Kernel.threshold_percent;
        blocks;
        kernel_instrs;
        total_instrs;
        size_percent;
        time_percent;
      })

(* ------------------------------------------------------------------ *)
(* ISE search: prune, maxmiso, select/alternates stages.              *)
(* ------------------------------------------------------------------ *)

let prune_selection : Ise.Prune.selection B.codec =
  B.codec
    (fun b (s : Ise.Prune.selection) ->
      B.w_list block_id.B.enc b s.blocks;
      B.w_int b s.total_blocks;
      B.w_int b s.selected_instrs)
    (fun r ->
      let blocks = B.r_list block_id.B.dec r in
      let total_blocks = B.r_int r in
      let selected_instrs = B.r_int r in
      { Ise.Prune.blocks; total_blocks; selected_instrs })

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
      B.w_float b e.hw_latency_ns;
      B.w_int b e.hw_cycles;
      B.w_int b e.num_inputs;
      B.w_int b e.luts;
      B.w_int b e.flip_flops;
      B.w_int b e.dsp48;
      B.w_float b e.speedup)
    (fun r ->
      let sw_cycles = B.r_int r in
      let hw_latency_ns = B.r_float r in
      let hw_cycles = B.r_int r in
      let num_inputs = B.r_int r in
      let luts = B.r_int r in
      let flip_flops = B.r_int r in
      let dsp48 = B.r_int r in
      let speedup = B.r_float r in
      {
        Pp.Estimator.sw_cycles;
        hw_latency_ns;
        hw_cycles;
        num_inputs;
        luts;
        flip_flops;
        dsp48;
        speedup;
      })

let scored : Ise.Select.scored B.codec =
  B.codec
    (fun b (s : Ise.Select.scored) ->
      candidate.B.enc b s.candidate;
      estimate.B.enc b s.estimate;
      B.w_int64 b s.frequency;
      B.w_float b s.saved_cycles)
    (fun r ->
      let candidate = candidate.B.dec r in
      let estimate = estimate.B.dec r in
      let frequency = B.r_int64 r in
      let saved_cycles = B.r_float r in
      { Ise.Select.candidate; estimate; frequency; saved_cycles })

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
      B.w_int b v.num_ports;
      B.w_int b v.lines)
    (fun r ->
      let entity_name = B.r_string r in
      let source = B.r_string r in
      let components = B.r_list component.B.dec r in
      let num_ports = B.r_int r in
      let lines = B.r_int r in
      { Hw.Vhdl.entity_name; source; components; num_ports; lines })

let device : Hw.Project.device B.codec =
  B.codec
    (fun b (d : Hw.Project.device) ->
      B.w_string b d.part;
      B.w_int b d.luts_available;
      B.w_int b d.dsp_available;
      B.w_int b d.reconfig_frame_bytes)
    (fun r ->
      let part = B.r_string r in
      let luts_available = B.r_int r in
      let dsp_available = B.r_int r in
      let reconfig_frame_bytes = B.r_int r in
      { Hw.Project.part; luts_available; dsp_available; reconfig_frame_bytes })

let project : Hw.Project.t B.codec =
  B.codec
    (fun b (p : Hw.Project.t) ->
      B.w_string b p.name;
      candidate.B.enc b p.candidate;
      vhdl.B.enc b p.vhdl;
      B.w_list (fun b (k, v) -> B.w_string b k; B.w_string b v) b p.netlists;
      device.B.enc b p.device;
      B.w_int b p.netlist_cache_hits;
      B.w_int b p.netlist_cache_misses)
    (fun r ->
      let name = B.r_string r in
      let candidate = candidate.B.dec r in
      let vhdl = vhdl.B.dec r in
      let netlists =
        B.r_list
          (fun r ->
            let k = B.r_string r in
            let v = B.r_string r in
            (k, v))
          r
      in
      let device = device.B.dec r in
      let netlist_cache_hits = B.r_int r in
      let netlist_cache_misses = B.r_int r in
      {
        Hw.Project.name;
        candidate;
        vhdl;
        netlists;
        device;
        netlist_cache_hits;
        netlist_cache_misses;
      })

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
      B.w_float b f.wasted_seconds;
      B.w_int b f.failed_attempt)
    (fun r ->
      let failed_stage = flow_stage.B.dec r in
      let fault = fault_kind.B.dec r in
      let wasted_seconds = B.r_float r in
      let failed_attempt = B.r_int r in
      { Cad.Flow.failed_stage; fault; wasted_seconds; failed_attempt })

let flow_run : Cad.Flow.run B.codec =
  B.codec
    (fun b (run : Cad.Flow.run) ->
      project.B.enc b run.project;
      B.w_list stage_report.B.enc b run.stages;
      B.w_float b run.total_seconds;
      bitstream.B.enc b run.bitstream;
      B.w_list B.w_string b run.syntax_problems;
      B.w_bool b run.relaxed)
    (fun r ->
      let project = project.B.dec r in
      let stages = B.r_list stage_report.B.dec r in
      let total_seconds = B.r_float r in
      let bitstream = bitstream.B.dec r in
      let syntax_problems = B.r_list B.r_string r in
      let relaxed = B.r_bool r in
      {
        Cad.Flow.project;
        stages;
        total_seconds;
        bitstream;
        syntax_problems;
        relaxed;
      })
