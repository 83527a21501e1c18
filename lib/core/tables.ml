(** Reproductions of the paper's Tables I-IV.

    Each [tableN] function turns {!Experiment.app_result}s into typed
    rows; each [render_tableN] prints them in the paper's layout,
    including the AVG-S / AVG-E / RATIO summary rows. *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module An = Jitise_analysis
module U = Jitise_util

let avg = U.Stats.mean

(* Per-column means over scientific/embedded rows plus their ratio.
   [fields] extracts the numeric columns of a row; NaN entries (e.g. a
   "never" break-even) are excluded from their column's mean. *)
let summaries ~domain_of ~fields rows =
  let s = List.filter (fun r -> domain_of r = W.Workload.Scientific) rows in
  let e = List.filter (fun r -> domain_of r = W.Workload.Embedded) rows in
  let mean_fields rs =
    match rs with
    | [] -> []
    | first :: _ ->
        List.mapi
          (fun i _ ->
            avg
              (List.filter
                 (fun v -> not (Float.is_nan v))
                 (List.map (fun r -> List.nth (fields r) i) rs)))
          (fields first)
  in
  let avg_s = mean_fields s and avg_e = mean_fields e in
  let ratio =
    if avg_s = [] || avg_e = [] then []
    else List.map2 (fun a b -> if b = 0.0 then 0.0 else a /. b) avg_s avg_e
  in
  (avg_s, avg_e, ratio)

(* ------------------------------------------------------------------ *)
(* Table I: application characterization                               *)
(* ------------------------------------------------------------------ *)

type table1_row = {
  name : string;
  domain : W.Workload.domain;
  files : int;
  loc : int;
  compile_seconds : float;
  blocks : int;
  instrs : int;
  vm_seconds : float;
  native_seconds : float;
  vm_ratio : float;          (** VM / Native *)
  asip_ratio : float;        (** upper bound: all MAXMISOs implemented *)
  live_pct : float;
  dead_pct : float;
  const_pct : float;
  kernel_size_pct : float;
  kernel_freq_pct : float;
}

let table1_row (r : Experiment.app_result) : table1_row =
  let stats = r.Experiment.compiled.F.Compiler.stats in
  let train = Experiment.train_outcome r in
  let vm_s = Vm.Machine.seconds_of_cycles train.Vm.Machine.vm_cycles in
  let native_s = Vm.Machine.seconds_of_cycles train.Vm.Machine.native_cycles in
  let live, dead, const = An.Coverage.percentages r.Experiment.coverage in
  {
    name = r.Experiment.workload.W.Workload.name;
    domain = r.Experiment.workload.W.Workload.domain;
    files = stats.F.Compiler.files;
    loc = stats.F.Compiler.loc;
    compile_seconds = stats.F.Compiler.compile_seconds;
    blocks = stats.F.Compiler.blocks;
    instrs = stats.F.Compiler.instrs;
    vm_seconds = vm_s;
    native_seconds = native_s;
    vm_ratio = (if native_s = 0.0 then 1.0 else vm_s /. native_s);
    asip_ratio = r.Experiment.report.Asip_sp.asip_ratio_max.Ise.Speedup.ratio;
    live_pct = live;
    dead_pct = dead;
    const_pct = const;
    kernel_size_pct = r.Experiment.kernel.An.Kernel.size_percent;
    kernel_freq_pct = r.Experiment.kernel.An.Kernel.time_percent;
  }

let table1 results = List.map table1_row results

let table1_fields (r : table1_row) =
  [
    float_of_int r.files; float_of_int r.loc; r.compile_seconds;
    float_of_int r.blocks; float_of_int r.instrs; r.vm_seconds;
    r.native_seconds; r.vm_ratio; r.asip_ratio; r.live_pct; r.dead_pct;
    r.const_pct; r.kernel_size_pct; r.kernel_freq_pct;
  ]

let render_table1 rows =
  let t =
    U.Texttable.create
      ~headers:
        [
          "App"; "files"; "LOC"; "real[s]"; "blk"; "ins"; "VM[s]";
          "Native[s]"; "Ratio"; "ASIP"; "live%"; "dead%"; "const%";
          "size%"; "freq%";
        ]
  in
  let fmt =
    [
      (fun v -> Printf.sprintf "%.0f" v);  (* files *)
      (fun v -> Printf.sprintf "%.0f" v);  (* loc *)
      (fun v -> Printf.sprintf "%.3f" v);  (* compile s *)
      (fun v -> Printf.sprintf "%.0f" v);  (* blk *)
      (fun v -> Printf.sprintf "%.0f" v);  (* ins *)
      (fun v -> Printf.sprintf "%.2f" v);  (* vm *)
      (fun v -> Printf.sprintf "%.2f" v);  (* native *)
      (fun v -> Printf.sprintf "%.2f" v);  (* ratio *)
      (fun v -> Printf.sprintf "%.2f" v);  (* asip *)
      (fun v -> Printf.sprintf "%.2f" v);  (* live *)
      (fun v -> Printf.sprintf "%.2f" v);  (* dead *)
      (fun v -> Printf.sprintf "%.2f" v);  (* const *)
      (fun v -> Printf.sprintf "%.2f" v);  (* size *)
      (fun v -> Printf.sprintf "%.2f" v);  (* freq *)
    ]
  in
  let emit name fields =
    U.Texttable.add_row t (name :: List.map2 (fun f v -> f v) fmt fields)
  in
  List.iter
    (fun r ->
      if r.domain = W.Workload.Scientific then emit r.name (table1_fields r))
    rows;
  let avg_s, avg_e, ratio =
    summaries ~domain_of:(fun r -> r.domain) ~fields:table1_fields rows
  in
  let emit_opt name fields = if fields <> [] then emit name fields in
  U.Texttable.add_separator t;
  emit_opt "AVG-S" avg_s;
  U.Texttable.add_separator t;
  List.iter
    (fun r ->
      if r.domain = W.Workload.Embedded then emit r.name (table1_fields r))
    rows;
  U.Texttable.add_separator t;
  emit_opt "AVG-E" avg_e;
  emit_opt "RATIO" ratio;
  U.Texttable.render t

(* ------------------------------------------------------------------ *)
(* Table II: ASIP-SP runtime overheads                                 *)
(* ------------------------------------------------------------------ *)

type table2_row = {
  name : string;
  domain : W.Workload.domain;
  search_ms : float;
  pruner_efficiency : float;
  blocks : int;       (** blocks passed to identification *)
  instrs : int;       (** instructions passed to identification *)
  candidates : int;
  attempts : int;       (** CAD attempts run (successes + failures) *)
  failures : int;       (** failed CAD attempts *)
  degradations : int;   (** slots abandoned (left in software) *)
  asip_ratio : float;  (** after pruning + selection *)
  const_seconds : float;
  map_seconds : float;
  par_seconds : float;
  sum_seconds : float;
  break_even : An.Breakeven.result;
}

let table2_row (r : Experiment.app_result) : table2_row =
  let rep = r.Experiment.report in
  {
    name = r.Experiment.workload.W.Workload.name;
    domain = r.Experiment.workload.W.Workload.domain;
    search_ms = rep.Asip_sp.search_wall_seconds *. 1000.0;
    pruner_efficiency = rep.Asip_sp.pruning_efficiency;
    blocks = rep.Asip_sp.searched_blocks;
    instrs = rep.Asip_sp.searched_instrs;
    candidates = List.length rep.Asip_sp.selection;
    attempts = rep.Asip_sp.total_attempts;
    failures = rep.Asip_sp.failed_attempts;
    degradations = List.length rep.Asip_sp.dropped;
    asip_ratio = rep.Asip_sp.asip_ratio.Ise.Speedup.ratio;
    const_seconds = rep.Asip_sp.const_seconds;
    map_seconds = rep.Asip_sp.map_seconds;
    par_seconds = rep.Asip_sp.par_seconds;
    sum_seconds = rep.Asip_sp.sum_seconds;
    break_even = r.Experiment.break_even;
  }

let table2 results = List.map table2_row results

(** Numeric columns of a Table II row.  [faults] adds the attempts /
    failures / degradations columns (after "can"); leave it unset to
    reproduce the paper's exact layout. *)
let table2_fields ?(faults = false) (r : table2_row) =
  [ r.search_ms; r.pruner_efficiency; float_of_int r.blocks;
    float_of_int r.instrs; float_of_int r.candidates ]
  @ (if faults then
       [ float_of_int r.attempts; float_of_int r.failures;
         float_of_int r.degradations ]
     else [])
  @ [
      r.asip_ratio; r.const_seconds; r.map_seconds; r.par_seconds;
      r.sum_seconds;
      (match r.break_even with
      | An.Breakeven.Never -> Float.nan
      | An.Breakeven.After s -> s);
    ]

let render_table2 ?(faults = false) rows =
  let count = fun v -> Printf.sprintf "%.0f" v in
  let frac = fun v -> Printf.sprintf "%.2f" v in
  let fault_headers = if faults then [ "att"; "fail"; "deg" ] else [] in
  let t =
    U.Texttable.create
      ~headers:
        ([ "App"; "real[ms]"; "effic"; "blk"; "ins"; "can" ]
        @ fault_headers
        @ [ "ratio"; "const"; "map"; "par"; "sum"; "break even" ])
  in
  let dur v = if Float.is_nan v then "-" else U.Duration.to_min_sec v in
  let be v = if Float.is_nan v then "never" else U.Duration.to_dhms v in
  let fault_fmt = if faults then [ count; count; count ] else [] in
  let fmt =
    [ frac; frac; count; count; count ]
    @ fault_fmt
    @ [ frac; dur; dur; dur; dur; be ]
  in
  let emit name fields =
    U.Texttable.add_row t (name :: List.map2 (fun f v -> f v) fmt fields)
  in
  let table2_fields = table2_fields ~faults in
  List.iter
    (fun r ->
      if r.domain = W.Workload.Scientific then emit r.name (table2_fields r))
    rows;
  let avg_s, avg_e, ratio =
    summaries ~domain_of:(fun r -> r.domain) ~fields:table2_fields rows
  in
  let emit_opt name fields = if fields <> [] then emit name fields in
  U.Texttable.add_separator t;
  emit_opt "AVG-S" avg_s;
  U.Texttable.add_separator t;
  List.iter
    (fun r ->
      if r.domain = W.Workload.Embedded then emit r.name (table2_fields r))
    rows;
  U.Texttable.add_separator t;
  emit_opt "AVG-E" avg_e;
  if ratio <> [] then
    U.Texttable.add_row t
      ("RATIO"
      :: List.map2
           (fun f v -> f v)
           ([ frac; frac; frac; frac; frac ]
           @ (if faults then [ frac; frac; frac ] else [])
           @ [ frac; frac; frac; frac; frac; count ])
           ratio);
  U.Texttable.render t

(* ------------------------------------------------------------------ *)
(* Table III: constant overheads of the CAD flow                       *)
(* ------------------------------------------------------------------ *)

type table3 = {
  c2v : U.Stats.summary;
  syn : U.Stats.summary;
  xst : U.Stats.summary;
  tra : U.Stats.summary;
  bitgen : U.Stats.summary;
  total_mean : float;
}

let table3 (results : Experiment.app_result list) : table3 =
  (* Only candidates whose CAD flow actually ran (cache misses). *)
  let paid =
    List.concat_map
      (fun (r : Experiment.app_result) ->
        List.filter
          (fun (c : Asip_sp.candidate_result) -> c.Asip_sp.cache_hit = None)
          r.Experiment.report.Asip_sp.candidates)
      results
  in
  let stage s =
    List.map
      (fun (c : Asip_sp.candidate_result) ->
        Jitise_cad.Flow.stage_seconds c.Asip_sp.run s)
      paid
  in
  let c2v =
    List.map (fun (c : Asip_sp.candidate_result) -> c.Asip_sp.c2v_seconds) paid
  in
  let summarize = U.Stats.summarize in
  let t =
    {
      c2v = summarize c2v;
      syn = summarize (stage Jitise_cad.Flow.Check_syntax);
      xst = summarize (stage Jitise_cad.Flow.Synthesis);
      tra = summarize (stage Jitise_cad.Flow.Translate);
      bitgen = summarize (stage Jitise_cad.Flow.Bitgen);
      total_mean = 0.0;
    }
  in
  {
    t with
    total_mean =
      t.c2v.U.Stats.mean +. t.syn.U.Stats.mean +. t.xst.U.Stats.mean
      +. t.tra.U.Stats.mean +. t.bitgen.U.Stats.mean;
  }

let render_table3 (t : table3) =
  let tt =
    U.Texttable.create
      ~headers:[ ""; "C2V[s]"; "Syn[s]"; "Xst[s]"; "Tra[s]"; "Bitgen[s]"; "Sum[s]" ]
  in
  let row label get =
    U.Texttable.add_row tt
      (label
      :: List.map
           (fun (s : U.Stats.summary) -> Printf.sprintf "%.2f" (get s))
           [ t.c2v; t.syn; t.xst; t.tra; t.bitgen ]
      @ [
          (if label = "Average" then Printf.sprintf "%.2f" t.total_mean else "");
        ])
  in
  row "Average" (fun s -> s.U.Stats.mean);
  row "Stdev" (fun s -> s.U.Stats.stdev);
  U.Texttable.render tt

(* ------------------------------------------------------------------ *)
(* Table IV: break-even vs bitstream cache and faster CAD              *)
(* ------------------------------------------------------------------ *)

type table4_cell = {
  hit_rate : float;
  cad_speedup : float;
  avg_break_even_seconds : float;  (** mean over the embedded apps *)
}

(** The Table IV grid — cache hit rates 0-90 % by CAD speed-ups 0, 30,
    60 and 90 % — averaged over the embedded applications
    ({!An.Cache_model.residual_overhead} draws the cache contents). *)
let table4 (results : Experiment.app_result list) : table4_cell list =
  let hit_rates = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ] in
  let cad_speedups = [ 0.0; 0.3; 0.6; 0.9 ] in
  let embedded = List.filter Experiment.is_embedded results in
  List.concat_map
    (fun hit_rate ->
      List.map
        (fun cad_speedup ->
          let break_evens =
            List.filter_map
              (fun (r : Experiment.app_result) ->
                let costs = Asip_sp.candidate_costs r.Experiment.report in
                let overhead =
                  An.Cache_model.residual_overhead ~hit_rate ~cad_speedup
                    costs
                in
                match
                  An.Breakeven.of_split r.Experiment.split
                    ~overhead_seconds:overhead
                with
                | An.Breakeven.After s -> Some s
                | An.Breakeven.Never -> None)
              embedded
          in
          { hit_rate; cad_speedup; avg_break_even_seconds = avg break_evens })
        cad_speedups)
    hit_rates

let render_table4 cells =
  let speedups =
    List.sort_uniq compare (List.map (fun c -> c.cad_speedup) cells)
  in
  let hit_rates = List.sort_uniq compare (List.map (fun c -> c.hit_rate) cells) in
  let t =
    U.Texttable.create
      ~headers:
        ("Cache hit[%]"
        :: List.map (fun s -> Printf.sprintf "CAD +%.0f%%" (100.0 *. s)) speedups)
  in
  List.iter
    (fun h ->
      let row =
        List.map
          (fun s ->
            match
              List.find_opt
                (fun c -> c.hit_rate = h && c.cad_speedup = s)
                cells
            with
            | Some c -> U.Duration.to_hms c.avg_break_even_seconds
            | None -> "-")
          speedups
      in
      U.Texttable.add_row t (Printf.sprintf "%.0f" (100.0 *. h) :: row))
    hit_rates;
  U.Texttable.render t
