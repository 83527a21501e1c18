(* Output correctness gate.

   Each workload's outputs are rendered into a deterministic text
   projection and digested.  The projection covers what the pipeline
   decides: per-dataset VM results and clocks, the selected custom
   instructions, the ASIP ratios, the simulated overhead, break-even,
   and the Table III / Table IV renders; for the online loop, the full
   [pp_online] text.  It excludes measured wall clocks
   ([compile_seconds], [search_wall_seconds]), so it never depends on
   the host, the seed or the VM tuning knobs. *)

module Core = Jitise_core
module U = Jitise_util
module W = Jitise_workloads
module Vm = Jitise_vm
module Ir = Jitise_ir
module Ise = Jitise_ise
module An = Jitise_analysis
module JM = Jitise_core.Jit_manager

(* Recomputed with [run.py --verify] (Reference VM engine). *)
let golden =
  [
    ("sweep.cold", "ffdadc7a08bf77eb");
    ("sweep.warm", "ffdadc7a08bf77eb");
    ("online.phased", "c5f3f2cb91dfb58b");
  ]

let f17 = Printf.sprintf "%.17g"

let ret_string = function
  | None -> "none"
  | Some v -> Format.asprintf "%a" Ir.Eval.pp_value v

let app b (r : Core.Experiment.app_result) =
  let rep = r.Core.Experiment.report in
  Printf.bprintf b "app %s\n" r.Core.Experiment.workload.W.Workload.name;
  List.iter
    (fun ((d : W.Workload.dataset), (o : Vm.Machine.outcome)) ->
      Printf.bprintf b "  %s n=%d ret=%s native=%s vm=%s instrs=%Ld\n"
        d.W.Workload.label d.W.Workload.n (ret_string o.Vm.Machine.ret)
        (f17 o.Vm.Machine.native_cycles)
        (f17 o.Vm.Machine.vm_cycles)
        o.Vm.Machine.profile.Vm.Profile.executed_instrs)
    r.Core.Experiment.outcomes;
  Printf.bprintf b "  selected %s\n"
    (String.concat " "
       (List.map
          (fun (s : Ise.Select.scored) ->
            s.Ise.Select.candidate.Ise.Candidate.signature)
          rep.Core.Asip_sp.selection));
  Printf.bprintf b "  ratio %s max %s sum %s break-even %s\n"
    (f17 rep.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio)
    (f17 rep.Core.Asip_sp.asip_ratio_max.Ise.Speedup.ratio)
    (f17 rep.Core.Asip_sp.sum_seconds)
    (match r.Core.Experiment.break_even with
    | An.Breakeven.Never -> "never"
    | An.Breakeven.After s -> f17 s)

(** Projection of a sweep's results, given in registry order. *)
let sweep (results : Core.Experiment.app_result list) =
  let b = Buffer.create 8192 in
  List.iter (app b) results;
  Buffer.add_string b (Core.Tables.render_table3 (Core.Tables.table3 results));
  Buffer.add_string b (Core.Tables.render_table4 (Core.Tables.table4 results));
  Buffer.contents b

let same_ret (a : JM.online_run) (b : JM.online_run) =
  match (a.JM.run_ret, b.JM.run_ret) with
  | None, None -> true
  | Some x, Some y -> Ir.Eval.equal_value x y
  | _ -> false

(** Projection of the online loop's reports, in [phased] order, or
    [Error] when the three runs of one report disagree on the program
    result. *)
let online (reports : JM.online_report list) =
  match
    List.find_opt
      (fun (o : JM.online_report) ->
        not
          (same_ret o.JM.o_adaptive o.JM.o_oracle
          && same_ret o.JM.o_adaptive o.JM.o_nospec))
      reports
  with
  | Some o -> Error (o.JM.o_app ^ ": adaptive/oracle/nospec results differ")
  | None ->
      Ok
        (String.concat ""
           (List.map (Format.asprintf "%a" JM.pp_online) reports))

let digest projection = U.Digest.to_hex (U.Digest.of_string projection)
