(** Search-space pruning filters — the [@{p}pS{k}L] family.

    From the paper's ReConFig'10 companion work: before running any ISE
    algorithm, restrict the search to the basic blocks where speedup is
    plausible.  The filter [@{p}pS{k}L] ranks blocks by profiled dynamic
    cost, keeps the hottest blocks that together cover [p] percent of
    execution time, and of those keeps the [k] largest (by static
    instruction count).  The paper's configuration is [@50pS3L].

    Pruning trades speedup for identification time; the paper reports
    two orders of magnitude less ISE runtime for 1/4 of the speedup
    lost. *)

module Ir = Jitise_ir
module Vm = Jitise_vm

type t = {
  coverage_percent : float;  (** dynamic-cost coverage target, 0-100 *)
  top_blocks : int;          (** blocks kept after coverage filtering *)
}

(** The configuration used throughout the paper's evaluation. *)
let at_50p_s3l = { coverage_percent = 50.0; top_blocks = 3 }

(** No pruning: every profiled block passes. *)
let none = { coverage_percent = 100.0; top_blocks = max_int }

(** Render as the paper's name, e.g. ["@50pS3L"]. *)
let name t =
  if t = none then "@nofilter"
  else Printf.sprintf "@%.0fpS%dL" t.coverage_percent t.top_blocks

(** Parse ["@50pS3L"]-style names.  @raise Invalid_argument on
    malformed input. *)
let of_name s =
  if s = "@nofilter" then none
  else
    try Scanf.sscanf s "@%fpS%dL" (fun coverage_percent top_blocks ->
        if coverage_percent <= 0.0 || coverage_percent > 100.0 || top_blocks <= 0
        then
          invalid_arg
            (Printf.sprintf
               "Prune.of_name: out-of-range parameters (got %g%% coverage, \
                %d blocks)"
               coverage_percent top_blocks)
        else { coverage_percent; top_blocks })
    with Scanf.Scan_failure _ | End_of_file | Failure _ ->
      invalid_arg (Printf.sprintf "Prune.of_name: cannot parse %S" s)

type selection = {
  blocks : (string * Ir.Instr.label) list;  (** surviving blocks *)
  selected_instrs : int;  (** static instructions passed to the ISE step *)
}

let block_size (m : Ir.Irmod.t) (fname, label) =
  match Ir.Irmod.find_func m fname with
  | None -> 0
  | Some f -> Ir.Block.size (Ir.Func.block f label)

(** Apply the filter to a profiled module. *)
let apply t (m : Ir.Irmod.t) (profile : Vm.Profile.t) : selection =
  let costs = Vm.Profile.block_costs profile m in
  let total =
    List.fold_left (fun acc (_, c) -> Int64.add acc c) 0L costs
  in
  let threshold =
    Int64.of_float (t.coverage_percent /. 100.0 *. Int64.to_float total)
  in
  (* Hottest blocks first until the coverage target is reached; the
     block crossing the threshold is included. *)
  let rec take acc covered = function
    | [] -> List.rev acc
    | (key, c) :: rest ->
        if covered >= threshold then List.rev acc
        else take (key :: acc) (Int64.add covered c) rest
  in
  let covering = take [] 0L costs in
  let largest =
    List.stable_sort
      (fun a b -> compare (block_size m b) (block_size m a))
      covering
  in
  let rec firstn n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: firstn (n - 1) rest
  in
  let blocks = firstn t.top_blocks largest in
  {
    blocks;
    selected_instrs =
      List.fold_left (fun acc key -> acc + block_size m key) 0 blocks;
  }
