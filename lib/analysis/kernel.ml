(** Kernel-size analysis (Section IV-C, last two columns of Table I).

    The kernel of an application is the smallest set of basic blocks
    responsible for at least 90 % of execution time.  Blocks are
    ranked by their profiled total cycle cost and accumulated until the
    threshold is crossed; the kernel size is the static instruction
    count of those blocks, also expressed as a percentage of the whole
    program. *)

module Ir = Jitise_ir
module Vm = Jitise_vm

type t = {
  size_percent : float;
      (** static instructions of the kernel blocks / of the program *)
  time_percent : float;  (** share of execution time actually covered *)
}

let block_instrs (m : Ir.Irmod.t) (fname, label) =
  match Ir.Irmod.find_func m fname with
  | None -> 0
  | Some f -> Ir.Block.size (Ir.Func.block f label)

(** Compute the kernel of a profiled module. *)
let compute (m : Ir.Irmod.t) (profile : Vm.Profile.t) : t =
  let costs = Vm.Profile.block_costs profile m in
  let total_cycles =
    List.fold_left (fun acc (_, c) -> Int64.add acc c) 0L costs
  in
  let target =
    Int64.of_float (0.9 *. Int64.to_float total_cycles)
  in
  let rec take acc covered = function
    | [] -> (List.rev acc, covered)
    | (key, c) :: rest ->
        if covered >= target then (List.rev acc, covered)
        else take (key :: acc) (Int64.add covered c) rest
  in
  let blocks, covered = take [] 0L costs in
  let kernel_instrs =
    List.fold_left (fun acc key -> acc + block_instrs m key) 0 blocks
  in
  let total_instrs = Ir.Irmod.num_instrs m in
  {
    size_percent =
      (if total_instrs = 0 then 0.0
       else 100.0 *. float_of_int kernel_instrs /. float_of_int total_instrs);
    time_percent =
      (if total_cycles = 0L then 0.0
       else 100.0 *. Int64.to_float covered /. Int64.to_float total_cycles);
  }
