(** Code-coverage classification (Section IV-C of the paper).

    Each application is executed with several input datasets, recording
    the per-block execution frequency of every run.  Blocks are then
    classified by how their frequency responds to the input:

    - {e dead}: frequency 0 in every run — the code never executes;
    - {e constant}: non-zero but identical frequency across runs —
      startup/teardown code independent of the input size;
    - {e live}: frequency varies with the input — the code that scales.

    The live/const split is what makes the paper's break-even model
    non-linear: only live code absorbs additional input data. *)

module Ir = Jitise_ir
module Vm = Jitise_vm

type classification = Dead | Constant | Live

type block_class = {
  func : string;
  label : Ir.Instr.label;
  classification : classification;
  instrs : int;  (** static size of the block *)
}

type t = {
  blocks : block_class list;
  live_instrs : int;
  dead_instrs : int;
  const_instrs : int;
  total_instrs : int;
}

(** Classify every block of [m] from per-dataset profiles (at least
    two).  Blocks absent from all profiles are dead.
    @raise Invalid_argument with fewer than two profiles. *)
let classify (m : Ir.Irmod.t) (profiles : Vm.Profile.t list) : t =
  if List.length profiles < 2 then
    invalid_arg
      (Printf.sprintf
         "Coverage.classify: needs at least two dataset profiles (got %d)"
         (List.length profiles));
  let blocks = ref [] in
  List.iter
    (fun (f : Ir.Func.t) ->
      Ir.Func.iter_blocks
        (fun b ->
          let freqs =
            List.map
              (fun p ->
                Vm.Profile.count p ~func:f.Ir.Func.name ~label:b.Ir.Block.label)
              profiles
          in
          let classification =
            if List.for_all (fun c -> c = 0L) freqs then Dead
            else
              match freqs with
              | first :: rest ->
                  if List.for_all (fun c -> c = first) rest then Constant
                  else Live
              | [] -> Dead
          in
          blocks :=
            {
              func = f.Ir.Func.name;
              label = b.Ir.Block.label;
              classification;
              instrs = Ir.Block.size b;
            }
            :: !blocks)
        f)
    m.Ir.Irmod.funcs;
  let blocks = List.rev !blocks in
  let count cls =
    List.fold_left
      (fun acc b -> if b.classification = cls then acc + b.instrs else acc)
      0 blocks
  in
  let live = count Live and dead = count Dead and const = count Constant in
  {
    blocks;
    live_instrs = live;
    dead_instrs = dead;
    const_instrs = const;
    total_instrs = live + dead + const;
  }

(** Percentage of static code in each class — the paper's live/dead/
    const columns of Table I. *)
let percentages t =
  let pct x =
    if t.total_instrs = 0 then 0.0
    else 100.0 *. float_of_int x /. float_of_int t.total_instrs
  in
  (pct t.live_instrs, pct t.dead_instrs, pct t.const_instrs)

(** Block lookup: [index t] builds a [(func, label)] table in one pass
    over [t.blocks] (the first entry for a block wins) and returns its
    constant-time query, [Dead] for a block [t] does not list. *)
let index t =
  let tbl = Hashtbl.create (List.length t.blocks) in
  List.iter
    (fun b ->
      let key = (b.func, b.label) in
      if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key b.classification)
    t.blocks;
  fun ~func ~label ->
    match Hashtbl.find_opt tbl (func, label) with Some c -> c | None -> Dead
