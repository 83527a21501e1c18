(** Basic blocks.

    A block is a straight-line instruction sequence ended by exactly one
    terminator.  Blocks are identified within their function by their
    index ([Instr.label]); [name] is only for printing. *)

type t = {
  label : Instr.label;
  name : string;
  mutable instrs : Instr.t list;
      (** in execution order; reversed while a {!Builder} fills the
          block, until [Builder.finish] *)
  mutable term : Instr.terminator;
}

let create ~label ~name ~term = { label; name; instrs = []; term }

(** Number of non-terminator instructions. *)
let size b = List.length b.instrs

(** Phi instructions: the prefix of phis that leads a well-formed
    block. *)
let phis b =
  let rec go = function
    | ({ Instr.kind = Instr.Phi _; _ } as i) :: rest -> i :: go rest
    | _ -> []
  in
  go b.instrs

(** Replace the instruction list (used by optimizer passes). *)
let set_instrs b instrs = b.instrs <- instrs

(** [map_phis f b] replaces the incoming list of each of [b]'s phis
    with [f] of it.  Only the phi prefix is rebuilt; the rest of the
    list is shared. *)
let map_phis f b =
  let rec go = function
    | ({ Instr.kind = Instr.Phi incoming; _ } as i) :: rest ->
        { i with Instr.kind = Instr.Phi (f incoming) } :: go rest
    | rest -> rest
  in
  b.instrs <- go b.instrs
