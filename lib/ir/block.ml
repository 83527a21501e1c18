(** Basic blocks.

    A block is a straight-line instruction sequence ended by exactly one
    terminator.  Blocks are identified within their function by their
    index ([Instr.label]); [name] is only for printing. *)

type t = {
  label : Instr.label;
  name : string;
  mutable instrs : Instr.t list;  (** in execution order *)
  mutable term : Instr.terminator;
}

let create ~label ~name ~term = { label; name; instrs = []; term }

(** Number of non-terminator instructions. *)
let size b = List.length b.instrs

(** Phi instructions (always a prefix of a well-formed block). *)
let phis b =
  List.filter
    (fun (i : Instr.t) -> match i.kind with Instr.Phi _ -> true | _ -> false)
    b.instrs

(** Replace the instruction list (used by optimizer passes). *)
let set_instrs b instrs = b.instrs <- instrs

let append b instr = b.instrs <- b.instrs @ [ instr ]
