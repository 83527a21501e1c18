(** Hardware component identities.

    A component is one pre-synthesized IP core: an operator at a given
    bit width, e.g. [add_i32] or [fmul_f64].  Component keys are derived
    from IR instructions so the data-path generator and the estimator
    agree on the mapping. *)

module Ir = Jitise_ir

type t = {
  opcode : string;  (** IR mnemonic: ["add"], ["fmul"], ["icmp.slt"], ... *)
  width : int;      (** operand width in bits *)
}

let name t = Printf.sprintf "%s_w%d" t.opcode t.width

let compare = compare

(** Component implementing an IR instruction, or [None] when the
    instruction cannot be mapped to hardware (memory access, call,
    phi). *)
let of_instr (i : Ir.Instr.t) : t option =
  if not (Ir.Instr.hw_feasible i.Ir.Instr.kind) then None
  else
    let width =
      match i.Ir.Instr.kind with
      | Ir.Instr.Icmp _ | Ir.Instr.Fcmp _ -> (
          (* Sized by the operands, not the i1 result.  Without a type
             environment the constant operand decides; otherwise the
             machine word is assumed. *)
          match Ir.Instr.operands i.Ir.Instr.kind with
          | Ir.Instr.Const c :: _ | [ _; Ir.Instr.Const c ] ->
              Ir.Ty.bits (Ir.Instr.const_ty c)
          | _ -> 32)
      | _ -> Ir.Ty.bits i.Ir.Instr.ty
    in
    let width = if width <= 1 then 32 else width in
    Some { opcode = Ir.Instr.opcode_name i.Ir.Instr.kind; width }
