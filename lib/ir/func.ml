(** Functions.

    A function owns an array of basic blocks; block 0 is the entry.
    Register ids are unique within the function: ids [0 .. nparams-1]
    name the parameters, instruction-defined ids follow. *)

type t = {
  name : string;
  params : (Instr.reg * Ty.t) list;
  ret_ty : Ty.t;
  mutable blocks : Block.t array;
  mutable next_reg : int;  (** first unused register id *)
}

let create ~name ~params ~ret_ty =
  {
    name;
    params;
    ret_ty;
    blocks = [||];
    next_reg = List.length params;
  }

let entry_label = 0

let block t label =
  if label < 0 || label >= Array.length t.blocks then
    invalid_arg (Printf.sprintf "Func.block: no block %d in %s" label t.name)
  else t.blocks.(label)

let num_blocks t = Array.length t.blocks

(** Total number of non-terminator instructions across all blocks. *)
let num_instrs t =
  Array.fold_left (fun acc b -> acc + Block.size b) 0 t.blocks

let iter_blocks f t = Array.iter f t.blocks

let iter_instrs f t =
  iter_blocks (fun b -> List.iter (fun i -> f b i) b.Block.instrs) t

(** [resolve subst op] follows [subst] (register to the operand that
    replaces it) from [op] until it reaches a constant or a register
    with no entry. *)
let rec resolve subst op =
  match op with
  | Instr.Reg r -> (
      match Hashtbl.find_opt subst r with
      | Some op' -> resolve subst op'
      | None -> op)
  | Instr.Const _ -> op

(** [substitute t subst ~drop] rewrites every instruction and
    terminator operand of [t] through {!resolve}.  With [~drop:true]
    the instructions whose register [subst] replaces are removed. *)
let substitute t subst ~drop =
  let rw = resolve subst in
  iter_blocks
    (fun b ->
      b.Block.instrs <-
        List.filter_map
          (fun (i : Instr.t) ->
            if drop && Hashtbl.mem subst i.id then None
            else Some { i with kind = Instr.map_operands rw i.kind })
          b.Block.instrs;
      b.Block.term <- Instr.map_terminator_operands rw b.Block.term)
    t

(** Allocate a fresh register id. *)
let fresh_reg t =
  let r = t.next_reg in
  t.next_reg <- r + 1;
  r

(** Fetch the type of a register: parameter or instruction result.
    @raise Not_found if the register is not defined in [t]. *)
let reg_ty t r =
  match List.assoc_opt r t.params with
  | Some ty -> ty
  | None ->
      let found = ref None in
      iter_instrs (fun _ (i : Instr.t) -> if i.id = r then found := Some i.ty) t;
      (match !found with Some ty -> ty | None -> raise Not_found)
