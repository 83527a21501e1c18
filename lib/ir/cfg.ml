(** Control-flow graph queries over a function's block array. *)

type t = {
  succs : Instr.label list array;
  preds : Instr.label list array;
}

(** Build successor and predecessor adjacency from block terminators.
    Successor lists are ascending and duplicate edges (e.g. both switch
    cases to one target) are kept single; predecessor lists are
    ascending too.  Out-of-range targets are ignored (the verifier
    reports them separately).  Only the lists themselves are allocated:
    the VM's verifier builds a CFG for every function of every module
    it runs. *)
let of_func (f : Func.t) =
  let n = Func.num_blocks f in
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  let ok l = l >= 0 && l < n in
  for b = n - 1 downto 0 do
    let ss =
      match f.Func.blocks.(b).Block.term with
      | Instr.Ret _ -> []
      | Instr.Br l -> if ok l then [ l ] else []
      | Instr.Cond_br (_, x, y) -> (
          match (ok x, ok y) with
          | true, true ->
              if x = y then [ x ] else if x < y then [ x; y ] else [ y; x ]
          | true, false -> [ x ]
          | false, true -> [ y ]
          | false, false -> [])
      | Instr.Switch _ as t ->
          List.sort_uniq compare (Instr.successors t) |> List.filter ok
    in
    succs.(b) <- ss;
    (* blocks are visited in descending order, so consing keeps every
       predecessor list ascending *)
    List.iter (fun s -> preds.(s) <- b :: preds.(s)) ss
  done;
  { succs; preds }

let succs t l = t.succs.(l)
let preds t l = t.preds.(l)
let num_blocks t = Array.length t.succs

(** Blocks reachable from the entry, as a boolean mask. *)
let reachable t =
  let n = num_blocks t in
  let seen = Array.make n false in
  let rec go l =
    if not seen.(l) then begin
      seen.(l) <- true;
      List.iter go t.succs.(l)
    end
  in
  if n > 0 then go Func.entry_label;
  seen

(** Reverse postorder over reachable blocks, starting at the entry.
    This is the iteration order used by the dominator computation. *)
let reverse_postorder t =
  let n = num_blocks t in
  let seen = Array.make n false in
  let order = ref [] in
  let rec go l =
    if not seen.(l) then begin
      seen.(l) <- true;
      List.iter go t.succs.(l);
      order := l :: !order
    end
  in
  if n > 0 then go Func.entry_label;
  !order
