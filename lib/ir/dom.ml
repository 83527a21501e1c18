(** Dominator tree and dominance frontiers.

    Implements the Cooper-Harvey-Kennedy iterative algorithm.  Used by
    the mem2reg pass in the frontend optimizer to place phi nodes, which
    is what puts arithmetic chains into registers and thereby exposes
    them to the ISE algorithms. *)

type t = {
  idom : int array;
      (** immediate dominator per block; [idom.(entry) = entry];
          [-1] for unreachable blocks *)
}

let compute (cfg : Cfg.t) =
  let n = Cfg.num_blocks cfg in
  let order = Cfg.reverse_postorder cfg in
  let rpo_index = Array.make n max_int in
  List.iteri (fun i l -> rpo_index.(l) <- i) order;
  let idom = Array.make n (-1) in
  if n > 0 then idom.(Func.entry_label) <- Func.entry_label;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while rpo_index.(!f1) > rpo_index.(!f2) do
        f1 := idom.(!f1)
      done;
      while rpo_index.(!f2) > rpo_index.(!f1) do
        f2 := idom.(!f2)
      done
    done;
    !f1
  in
  let changed = ref true in
  (* the intersection of the processed predecessors' dominators, [-1]
     while none is processed *)
  let meet acc p =
    if idom.(p) = -1 then acc else if acc = -1 then p else intersect acc p
  in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> Func.entry_label then begin
          let new_idom = List.fold_left meet (-1) (Cfg.preds cfg b) in
          if new_idom <> -1 && idom.(b) <> new_idom then begin
            idom.(b) <- new_idom;
            changed := true
          end
        end)
      order
  done;
  { idom }

(** Dominance frontier of every block (Cytron et al. via the CHK
    formulation): [frontier.(b)] lists the blocks where [b]'s dominance
    ends. *)
let frontiers t (cfg : Cfg.t) =
  let n = Cfg.num_blocks cfg in
  let frontier = Array.make n [] in
  for b = 0 to n - 1 do
    let preds = Cfg.preds cfg b in
    if List.length preds >= 2 && t.idom.(b) <> -1 then
      List.iter
        (fun p ->
          if t.idom.(p) <> -1 then begin
            let runner = ref p in
            while !runner <> t.idom.(b) do
              if not (List.mem b frontier.(!runner)) then
                frontier.(!runner) <- b :: frontier.(!runner);
              runner := t.idom.(!runner)
            done
          end)
        preds
  done;
  frontier
