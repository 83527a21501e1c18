(** Application-level ASIP speedup accounting.

    [asip_ratio] is the paper's "ASIP ratio": the factor by which the
    whole application accelerates when a set of candidates executes on
    custom functional units instead of the CPU pipeline.  Total cycles
    come from a profiled run; savings are per-candidate
    frequency-weighted cycle deltas. *)

type t = {
  ratio : float;
      (** total / (total - saved): native software cycles of the whole
          run over those left once the custom instructions remove
          theirs *)
}

(** Speedup of a run of [total_cycles] when the given selected
    candidates are offloaded to hardware. *)
let of_selection ~total_cycles (selection : Select.scored list) : t =
  let saved =
    List.fold_left (fun acc s -> acc +. s.Select.saved_cycles) 0.0 selection
  in
  (* Savings can never exceed the cycles actually spent. *)
  let saved = Float.min saved (0.999 *. total_cycles) in
  {
    ratio =
      (if total_cycles <= 0.0 then 1.0
       else total_cycles /. (total_cycles -. saved));
  }
