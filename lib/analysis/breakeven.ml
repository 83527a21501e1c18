(** Break-even analysis (Section V-D).

    How long must an application execute before the ASIP specialization
    overhead is amortized by the custom-instruction savings?

    The paper rejects the simplistic "replay the same input" model in
    favour of one where {e additional input data} is processed: extra
    runtime flows only into the {e live} code (see {!Coverage}), while
    {e constant} code (startup, fixed-size phases) executes once
    regardless of input size.  Savings therefore split into a one-time
    part (candidates in constant blocks) and a scaling part (candidates
    in live blocks), and the break-even point is where cumulative
    savings meet the overhead:

    {v
      cycles(x)  = C_const + x . C_live          (x = input scale)
      savings(x) = S_const + x . S_live
      xbe : savings(xbe) . cycle_time = overhead
      break_even = (cycles(xbe) - savings(xbe)) . cycle_time
    v}

    The result is the paper's "break even time" column of Table II:
    time spent executing on the adapted architecture until the ASIP-SP
    investment is paid back. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module Ise = Jitise_ise

type split = {
  live_cycles : float;     (** baseline cycles in live blocks *)
  const_cycles : float;    (** baseline cycles in constant blocks *)
  live_saved : float;      (** candidate savings in live blocks *)
  const_saved : float;     (** candidate savings in constant blocks *)
}

(** Split baseline cycles and candidate savings by coverage class. *)
let split_costs (m : Ir.Irmod.t) (profile : Vm.Profile.t)
    (coverage : Coverage.t) (selection : Ise.Select.scored list) : split =
  let class_of = Coverage.index coverage in
  let live_cycles = ref 0.0 and const_cycles = ref 0.0 in
  List.iter
    (fun ((fname, label), cycles) ->
      let c = Int64.to_float cycles in
      match class_of ~func:fname ~label with
      | Coverage.Live -> live_cycles := !live_cycles +. c
      | Coverage.Constant -> const_cycles := !const_cycles +. c
      | Coverage.Dead -> ())
    (Vm.Profile.block_costs profile m);
  let live_saved = ref 0.0 and const_saved = ref 0.0 in
  List.iter
    (fun (s : Ise.Select.scored) ->
      let c = s.Ise.Select.candidate in
      match
        class_of ~func:c.Ise.Candidate.func ~label:c.Ise.Candidate.block
      with
      | Coverage.Live -> live_saved := !live_saved +. s.Ise.Select.saved_cycles
      | Coverage.Constant ->
          const_saved := !const_saved +. s.Ise.Select.saved_cycles
      | Coverage.Dead -> ())
    selection;
  {
    live_cycles = !live_cycles;
    const_cycles = !const_cycles;
    live_saved = !live_saved;
    const_saved = !const_saved;
  }

type result =
  | Never         (** savings can never reach the overhead *)
  | After of float  (** seconds of adapted execution until amortization *)

(* ------------------------------------------------------------------ *)
(* Epsilon ordering                                                    *)
(* ------------------------------------------------------------------ *)

(** Relative tolerance for the threshold comparisons below.  Cycle
    totals are float sums over many blocks, so exact comparisons at the
    break-even boundary are noise-sensitive: two mathematically equal
    accumulations can differ in the last bits depending on summation
    grouping. *)
let epsilon = 1e-9

(** [approx_le a b]: a <= b up to [epsilon], relative to the larger
    magnitude (absolute near zero). *)
let approx_le a b =
  a -. b <= epsilon *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(** [approx_ge a b]: a >= b up to [epsilon]. *)
let approx_ge a b = approx_le b a

(** [definitely_pos a]: a > 0 beyond the tolerance — a value within
    [epsilon] of zero does not count as positive savings. *)
let definitely_pos a = a > epsilon

(** Incremental launch rule for the online controller (the classic
    ski-rental argument): commit to the specialization investment once
    the savings already foregone by staying in software match the
    one-time overhead.  Waiting longer can at most double the loss;
    committing earlier bets on a phase that may end first. *)
let worthwhile ~overhead_seconds ~foregone_seconds =
  definitely_pos foregone_seconds
  && approx_ge foregone_seconds overhead_seconds

(** Break-even time for a given overhead (seconds of ASIP-SP work). *)
let of_split (s : split) ~overhead_seconds : result =
  let cycle_time = Ir.Cost.cycle_time in
  let overhead_cycles = overhead_seconds /. cycle_time in
  let total_cycles = s.live_cycles +. s.const_cycles in
  let total_saved = s.live_saved +. s.const_saved in
  if not (definitely_pos total_saved) then Never
  else if approx_le overhead_cycles total_saved then begin
    (* Amortized within the first (baseline-sized) run: savings accrue
       proportionally along the run. *)
    let fraction = overhead_cycles /. total_saved in
    After (fraction *. (total_cycles -. total_saved) *. cycle_time)
  end
  else if not (definitely_pos s.live_saved) then Never
  else begin
    (* The input must scale beyond the baseline. *)
    let x = (overhead_cycles -. s.const_saved) /. s.live_saved in
    let cycles_x = s.const_cycles +. (x *. s.live_cycles) in
    let saved_x = s.const_saved +. (x *. s.live_saved) in
    After ((cycles_x -. saved_x) *. cycle_time)
  end

(** One-call convenience: classify, split and solve. *)
let compute (m : Ir.Irmod.t) (profile : Vm.Profile.t) (coverage : Coverage.t)
    (selection : Ise.Select.scored list) ~overhead_seconds : result =
  of_split (split_costs m profile coverage selection) ~overhead_seconds
