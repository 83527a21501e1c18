(** The CAD plane of {!Jitise_util.Chaos}: failure kinds of the
    simulated Xilinx tool flow and the roll that draws them.

    The paper's feasibility argument leans on commodity Xilinx tools
    that, in practice, fail routinely: tools crash, map/PAR runs abort on
    congestion, place-and-route misses timing closure, and bitgen
    occasionally emits a corrupt configuration image.  The four
    [cad_*] rates of a {!Jitise_util.Chaos.config} set how often;
    {!Flow.implement_result} rolls them per stage and returns
    per-stage failures instead of assuming every run succeeds, so the
    break-even analysis and the JIT-manager timeline account for
    wasted CAD time.

    Every roll is a pure function of [(seed, signature, stage,
    attempt)], so fault injection is reproducible and independent of
    scheduling: a [jobs:4] sweep injects exactly the same failures as a
    serial one, and the same data path fails the same way on the same
    attempt — the way a deterministic tool chain on fixed input would. *)

module Chaos = Jitise_util.Chaos

type kind =
  | Tool_crash  (** transient tool/license/IO crash; any stage *)
  | Congestion
      (** map or PAR gives up on a congested design; probability grows
          with data-path complexity *)
  | Timing_failure
      (** PAR completes but misses timing closure; recoverable by
          resynthesizing with relaxed constraints *)
  | Bitgen_corruption
      (** bitgen emits a configuration image that fails its CRC check *)

let kind_name = function
  | Tool_crash -> "tool crash"
  | Congestion -> "congestion"
  | Timing_failure -> "timing closure"
  | Bitgen_corruption -> "bitstream corruption"

(** Roll the CAD plane of [c] for one stage of one attempt.

    @param signature the data path's structural signature (the cache key)
    @param stage a stable stage name ({!Flow.stage_name})
    @param attempt 1-based CAD attempt number
    @param relaxed the attempt was resynthesized with relaxed timing
    constraints (skips the timing roll)
    @param complexity LUT-area fraction of a large design, in [0, 1];
    congestion and timing rates grow with it, and small data paths keep
    ~30 % of the base rate *)
let roll (c : Chaos.config) ~signature ~stage ~attempt ~relaxed ~complexity :
    kind option =
  (* One independent PRNG per (seed, signature, stage, attempt, roll)
     tuple: rolls never share a stream, so adding a roll site cannot
     perturb unrelated draws.  The "fault:" key format predates the
     other chaos planes and is kept verbatim so existing fault seeds
     replay old runs bit for bit. *)
  let roll_for what rate kind =
    let prng =
      Chaos.key_prng ~seed:c.Chaos.seed
        (Printf.sprintf "fault:%d:%s:%s:%d:%s" c.Chaos.seed signature stage
           attempt what)
    in
    if Chaos.bernoulli prng rate then Some kind else None
  in
  let scaled rate =
    rate *. (0.3 +. (0.7 *. Float.min 1.0 (Float.max 0.0 complexity)))
  in
  let ( <|> ) a b = match a with Some _ -> a | None -> b () in
  roll_for "crash" c.Chaos.cad_crash_rate Tool_crash
  <|> fun () ->
  (match stage with
  | "map" | "par" ->
      roll_for "congestion" (scaled c.Chaos.cad_congestion_rate) Congestion
  | _ -> None)
  <|> fun () ->
  (match stage with
  | "par" when not relaxed ->
      roll_for "timing" (scaled c.Chaos.cad_timing_rate) Timing_failure
  | _ -> None)
  <|> fun () ->
  match stage with
  | "bitgen" ->
      roll_for "corruption" c.Chaos.cad_corruption_rate Bitgen_corruption
  | _ -> None
