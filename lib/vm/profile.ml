(** Execution profiles.

    The VM records how often every basic block executes.  Profiles
    drive everything downstream: the pruning filter ranks blocks by
    dynamic cost, the coverage analysis classifies code as
    live/dead/constant across datasets, and the break-even model weighs
    candidate savings by block frequency. *)

module Ir = Jitise_ir

type key = string * Ir.Instr.label  (** function name, block label *)

type t = {
  counts : (key, int64) Hashtbl.t;
  mutable executed_instrs : int64;  (** dynamic IR instruction count *)
}

let create () = { counts = Hashtbl.create 256; executed_instrs = 0L }

(** Add [count] executions of a block at once (bulk import from the
    VM's run-local counters). *)
let record t ~func ~label ~count ~instrs =
  let key = (func, label) in
  let prev = Option.value ~default:0L (Hashtbl.find_opt t.counts key) in
  Hashtbl.replace t.counts key (Int64.add prev count);
  t.executed_instrs <-
    Int64.add t.executed_instrs (Int64.mul count (Int64.of_int instrs))

let count t ~func ~label =
  Option.value ~default:0L (Hashtbl.find_opt t.counts (func, label))

(** All profiled (function, label, count) triples, sorted for
    determinism. *)
let to_list t =
  Hashtbl.fold (fun (fn, l) c acc -> (fn, l, c) :: acc) t.counts []
  |> List.sort compare

(** Sliding-window phase profiles.

    The online controller needs to know what is hot NOW, not what was
    hot over the whole run, so it observes block executions into
    fixed-size windows.  When a window fills it is folded into a
    decayed history ([rate]): old phases fade at a configurable rate
    while the just-closed window keeps full weight.  The raw counts of
    the last closed window ([last]) expose phase changes — a block that
    dominated the previous window and vanishes from the next one marks
    a phase exit.

    Blocks are keyed by the dense per-run block id the VM hands its
    monitor ({!Machine.control}), so the open window, the last window
    and the history are flat arrays and an observation is one array
    increment.  Per-key arithmetic is independent across keys: the
    same observation sequence produces the same rates. *)
module Window = struct
  type w = {
    size : int;  (** block executions per window *)
    decay : float;  (** weight kept by history when a window closes *)
    mutable seen : int;  (** observations in the open window *)
    mutable closed : int;  (** windows closed so far *)
    cur : int array;  (** open window counts, by block id *)
    prev : int array;  (** last closed window counts, by block id *)
    hot : float array;  (** decayed per-window rates, by block id *)
  }

  let create ~size ~decay ~blocks =
    if size < 1 then invalid_arg "Profile.Window.create: size must be >= 1";
    if decay < 0.0 || decay >= 1.0 then
      invalid_arg "Profile.Window.create: decay must be in [0, 1)";
    if blocks < 0 then
      invalid_arg "Profile.Window.create: blocks must be >= 0";
    {
      size;
      decay;
      seen = 0;
      closed = 0;
      cur = Array.make blocks 0;
      prev = Array.make blocks 0;
      hot = Array.make blocks 0.0;
    }

  (** Record one execution of block [id].  Returns [true] when the
      open window just filled — the caller should {!advance} and take a
      control decision. *)
  let observe w id =
    w.cur.(id) <- w.cur.(id) + 1;
    w.seen <- w.seen + 1;
    w.seen >= w.size

  (** Close the open window: decay the history, fold the window in,
      remember its raw counts, and start a fresh window.  A decayed
      rate below 1e-9 drops to zero, so long runs through many dead
      phases keep no residue. *)
  let advance w =
    for id = 0 to Array.length w.cur - 1 do
      let r = w.hot.(id) *. w.decay in
      let r = if r < 1e-9 then 0.0 else r in
      let c = w.cur.(id) in
      w.prev.(id) <- c;
      w.hot.(id) <- (if c > 0 then r +. float_of_int c else r);
      w.cur.(id) <- 0
    done;
    w.seen <- 0;
    w.closed <- w.closed + 1

  (** Decayed rate of block [id] (executions per window,
      history-weighted). *)
  let rate w id = w.hot.(id)

  (** Raw count of block [id] in the last closed window. *)
  let last w id = w.prev.(id)

  let windows w = w.closed
end

(** Total software cycles attributed to each block of [m] under this
    profile: [freq * block_cycles].  Returns a sorted association list
    from (func, label) to cycles, heaviest first. *)
let block_costs t (m : Ir.Irmod.t) =
  let costs = ref [] in
  List.iter
    (fun (f : Ir.Func.t) ->
      Ir.Func.iter_blocks
        (fun b ->
          let freq = count t ~func:f.Ir.Func.name ~label:b.Ir.Block.label in
          if freq > 0L then
            let cycles =
              Int64.mul freq (Int64.of_int (Ir.Cost.block_cycles b))
            in
            costs := ((f.Ir.Func.name, b.Ir.Block.label), cycles) :: !costs)
        f)
    m.Ir.Irmod.funcs;
  List.sort (fun (_, a) (_, b) -> Int64.compare b a) !costs
