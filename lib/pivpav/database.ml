(** The PivPav circuit database.

    A deterministic model of the pre-synthesized IP-core library the
    paper's PivPav tool queries: for every component (operator x width)
    it serves timing/area/power metrics and a cached netlist blob.
    Numbers are calibrated to a Xilinx Virtex-4 (-10 speed grade)
    fabric: LUT logic ~0.9 ns per level plus routing, carry chains
    ~50 ps/bit, DSP48 multipliers, multi-cycle dividers, and
    software-profile-matched floating-point cores. *)

module Ir = Jitise_ir

type entry = {
  metrics : Metrics.t;
  netlist : string Lazy.t;  (** EDIF-like blob, generated on first use *)
}

type t = {
  entries : (Component.t, entry) Hashtbl.t;
      (** fully populated by [create]; read-only afterwards, so lookups
          are safe from any domain *)
  lock : Mutex.t;
      (** guards the lazy netlist forcing — one database instance is
          shared by every domain of a parallel sweep *)
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

let metrics_of (c : Component.t) : Metrics.t =
  let luts, ffs, dsp = area c in
  let num_inputs =
    match c.Component.opcode with
    | "select" -> 3
    | "trunc" | "zext" | "sext" | "bitcast" | "fptosi" | "sitofp" | "fpext"
    | "fptrunc" ->
        1
    | _ -> 2
  in
  {
    Metrics.latency_ns = latency_ns c;
    luts;
    flip_flops = ffs;
    dsp48 = dsp;
    output_width_bits =
      (if
         String.length c.Component.opcode >= 5
         && (String.sub c.Component.opcode 0 5 = "icmp."
            || String.sub c.Component.opcode 0 5 = "fcmp.")
       then 1
       else c.Component.width);
    num_inputs;
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
  let t = { entries = Hashtbl.create 256; lock = Mutex.create () } in
  let add opcode width =
    let c = { Component.opcode; width } in
    let m = metrics_of c in
    Hashtbl.replace t.entries c
      { metrics = m; netlist = lazy (netlist_of c m) }
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

(** Fetch a component netlist through the cache (a miss forces the
    lazy generation; every further fetch is a hit). *)
let fetch_netlist t (c : Component.t) =
  match lookup t c with
  | None -> None
  | Some e ->
      (* Forcing a lazy concurrently from two domains raises
         [Lazy.Undefined]; serialize the miss path. *)
      Some (Mutex.protect t.lock (fun () -> Lazy.force e.netlist))
