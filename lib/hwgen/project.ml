(** FPGA CAD project assembly — the "Create Project" task of the
    Netlist Generation phase.

    A project bundles everything Xilinx ISE would need for one custom
    instruction: the generated VHDL, the component netlists pulled from
    the PivPav database (the netlist cache that spares re-synthesis of
    the cores), and the target-device parameters. *)

module Ise = Jitise_ise
module Pp = Jitise_pivpav

type device = {
  part : string;        (** e.g. ["xc4vfx100-10ff1517"] *)
  luts_available : int;
  dsp_available : int;
  reconfig_frame_bytes : int;
      (** partial-reconfiguration granularity; fixes bitstream size *)
}

(** The paper's target: the large Virtex-4 FX100 of the Woolcano
    platform. *)
let virtex4_fx100 =
  {
    part = "xc4vfx100-10ff1517";
    luts_available = 84_352;
    dsp_available = 160;
    reconfig_frame_bytes = 164 * 4;
  }

type t = {
  name : string;                     (** candidate signature *)
  candidate : Ise.Candidate.t;
  vhdl : Vhdl.t;
  netlists : (string * string) list;  (** component name -> netlist blob *)
  device : device;
  netlist_cache_hits : int;
  netlist_cache_misses : int;
}

(** Build the CAD project for [candidate], fetching every instantiated
    component's netlist through the database cache. *)
let create ?(device = virtex4_fx100) (db : Pp.Database.t)
    (dfg : Jitise_ir.Dfg.t) (candidate : Ise.Candidate.t) : t =
  let vhdl = Vhdl.generate dfg candidate in
  let before = Pp.Database.stats db in
  let netlists =
    List.filter_map
      (fun comp ->
        Option.map
          (fun blob -> (Pp.Component.name comp, blob))
          (Pp.Database.fetch_netlist db comp))
      (List.sort_uniq Pp.Component.compare vhdl.Vhdl.components)
  in
  let after = Pp.Database.stats db in
  {
    name = candidate.Ise.Candidate.signature;
    candidate;
    vhdl;
    netlists;
    device;
    netlist_cache_hits =
      after.Pp.Database.netlist_hits - before.Pp.Database.netlist_hits;
    netlist_cache_misses =
      after.Pp.Database.netlist_misses - before.Pp.Database.netlist_misses;
  }

(** Aggregate area of the candidate's data path, from the database. *)
let area (db : Pp.Database.t) (t : t) =
  List.fold_left
    (fun (luts, ffs, dsp) comp ->
      match Pp.Database.lookup db comp with
      | Some e ->
          ( luts + e.Pp.Database.metrics.Pp.Metrics.luts,
            ffs + e.Pp.Database.metrics.Pp.Metrics.flip_flops,
            dsp + e.Pp.Database.metrics.Pp.Metrics.dsp48 )
      | None -> (luts, ffs, dsp))
    (0, 0, 0) t.vhdl.Vhdl.components
