(** FPGA CAD project assembly — the "Create Project" task of the
    Netlist Generation phase.

    A project bundles everything Xilinx ISE would need for one custom
    instruction: the generated VHDL, the component netlists pulled from
    the PivPav database (the netlist cache that spares re-synthesis of
    the cores). *)

module Ise = Jitise_ise
module Pp = Jitise_pivpav

(** Partial-reconfiguration frame of the paper's target, the Virtex-4
    FX100 of the Woolcano platform; fixes bitstream size. *)
let reconfig_frame_bytes = 164 * 4

type t = {
  name : string;                     (** candidate signature *)
  vhdl : Vhdl.t;
  netlists : (string * string) list;  (** component name -> netlist blob *)
}

(** Build the CAD project for [candidate], fetching every instantiated
    component's netlist through the database cache. *)
let create (db : Pp.Database.t) (dfg : Jitise_ir.Dfg.t)
    (candidate : Ise.Candidate.t) : t =
  let vhdl = Vhdl.generate dfg candidate in
  let netlists =
    List.filter_map
      (fun comp ->
        Option.map
          (fun blob -> (Pp.Component.name comp, blob))
          (Pp.Database.fetch_netlist db comp))
      (List.sort_uniq Pp.Component.compare vhdl.Vhdl.components)
  in
  { name = candidate.Ise.Candidate.signature; vhdl; netlists }

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
