(** Structural VHDL generation — PivPav's data-path generator.

    Walks a candidate's data-flow subgraph in topological order,
    instantiates one library component per instruction, and wires them
    with intermediate signals.  The output is a self-contained entity
    whose ports are the candidate's external inputs and its single
    output, exactly the artifact the FPGA CAD flow consumes. *)

module Ir = Jitise_ir
module Ise = Jitise_ise
module Pp = Jitise_pivpav

type t = {
  entity_name : string;
  source : string;            (** full VHDL text *)
  components : Pp.Component.t list;  (** instantiated library cores *)
  lines : int;
}

let width_of_ty ty = max 1 (Ir.Ty.bits ty)

let signal_name n = Printf.sprintf "s%d" n

(* Ports for candidate inputs are named by their source register. *)
let port_name r = Printf.sprintf "in_r%d" r

let literal_bits width (c : Ir.Instr.const) =
  let v =
    match c with
    | Ir.Instr.Cint (v, _) -> v
    | Ir.Instr.Cfloat (f, ty) ->
        if ty = Ir.Ty.F32 then Int64.of_int32 (Int32.bits_of_float f)
        else Int64.bits_of_float f
  in
  let b = Buffer.create width in
  for bit = width - 1 downto 0 do
    Buffer.add_char b
      (if Int64.logand (Int64.shift_right_logical v bit) 1L = 1L then '1'
       else '0')
  done;
  Buffer.contents b

(** Generate VHDL for [candidate] within its home DFG.  The paper
    reports this as a constant-time (~0.2 s) per-candidate step. *)
let generate (dfg : Ir.Dfg.t) (candidate : Ise.Candidate.t) : t =
  let nodes = candidate.Ise.Candidate.nodes in
  let inset = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace inset n ()) nodes;
  let entity_name = candidate.Ise.Candidate.signature in
  let inputs = Ise.Candidate.external_input_regs dfg nodes in
  let root = candidate.Ise.Candidate.root in
  let root_instr = dfg.Ir.Dfg.nodes.(root).Ir.Dfg.instr in
  let out_width = width_of_ty root_instr.Ir.Instr.ty in
  let buf = Buffer.create 2048 in
  let components = ref [] in
  Printf.bprintf buf "library ieee;\nuse ieee.std_logic_1164.all;\n";
  Printf.bprintf buf "use ieee.numeric_std.all;\n\n";
  Printf.bprintf buf "entity %s is\n  port (\n" entity_name;
  List.iter
    (fun r ->
      (* Input width is unknown here without the register's type; the
         data-path generator queries it from the defining instruction
         when in-block, else defaults to the machine word. *)
      let width =
        match Hashtbl.find_opt dfg.Ir.Dfg.by_reg r with
        | Some p when not (Hashtbl.mem inset p) ->
            width_of_ty dfg.Ir.Dfg.nodes.(p).Ir.Dfg.instr.Ir.Instr.ty
        | _ -> 32
      in
      Printf.bprintf buf "    %s : in  std_logic_vector(%d downto 0);\n"
        (port_name r) (width - 1))
    inputs;
  Printf.bprintf buf "    q : out std_logic_vector(%d downto 0)\n  );\n"
    (out_width - 1);
  Printf.bprintf buf "end entity %s;\n\n" entity_name;
  Printf.bprintf buf "architecture structural of %s is\n" entity_name;
  (* Signals for every interior node. *)
  List.iter
    (fun n ->
      let w = width_of_ty dfg.Ir.Dfg.nodes.(n).Ir.Dfg.instr.Ir.Instr.ty in
      Printf.bprintf buf "  signal %s : std_logic_vector(%d downto 0);\n"
        (signal_name n) (w - 1))
    nodes;
  Printf.bprintf buf "begin\n";
  let operand_text op =
    match op with
    | Ir.Instr.Const c ->
        let w =
          width_of_ty (Ir.Instr.const_ty c)
        in
        Printf.sprintf "\"%s\"" (literal_bits w c)
    | Ir.Instr.Reg r -> (
        match Hashtbl.find_opt dfg.Ir.Dfg.by_reg r with
        | Some p when Hashtbl.mem inset p -> signal_name p
        | _ -> port_name r)
  in
  List.iter
    (fun n ->
      let instr = dfg.Ir.Dfg.nodes.(n).Ir.Dfg.instr in
      match Pp.Component.of_instr instr with
      | None ->
          invalid_arg
            (Printf.sprintf "Vhdl.generate: infeasible instruction %s"
               (Ir.Instr.opcode_name instr.Ir.Instr.kind))
      | Some comp ->
          components := comp :: !components;
          let ports =
            List.mapi
              (fun k op ->
                let formal =
                  match k with 0 -> "a" | 1 -> "b" | _ -> "sel"
                in
                Printf.sprintf "%s => %s" formal (operand_text op))
              (Ir.Instr.operands instr.Ir.Instr.kind)
          in
          Printf.bprintf buf "  u%d : entity work.%s port map (%s, q => %s);\n"
            n (Pp.Component.name comp)
            (String.concat ", " ports)
            (signal_name n))
    nodes;
  Printf.bprintf buf "  q <= %s;\nend architecture structural;\n"
    (signal_name root);
  let source = Buffer.contents buf in
  {
    entity_name;
    source;
    components = List.rev !components;
    lines =
      String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 source;
  }

(** Structural well-formedness check used by the CAD flow's
    "Check Syntax" stage: entity/architecture bracketing, one
    instantiation per candidate node, and no dangling signal
    references.  Returns problems found (empty = clean). *)
let check_syntax (v : t) : string list =
  let problems = ref [] in
  let need substring what =
    let contains =
      let n = String.length v.source and m = String.length substring in
      let rec go i =
        i + m <= n && (String.sub v.source i m = substring || go (i + 1))
      in
      go 0
    in
    if not contains then problems := what :: !problems
  in
  need ("entity " ^ v.entity_name) "missing entity declaration";
  need ("end entity " ^ v.entity_name) "unterminated entity";
  need "architecture structural" "missing architecture";
  need "end architecture structural" "unterminated architecture";
  need "q <= " "output not driven";
  if v.components = [] then problems := "no component instantiations" :: !problems;
  List.rev !problems
