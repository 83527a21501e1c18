(** The MiniC-to-bitcode compiler entry point.

    Mirrors the paper's "Compilation to Bitcode" stage (llvm-gcc -O3):
    one or more source files are parsed, type-checked, lowered and
    optimized into a single IR module, and the statistics reported in
    Table I (files, LOC, compile seconds, blocks, instructions) are
    collected on the way. *)

module Ir = Jitise_ir

type stats = {
  files : int;
  loc : int;            (** non-blank non-comment source lines *)
  compile_seconds : float;  (** wall-clock time of the full pipeline *)
  blocks : int;         (** basic blocks in the optimized module *)
  instrs : int;         (** IR instructions in the optimized module *)
}

type result = { modul : Ir.Irmod.t; stats : stats }

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(** Compile source files (given as [(filename, contents)] pairs) into
    one optimized, verified IR module.

    @param optimize run the -O3 pipeline (default true)
    @param unroll_factor innermost-loop unrolling factor under -O3
    (default {!Unroll.default_factor}; 1 disables unrolling)
    @raise Error with a located message on any lexical, syntactic, type
    or verification failure. *)
let compile ?(optimize = true) ?(unroll_factor = Unroll.default_factor)
    ~module_name (sources : (string * string) list) : result =
  if sources = [] then fail "no source files";
  let t0 = Unix.gettimeofday () in
  let loc =
    List.fold_left (fun acc (_, src) -> acc + Lexer.count_loc src) 0 sources
  in
  let program =
    List.concat_map
      (fun (file, src) ->
        try Parser.parse_program src with
        | Lexer.Error { line; message } ->
            fail "%s:%d: lexical error: %s" file line message
        | Parser.Error { line; message } ->
            fail "%s:%d: syntax error: %s" file line message)
      sources
  in
  let program =
    if optimize && unroll_factor > 1 then
      Unroll.program ~factor:unroll_factor program
    else program
  in
  let env =
    try Typecheck.check_program program
    with Typecheck.Error { line; message } ->
      fail "line %d: type error: %s" line message
  in
  let modul =
    try Lower.lower_program env ~module_name program
    with Lower.Error { line; message } ->
      fail "line %d: lowering error: %s" line message
  in
  if optimize then Opt.optimize_module modul
  else begin
    (* mem2reg is part of -O0 too: the VM interprets SSA form. *)
    List.iter (fun f -> ignore (Opt.remove_unreachable f)) modul.Ir.Irmod.funcs;
    Mem2reg.run_module modul
  end;
  (match Ir.Verifier.check_module modul with
  | [] -> ()
  | errors ->
      fail "internal error: compiler produced invalid IR:\n%s"
        (Ir.Verifier.errors_to_string errors));
  let compile_seconds = Unix.gettimeofday () -. t0 in
  {
    modul;
    stats =
      {
        files = List.length sources;
        loc;
        compile_seconds;
        blocks = Ir.Irmod.num_blocks modul;
        instrs = Ir.Irmod.num_instrs modul;
      };
  }

(** [compile_string ~name src] compiles a single in-memory source. *)
let compile_string ~name src = compile ~module_name:name [ (name ^ ".c", src) ]
