(* Dead exports: every top-level value of a lib/ unit that no
   production unit reads (DESIGN.md §16).

   Definitions are the [Sig_value] uids of a unit's .cmti, or of its
   .cmt when the unit has no .mli.  Readers are the [Texp_ident] value
   uids in the .cmt of every unit under lib/, bin/, examples/, bench/
   and perfbench/.  A unit with an .mli numbers its interface uids
   apart from its implementation's, so its own reads are no evidence
   (a value it exports but reads only itself is a hit); a unit without
   one reads its own definitions, and those reads count.  Tests are not
   readers.  A hit is printed as [file:line: Module.value (tag)], the
   tag [unread] when no unit reads it, tests included, and
   [tests-only] otherwise.

   Usage: dead_exports ALLOWLIST [BUILD_ROOT], BUILD_ROOT defaulting to
   _build/default.  ALLOWLIST holds one [Module.value reason] a line;
   blank lines and lines starting with '#' are skipped.  Exit 0 when
   every hit is allowlisted and every entry is still a hit, 1
   otherwise, 2 on a usage or input error. *)

let production_dirs = [ "lib"; "bin"; "examples"; "bench"; "perfbench" ]
let test_dirs = [ "test" ]

let rec files_under dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then files_under path else [ path ])

let cmts_under root dirs =
  List.concat_map (fun d -> files_under (Filename.concat root d)) dirs
  |> List.filter (fun f -> Filename.check_suffix f ".cmt")

(* [Jitise_util__Pool] -> [Pool]. *)
let display_unit modname =
  let rec from i =
    if i < 1 then modname
    else if modname.[i] = '_' && modname.[i - 1] = '_' then
      String.sub modname (i + 1) (String.length modname - i - 1)
    else from (i - 1)
  in
  from (String.length modname - 1)

type def = {
  name : string;  (** [Module.value] *)
  loc : Location.t;
  uid : Shape.Uid.t;
  unit : string;  (** compilation unit name *)
  has_mli : bool;
}

let definitions root =
  List.concat_map
    (fun cmt_file ->
      let cmt = Cmt_format.read_cmt cmt_file in
      let cmti_file = Filename.remove_extension cmt_file ^ ".cmti" in
      let has_mli = Sys.file_exists cmti_file in
      let sg =
        match cmt.cmt_sourcefile with
        (* Dune's generated alias modules define nothing. *)
        | Some src when Filename.check_suffix src ".ml-gen" -> []
        | None -> []
        | Some _ -> (
            if has_mli then
              match (Cmt_format.read_cmt cmti_file).cmt_annots with
              | Interface s -> s.sig_type
              | _ -> []
            else
              match cmt.cmt_annots with
              | Implementation s -> s.str_type
              | _ -> [])
      in
      List.filter_map
        (function
          | Types.Sig_value (id, vd, _) ->
              Some
                {
                  name = display_unit cmt.cmt_modname ^ "." ^ Ident.name id;
                  loc = vd.val_loc;
                  uid = vd.val_uid;
                  unit = cmt.cmt_modname;
                  has_mli;
                }
          | _ -> None)
        sg)
    (cmts_under root [ "lib" ])

(* uid -> each unit under [dirs] that reads it, once per read. *)
let readers root dirs =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun cmt_file ->
      let cmt = Cmt_format.read_cmt cmt_file in
      let expr sub (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (_, _, vd) -> Hashtbl.add tbl vd.val_uid cmt.cmt_modname
        | _ -> ());
        Tast_iterator.default_iterator.expr sub e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      match cmt.cmt_annots with
      | Implementation s -> it.structure it s
      | _ -> ())
    (cmts_under root dirs);
  tbl

let read_allowlist path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
  |> List.map (fun (lineno, line) ->
         match String.index_opt line ' ' with
         | Some i -> String.sub line 0 i
         | None ->
             Printf.eprintf "%s:%d: allowlist entry %s has no reason\n" path
               lineno line;
             exit 2)

let () =
  let allowlist, root =
    match Sys.argv with
    | [| _; a |] -> (a, "_build/default")
    | [| _; a; r |] -> (a, r)
    | _ ->
        prerr_endline "usage: dead_exports ALLOWLIST [BUILD_ROOT]";
        exit 2
  in
  if not (Sys.file_exists (Filename.concat root "lib")) then begin
    Printf.eprintf "dead_exports: no %s/lib; run `dune build @check` first\n"
      root;
    exit 2
  end;
  let allowed = read_allowlist allowlist in
  let prod = readers root production_dirs and tests = readers root test_dirs in
  let read d =
    List.exists
      (fun u -> u <> d.unit || not d.has_mli)
      (Hashtbl.find_all prod d.uid)
  in
  let hits =
    definitions root
    |> List.filter (fun d -> not (read d))
    |> List.sort (fun a b -> compare a.name b.name)
  in
  let failed = ref false in
  List.iter
    (fun d ->
      let listed = List.mem d.name allowed in
      if not listed then failed := true;
      Printf.printf "%s:%d: %s (%s)%s\n" d.loc.loc_start.pos_fname
        d.loc.loc_start.pos_lnum d.name
        (if Hashtbl.mem tests d.uid then "tests-only" else "unread")
        (if listed then " allowlisted" else ""))
    hits;
  List.iter
    (fun name ->
      if not (List.exists (fun d -> d.name = name) hits) then begin
        failed := true;
        Printf.printf "%s: stale allowlist entry %s (now read, or gone)\n"
          allowlist name
      end)
    allowed;
  Printf.printf "dead_exports: %d hit(s), %d not allowlisted\n"
    (List.length hits)
    (List.length (List.filter (fun d -> not (List.mem d.name allowed)) hits));
  exit (if !failed then 1 else 0)
