(* Dead exports: every top-level value, record field, constructor and
   optional parameter of a lib/ unit that no production unit uses
   (DESIGN.md §16).

   Readers are the units under lib/, bin/, examples/, bench/ and
   perfbench/, seen through their .cmt files.  A unit with an .mli
   numbers its interface uids apart from its implementation's, from
   the same base, so an interface uid counts only when another unit
   uses it, and an implementation uid only inside its own unit.

   Values.  Definitions are the [Sig_value] uids of a unit's .cmti, or
   of its .cmt when the unit has no .mli; a read is a [Texp_ident].
   So a value a unit exports but reads only itself is a hit (drop it
   from the .mli); a unit without one reads its own definitions, and
   those reads count.

   Fields and constructors.  Definitions are the record fields
   (inline-record fields included) and variant constructors of every
   type a unit's .cmt declares, nested modules included.  A unit's
   .ml and .mli uids of one label or constructor are grouped by its
   name, so the unit's own uses count.  A field is read by a
   [Texp_field] or by a [Tpat_record] that names it; a constructor is
   used when a [Texp_construct] builds it.  Field reads inside
   [Codecs], or inside a binding of type [_ Binio.codec] anywhere, do
   not count: a field that only its encoder reads is stored, decoded
   and never used.  A codec binding is recognised by its type's name
   alone, so a lib/ type other than [Binio.codec] named [codec] is an
   input error.

   Optional parameters.  Each [?label] of a value's type is defined
   with the value's uids, as [Module.value?label].  It is used by a
   [Texp_apply] headed by the value that passes it ([~l:v], [?l:v] or
   a forwarded [?l]), not by the [None] the typer fills in for an
   omitted one (a construct at a ghost location); a reference to the
   value other than as an application's head passes every label.

   Tests are not readers.  A hit is printed as
   [file:line: Module.value (tag)], or [Module.type.field] and
   [Module.type.Constructor] and [Module.value?label], the tag
   [codec-only] when only codecs read a field, [tests-only] when only
   tests use it, and [unread] ([unpassed] for a parameter)
   otherwise.

   Usage: dead_exports ALLOWLIST [BUILD_ROOT], BUILD_ROOT defaulting to
   _build/default.  ALLOWLIST holds one [Name reason] a line; blank
   lines and lines starting with '#' are skipped.  Exit 0 when every
   hit is allowlisted and every entry is still a hit, 1 otherwise, 2
   on a usage or input error. *)

let production_dirs = [ "lib"; "bin"; "examples"; "bench"; "perfbench" ]
let test_dirs = [ "test" ]
let codec_unit = "Codecs"

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

type kind = Value | Field | Constructor | Param of string

(* Which units' uses of a uid count: its own unit's, the others', or
   all. *)
type scope = Inside | Outside | Anywhere

type def = {
  name : string;
      (** [Module.value], [Module.value?label], [Module.type.field], ... *)
  kind : kind;
  loc : Location.t;
  uids : (Shape.Uid.t * scope) list;
  unit : string;  (** compilation unit name *)
}

(* The fields and constructors a signature's types declare, nested
   modules included, as [(kind, name, loc, uid)]. *)
let rec type_items prefix (sg : Types.signature) =
  let field owner (ld : Types.label_declaration) =
    (Field, owner ^ "." ^ Ident.name ld.ld_id, ld.ld_loc, ld.ld_uid)
  in
  List.concat_map
    (function
      | Types.Sig_type (id, td, _, _) -> (
          let ty = prefix ^ "." ^ Ident.name id in
          match td.type_kind with
          | Type_record (lds, _) -> List.map (field ty) lds
          | Type_variant (cds, _) ->
              List.concat_map
                (fun (cd : Types.constructor_declaration) ->
                  let c = ty ^ "." ^ Ident.name cd.cd_id in
                  (Constructor, c, cd.cd_loc, cd.cd_uid)
                  ::
                  (match cd.cd_args with
                  | Cstr_record lds -> List.map (field c) lds
                  | Cstr_tuple _ -> []))
                cds
          | Type_abstract | Type_open -> [])
      | Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, _) ->
          type_items (prefix ^ "." ^ Ident.name id) sg
      | _ -> [])
    sg

(* The types named [codec] a signature declares, nested modules
   included, as [(name, loc)]. *)
let rec codec_types prefix (sg : Types.signature) =
  List.concat_map
    (function
      | Types.Sig_type (id, td, _, _) when Ident.name id = "codec" ->
          [ (prefix ^ ".codec", td.type_loc) ]
      | Types.Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, _) ->
          codec_types (prefix ^ "." ^ Ident.name id) sg
      | _ -> [])
    sg

(* The optional parameters of a value's type, in order. *)
let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

let definitions root =
  List.concat_map
    (fun cmt_file ->
      let cmt = Cmt_format.read_cmt cmt_file in
      let cmti_file = Filename.remove_extension cmt_file ^ ".cmti" in
      let has_mli = Sys.file_exists cmti_file in
      let impl, intf =
        match cmt.cmt_sourcefile with
        (* Dune's generated alias modules define nothing. *)
        | Some src when Filename.check_suffix src ".ml-gen" -> ([], [])
        | None -> ([], [])
        | Some _ ->
            let impl =
              match cmt.cmt_annots with
              | Implementation s -> s.str_type
              | _ -> []
            in
            let intf =
              if not has_mli then []
              else
                match (Cmt_format.read_cmt cmti_file).cmt_annots with
                | Interface s -> s.sig_type
                | _ -> []
            in
            (impl, intf)
      in
      let unit = cmt.cmt_modname in
      let prefix = display_unit unit in
      List.iter
        (fun (name, (loc : Location.t)) ->
          if name <> "Binio.codec" then begin
            Printf.eprintf
              "%s:%d: type %s: only Binio.codec may be named codec (a \
               binding of this type would count as a codec, and the field \
               reads inside it would not count)\n"
              loc.loc_start.pos_fname loc.loc_start.pos_lnum name;
            exit 2
          end)
        (codec_types prefix impl);
      let values =
        List.concat_map
          (function
            | Types.Sig_value (id, vd, _) ->
                let name = prefix ^ "." ^ Ident.name id in
                let uids =
                  [ (vd.val_uid, if has_mli then Outside else Anywhere) ]
                in
                let def kind name =
                  { name; kind; loc = vd.val_loc; uids; unit }
                in
                def Value name
                :: List.map
                     (fun l -> def (Param l) (name ^ "?" ^ l))
                     (optional_labels vd.val_type)
            | _ -> [])
          (if has_mli then intf else impl)
      in
      let intf_items = type_items prefix intf in
      let types =
        List.map
          (fun (kind, name, loc, uid) ->
            let intf_uids =
              List.filter_map
                (fun (_, n, _, u) ->
                  if n = name then Some (u, Outside) else None)
                intf_items
            in
            let scope = if has_mli then Inside else Anywhere in
            { name; kind; loc; uids = (uid, scope) :: intf_uids; unit })
          (type_items prefix impl)
      in
      values @ types)
    (cmts_under root [ "lib" ])

(* Whether [ty] is a [_ Binio.codec] ([B.codec] through an alias;
   [definitions] rejects any other lib/ type named [codec]). *)
let is_codec ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> Path.last p = "codec"
  | _ -> false

(* A None that the typer built for an optional argument a total
   application leaves out. *)
let is_eliminated (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "None"; _ }, []) -> e.exp_loc.loc_ghost
  | _ -> false

(* One use of a uid: the unit, whether it sits inside a codec value or
   in [Codecs], and for a value the optional labels it passes ([None]
   when the value is referenced other than as an application's head,
   which passes every one). *)
type use = { user : string; in_codec : bool; passed : string list option }

(* uid -> each use of it under [dirs]: value reads (applications
   included), field reads and constructor builds. *)
let users root dirs =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun cmt_file ->
      let cmt = Cmt_format.read_cmt cmt_file in
      let user = cmt.cmt_modname in
      let in_codec = ref (display_unit user = codec_unit) in
      let use ?passed uid =
        Hashtbl.add tbl uid { user; in_codec = !in_codec; passed }
      in
      let expr sub (e : Typedtree.expression) =
        match e.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
            let passed =
              List.filter_map
                (function
                  | Asttypes.Optional l, Some a when not (is_eliminated a) ->
                      Some l
                  | _ -> None)
                args
            in
            use ~passed vd.val_uid;
            List.iter
              (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a)
              args
        | _ ->
            (match e.exp_desc with
            | Texp_ident (_, _, vd) -> use vd.val_uid
            | Texp_field (_, _, ld) -> use ld.lbl_uid
            | Texp_construct (_, cd, _) -> use cd.cstr_uid
            | _ -> ());
            Tast_iterator.default_iterator.expr sub e
      in
      let pat (type k) sub (p : k Typedtree.general_pattern) =
        (match p.pat_desc with
        | Tpat_record (fields, _) ->
            List.iter (fun (_, (ld : Types.label_description), _) ->
                use ld.lbl_uid)
              fields
        | _ -> ());
        Tast_iterator.default_iterator.pat sub p
      in
      let value_binding sub (vb : Typedtree.value_binding) =
        let outer = !in_codec in
        if is_codec vb.vb_pat.pat_type then in_codec := true;
        Tast_iterator.default_iterator.value_binding sub vb;
        in_codec := outer
      in
      let it =
        { Tast_iterator.default_iterator with expr; pat; value_binding }
      in
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
  let prod = users root production_dirs and tests = users root test_dirs in
  let find tbl d =
    List.concat_map
      (fun (uid, scope) ->
        List.filter
          (fun u ->
            (match scope with
            | Inside -> u.user = d.unit
            | Outside -> u.user <> d.unit
            | Anywhere -> true)
            &&
            match (d.kind, u.passed) with
            | Param l, Some passed -> List.mem l passed
            | _ -> true)
          (Hashtbl.find_all tbl uid))
      d.uids
  in
  let counts d u = d.kind <> Field || not u.in_codec in
  let tag d =
    if find prod d <> [] then "codec-only"
    else if find tests d <> [] then "tests-only"
    else match d.kind with Param _ -> "unpassed" | _ -> "unread"
  in
  let hits =
    definitions root
    |> List.filter (fun d -> not (List.exists (counts d) (find prod d)))
    |> List.sort (fun a b -> compare a.name b.name)
  in
  let failed = ref false in
  List.iter
    (fun d ->
      let listed = List.mem d.name allowed in
      if not listed then failed := true;
      Printf.printf "%s:%d: %s (%s)%s\n" d.loc.loc_start.pos_fname
        d.loc.loc_start.pos_lnum d.name (tag d)
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
