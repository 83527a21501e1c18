(** Persistent content-addressed artifact backend.

    On-disk layout, one file per artifact:

    {v <root>/<stage>/<digest-hex> v}

    where [stage] is the pipeline stage name (stage names are
    path-safe by construction: lowercase words and dashes) and
    [digest-hex] the 16-character hex input digest.

    Each file is a small envelope around the codec payload:

    {v "JTSE" magic | version byte | builder string | payload digest
       (hex, for integrity) | payload bytes v}

    with the three fields after the version Binio-framed.  Writers are
    crash-safe: the envelope is written to a unique [.tmp] sibling and
    [rename]d into place, so readers never observe a half-written
    entry, and the first completed write wins.  Readers treat {e any}
    defect — missing file, short read, bad magic or version, framing
    errors, checksum mismatch — as a cache miss: the pipeline
    recomputes and (re)writes the entry.  Bumping [version] therefore
    invalidates old stores safely rather than breaking them: an entry
    whose complete header names another version is the one thing a
    [put] replaces, so an upgraded store warms again after one run. *)

let magic = "JTSE"
let version = 6

(* Unique tmp-file suffixes within one process; the pid namespaces
   concurrent processes sharing a store root. *)
let tmp_seq = Atomic.make 0

let mkdir_p dir =
  let rec mk d =
    if not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir

let entry_path ~root ~stage ~digest = Filename.concat (Filename.concat root stage) digest

let encode_envelope ~builder ~payload =
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b magic;
  Binio.w_byte b version;
  Binio.w_string b builder;
  Binio.w_string b Digest.(to_hex (of_string payload));
  Binio.w_string b payload;
  Buffer.contents b

(* Returns [(builder, payload)], raising [Binio.Corrupt] on any defect. *)
let decode_envelope bytes =
  let r = Binio.reader bytes in
  let m = try String.sub bytes 0 (String.length magic) with Invalid_argument _ ->
    Binio.corrupt "store entry shorter than magic"
  in
  if not (String.equal m magic) then Binio.corrupt "bad store magic";
  for _ = 1 to String.length magic do
    ignore (Binio.r_byte r)
  done;
  let v = Binio.r_byte r in
  if v <> version then Binio.corrupt "unsupported store version %d" v;
  let builder = Binio.r_string r in
  let checksum = Binio.r_string r in
  let payload = Binio.r_string r in
  if Binio.remaining r <> 0 then Binio.corrupt "trailing bytes in store entry";
  if not (String.equal checksum Digest.(to_hex (of_string payload))) then
    Binio.corrupt "store entry checksum mismatch";
  (builder, payload)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let get ~root ~stage ~digest =
  match read_file (entry_path ~root ~stage ~digest) with
  | None -> None
  | Some bytes -> (
      try Some (decode_envelope bytes) with Binio.Corrupt _ -> None)

(* Whether the entry at [path] has a complete header (magic and version
   byte) naming a version other than this build's.  A missing, torn or
   current-version entry is not stale. *)
let stale path =
  let header_len = String.length magic + 1 in
  match
    In_channel.with_open_bin path (fun ic ->
        In_channel.really_input_string ic header_len)
  with
  | Some h ->
      String.starts_with ~prefix:magic h
      && Char.code h.[String.length magic] <> version
  | None | (exception Sys_error _) -> false

let put ?(chaos = Chaos.none) ~root ~stage ~digest ~builder ~payload () =
  let target = entry_path ~root ~stage ~digest in
  if not (Sys.file_exists target) || stale target then begin
    mkdir_p (Filename.dirname target);
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" target (Unix.getpid ())
        (Atomic.fetch_and_add tmp_seq 1)
    in
    let envelope = encode_envelope ~builder ~payload in
    (* The torn-write fault plane truncates the envelope bytes at rest —
       below the payload checksum — so every later read of this entry
       detects the tear and degrades to a miss.  Keyed per (stage,
       digest): under one chaos seed a site is either always or never
       torn, whatever the scheduling. *)
    let site = stage ^ "/" ^ digest in
    let envelope =
      if Chaos.store_torn chaos ~site then
        String.sub envelope 0
          (Chaos.torn_length chaos ~site ~len:(String.length envelope))
      else envelope
    in
    (* Best effort: a full disk or permission problem degrades the
       store to pass-through rather than failing the pipeline. *)
    try
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc envelope);
      Sys.rename tmp target
    with Sys_error _ -> (try Sys.remove tmp with Sys_error _ -> ())
  end

let is_tmp_name name =
  (* "<digest>.tmp.<pid>.<seq>" — match on the marker, not the exact
     shape, so orphans from older layouts are swept too. *)
  let marker = ".tmp." in
  let nl = String.length name and ml = String.length marker in
  let rec scan i =
    i + ml <= nl && (String.equal (String.sub name i ml) marker || scan (i + 1))
  in
  scan 0

(* A crash between temp-write and [rename] leaks the temp file; nothing
   on the read or write path ever looks at it again, so without this
   sweep orphans accumulate forever.  Removing a {e live} concurrent
   writer's temp file is harmless: its [rename] fails with [Sys_error]
   and the write degrades to a skip, which first-put-wins tolerates. *)
let sweep_orphans ~root =
  let removed = ref 0 in
  (match Sys.readdir root with
  | exception Sys_error _ -> ()
  | stage_dirs ->
      Array.iter
        (fun stage ->
          let dir = Filename.concat root stage in
          if (try Sys.is_directory dir with Sys_error _ -> false) then
            match Sys.readdir dir with
            | exception Sys_error _ -> ()
            | names ->
                Array.iter
                  (fun n ->
                    if is_tmp_name n then
                      try
                        Sys.remove (Filename.concat dir n);
                        incr removed
                      with Sys_error _ -> ())
                  names)
        stage_dirs);
  !removed

let backend ?chaos ~root () : Artifact.backend =
  mkdir_p root;
  ignore (sweep_orphans ~root);
  {
    Artifact.backend_kind = "disk:" ^ root;
    backend_get = (fun ~stage ~digest -> get ~root ~stage ~digest);
    backend_put =
      (fun ~stage ~digest ~builder ~payload ->
        put ?chaos ~root ~stage ~digest ~builder ~payload ());
  }
