(** Lightweight span tracer with a Chrome-trace exporter.

    Every pipeline stage (compile, profile, prune, MAXMISO, estimate,
    select, VHDL generation, each CAD stage) can be wrapped in a span;
    the collected spans export as Chrome's
    {{:https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU}
    trace-event JSON} and load directly into [chrome://tracing] or
    Perfetto.

    The recorder is thread-safe: spans may be emitted concurrently from
    every domain of a {!Pool}-driven sweep; each event carries the
    domain id as its [tid] so parallel lanes render side by side.

    Two kinds of spans coexist:
    - {b wall-clock spans} ({!span}) measure real elapsed time of the
      live pipeline stages;
    - {b synthetic spans} ({!add}) carry externally supplied
      timestamps/durations — used for the {e simulated} CAD stages,
      whose minutes-long durations are modelled, not lived. *)

type event = {
  name : string;
  cat : string;
  ts : float;   (** seconds since the Unix epoch *)
  dur : float;  (** seconds *)
  tid : int;
  args : (string * string) list;
}

type t = { mutable events : event list; lock : Mutex.t }

let create () = { events = []; lock = Mutex.create () }

let now = Unix.gettimeofday

(** Record a fully specified event (synthetic timeline). *)
let add (t : t) ?(cat = "pipeline") ?(args = []) ~name ~ts ~dur () =
  let tid = (Domain.self () :> int) in
  let e = { name; cat; ts; dur; tid; args } in
  Mutex.protect t.lock (fun () -> t.events <- e :: t.events)

(** [span tracer name f] runs [f ()], recording its wall-clock duration
    when a tracer is present.  [None] makes the span free, so call
    sites can trace unconditionally.  The span is recorded even when
    [f] raises. *)
let span (t : t option) ?cat name (f : unit -> 'a) : 'a =
  match t with
  | None -> f ()
  | Some t -> (
      let ts = now () in
      let finish () = add t ?cat ~name ~ts ~dur:(now () -. ts) () in
      match f () with
      | r ->
          finish ();
          r
      | exception exn ->
          finish ();
          raise exn)

(** All recorded events, oldest first. *)
let events (t : t) : event list =
  let es = Mutex.protect t.lock (fun () -> t.events) in
  List.sort (fun a b -> compare (a.ts, a.name) (b.ts, b.name)) es

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let event_to_json (e : event) =
  let args =
    match e.args with
    | [] -> ""
    | args ->
        let fields =
          List.map
            (fun (k, v) ->
              Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
            args
        in
        Printf.sprintf ",\"args\":{%s}" (String.concat "," fields)
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":%d%s}"
    (json_escape e.name) (json_escape e.cat)
    (e.ts *. 1e6) (e.dur *. 1e6) e.tid args

(** Export as a Chrome trace-event JSON document. *)
let to_json (t : t) : string =
  let body = String.concat ",\n  " (List.map event_to_json (events t)) in
  Printf.sprintf
    "{\"traceEvents\":[\n  %s\n],\"displayTimeUnit\":\"ms\"}\n" body

(** Write the Chrome trace to [path]. *)
let write (t : t) (path : string) : unit =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json t))
