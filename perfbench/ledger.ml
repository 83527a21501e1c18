(* Per-layer ledger of one traced round.

   The traced round records three kinds of wall-clock spans: the
   pipeline's own stage spans ([Pipeline.exec], category = layer), and
   the bench's spans around each unit, around [Experiment.finish], and
   around every get/put of the disk store backend.  Spans are nested per
   domain by containment; a span's self time is its duration minus its
   direct children.  Synthetic CAD spans carry simulated durations and
   are dropped. *)

module U = Jitise_util

let stage_cats = [ "frontend"; "vm"; "analysis"; "search"; "hwgen"; "cad" ]

type node = {
  ev : U.Trace.event;
  mutable inner : float;  (** summed duration of direct children *)
  mutable kids : node list;
}

let self n = n.ev.U.Trace.dur -. n.inner

(* All real (wall-clock) spans as a forest, flattened: every node knows
   its direct children. *)
let nodes (events : U.Trace.event list) =
  let real =
    List.filter
      (fun (e : U.Trace.event) ->
        e.U.Trace.cat <> "cad-sim" && e.U.Trace.cat <> "cad-fault")
      events
  in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : U.Trace.event) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_tid e.U.Trace.tid) in
      Hashtbl.replace by_tid e.U.Trace.tid (e :: l))
    real;
  Hashtbl.fold
    (fun _ evs acc ->
      let sorted =
        List.sort
          (fun (a : U.Trace.event) (b : U.Trace.event) ->
            compare (a.U.Trace.ts, -.a.U.Trace.dur) (b.U.Trace.ts, -.b.U.Trace.dur))
          evs
      in
      let ends (n : node) = n.ev.U.Trace.ts +. n.ev.U.Trace.dur in
      let stack = ref [] in
      List.fold_left
        (fun acc (e : U.Trace.event) ->
          let n = { ev = e; inner = 0.0; kids = [] } in
          let rec pop = function
            | p :: rest when ends p +. 1e-6 < e.U.Trace.ts +. e.U.Trace.dur ->
                pop rest
            | s -> s
          in
          stack := pop !stack;
          (match !stack with
          | p :: _ ->
              p.inner <- p.inner +. e.U.Trace.dur;
              p.kids <- n :: p.kids
          | [] -> ());
          stack := n :: !stack;
          n :: acc)
        acc sorted)
    by_tid []

let prefix s =
  match String.index_opt s ':' with Some i -> String.sub s 0 i | None -> s

let suffix s =
  match String.rindex_opt s ':' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let arg n key =
  Option.value ~default:"0" (List.assoc_opt key n.ev.U.Trace.args)

type t = {
  compute : (string * float) list;
      (** stage name -> self seconds of executions that ran the body *)
  profile_by_app : (string * float) list;
      (** app -> self seconds of computed [profile] executions *)
  stage_execs : int;
  decode_s : float;  (** self time of stage executions served from disk *)
  stage_s : float;  (** summed stage durations (all domains) *)
  gets : int;
  get_s : float;
  get_bytes : int;
  puts : int;
  put_s : float;
  put_bytes : int;
  finish_s : float;
  unit_self_s : float;  (** unit time not under any stage, finish or store span *)
}

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let of_events events =
  let all = nodes events in
  let compute = Hashtbl.create 16 and profile = Hashtbl.create 16 in
  let named name = List.filter (fun n -> n.ev.U.Trace.name = name) all in
  let sum f l = List.fold_left (fun acc n -> acc +. f n) 0.0 l in
  let bytes l = List.fold_left (fun acc n -> acc + int_of_string (arg n "bytes")) 0 l in
  let stages =
    List.filter (fun n -> List.mem n.ev.U.Trace.cat stage_cats) all
  in
  let from_disk n =
    List.exists
      (fun k -> k.ev.U.Trace.name = "store.get" && arg k "hit" = "1")
      n.kids
  in
  let hits, computed = List.partition from_disk stages in
  List.iter
    (fun n ->
      let stage = prefix n.ev.U.Trace.name in
      add compute stage (self n);
      if stage = "profile" then add profile (suffix n.ev.U.Trace.name) (self n))
    computed;
  let gets = named "store.get" and puts = named "store.put" in
  let units =
    List.filter (fun n -> prefix n.ev.U.Trace.name = "unit") all
  in
  let to_list tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  {
    compute = to_list compute;
    profile_by_app = to_list profile;
    stage_execs = List.length stages;
    decode_s = sum self hits;
    stage_s = sum (fun n -> n.ev.U.Trace.dur) stages;
    gets = List.length gets;
    get_s = sum (fun n -> n.ev.U.Trace.dur) gets;
    get_bytes = bytes gets;
    puts = List.length puts;
    put_s = sum (fun n -> n.ev.U.Trace.dur) puts;
    put_bytes = bytes puts;
    finish_s = sum (fun n -> n.ev.U.Trace.dur) (named "finish");
    unit_self_s = sum self units;
  }

(** A store backend whose get/put calls record ["store.get"] /
    ["store.put"] spans carrying the payload size and, for gets, whether
    the entry was found. *)
let traced_backend tracer (b : U.Artifact.backend) : U.Artifact.backend =
  let timed name args_of f =
    let ts = U.Trace.now () in
    let r = f () in
    U.Trace.add tracer ~cat:"store" ~args:(args_of r) ~name ~ts
      ~dur:(U.Trace.now () -. ts) ();
    r
  in
  {
    b with
    U.Artifact.backend_get =
      (fun ~stage ~digest ->
        timed "store.get"
          (function
            | None -> [ ("hit", "0"); ("bytes", "0") ]
            | Some (_, payload) ->
                [ ("hit", "1"); ("bytes", string_of_int (String.length payload)) ])
          (fun () -> b.U.Artifact.backend_get ~stage ~digest));
    backend_put =
      (fun ~stage ~digest ~builder ~payload ->
        timed "store.put"
          (fun () -> [ ("bytes", string_of_int (String.length payload)) ])
          (fun () -> b.U.Artifact.backend_put ~stage ~digest ~builder ~payload));
  }
