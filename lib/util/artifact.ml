type hit = Local | Shared

let hit_name = function Local -> "local" | Shared -> "shared"

(* Universal type: each key mints a private constructor, so injection and
   projection only match for values stored through the same key.  This is
   the standard extensible-variant encoding of a heterogeneous store. *)
type univ = ..

type 'a key = {
  key_name : string;
  inj : 'a -> univ;
  proj : univ -> 'a option;
  codec : 'a Binio.codec option;
}

let key (type a) ?codec name : a key =
  let module M = struct
    type univ += V of a
  end in
  {
    key_name = name;
    inj = (fun x -> M.V x);
    proj = (function M.V x -> Some x | _ -> None);
    codec;
  }

type backend = {
  backend_kind : string;
  backend_get : stage:string -> digest:string -> (string * string) option;
  backend_put :
    stage:string -> digest:string -> builder:string -> payload:string -> unit;
}

type entry = { value : univ; builder : string }

(* One Atomic per event class: every find/put increments exactly one
   field, so lock-free increments never lose updates and a concurrent
   [stats] reader always sees whole values — totals can lag an
   in-flight probe, but are never torn. *)
type counter = {
  computed : int Atomic.t;
  local_hits : int Atomic.t;
  shared_hits : int Atomic.t;
}

type t = {
  table : (string * string, entry) Hashtbl.t;
  (* keyed by stage name; stats survive even for stages whose entries all
     turned out to be duplicate puts *)
  counters : (string, counter) Hashtbl.t;
  lock : Mutex.t;
  backend : backend option;
}

let create ?backend () =
  {
    table = Hashtbl.create 64;
    counters = Hashtbl.create 16;
    lock = Mutex.create ();
    backend;
  }

let backend_kind t = Option.map (fun b -> b.backend_kind) t.backend

let counter_of t stage =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.counters stage with
      | Some c -> c
      | None ->
          let c =
            {
              computed = Atomic.make 0;
              local_hits = Atomic.make 0;
              shared_hits = Atomic.make 0;
            }
          in
          Hashtbl.replace t.counters stage c;
          c)

let find t k ~app ~digest =
  let c = counter_of t k.key_name in
  let hex = Digest.to_hex digest in
  let record_hit builder v =
    let hit = if String.equal builder app then Local else Shared in
    (match hit with
    | Local -> Atomic.incr c.local_hits
    | Shared -> Atomic.incr c.shared_hits);
    Some (v, hit)
  in
  let l1 =
    Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table (k.key_name, hex))
  in
  match l1 with
  | Some e -> (
      match k.proj e.value with
      | None ->
          (* Same stage name registered twice with different keys;
             treat as a miss rather than return a foreign value. *)
          None
      | Some v -> record_hit e.builder v)
  | None -> (
      (* L1 miss: fall through to the byte backend when this key can
         decode bytes.  Decoding happens outside the lock; a corrupt or
         foreign payload degrades to a miss (recompute), never an
         error. *)
      match (t.backend, k.codec) with
      | Some b, Some codec -> (
          match b.backend_get ~stage:k.key_name ~digest:hex with
          | None -> None
          | Some (builder, payload) -> (
              match Binio.decode_opt codec payload with
              | None -> None
              | Some v -> (
                  let e =
                    (* Promote into L1 so later probes skip the backend;
                       first insert wins against a racing put. *)
                    Mutex.protect t.lock (fun () ->
                        match Hashtbl.find_opt t.table (k.key_name, hex) with
                        | Some e -> e
                        | None ->
                            let e = { value = k.inj v; builder } in
                            Hashtbl.replace t.table (k.key_name, hex) e;
                            e)
                  in
                  match k.proj e.value with
                  | None -> None
                  | Some v -> record_hit e.builder v)))
      | _ -> None)

let put t k ~app ~digest v =
  let c = counter_of t k.key_name in
  Atomic.incr c.computed;
  let hex = Digest.to_hex digest in
  let inserted =
    Mutex.protect t.lock (fun () ->
        let tk = (k.key_name, hex) in
        if Hashtbl.mem t.table tk then false
        else begin
          Hashtbl.replace t.table tk { value = k.inj v; builder = app };
          true
        end)
  in
  (* Serialization and backend IO stay outside the lock; the backend is
     itself first-put-wins, so a racing writer is harmless. *)
  if inserted then
    match (t.backend, k.codec) with
    | Some b, Some codec ->
        b.backend_put ~stage:k.key_name ~digest:hex ~builder:app
          ~payload:(Binio.encode codec v)
    | _ -> ()

type stage_stats = {
  stage : string;
  entries : int;
  computed : int;
  local_hits : int;
  shared_hits : int;
}

type stats = {
  total_entries : int;
  total_computed : int;
  total_local_hits : int;
  total_shared_hits : int;
  by_stage : stage_stats list;
}

let stats t =
  Mutex.protect t.lock (fun () ->
      let entries_by_stage = Hashtbl.create 16 in
      Hashtbl.iter
        (fun (stage, _) _ ->
          let n = Option.value ~default:0 (Hashtbl.find_opt entries_by_stage stage) in
          Hashtbl.replace entries_by_stage stage (n + 1))
        t.table;
      let by_stage =
        Hashtbl.fold
          (fun stage (c : counter) acc ->
            {
              stage;
              entries = Option.value ~default:0 (Hashtbl.find_opt entries_by_stage stage);
              computed = Atomic.get c.computed;
              local_hits = Atomic.get c.local_hits;
              shared_hits = Atomic.get c.shared_hits;
            }
            :: acc)
          t.counters []
        |> List.sort (fun a b -> String.compare a.stage b.stage)
      in
      {
        total_entries = Hashtbl.length t.table;
        total_computed = List.fold_left (fun n s -> n + s.computed) 0 by_stage;
        total_local_hits = List.fold_left (fun n s -> n + s.local_hits) 0 by_stage;
        total_shared_hits = List.fold_left (fun n s -> n + s.shared_hits) 0 by_stage;
        by_stage;
      })

let pp_stats ppf s =
  List.iter
    (fun st ->
      Format.fprintf ppf "  %-18s %4d entries  %4d computed  %4d local  %4d shared@."
        st.stage st.entries st.computed st.local_hits st.shared_hits)
    s.by_stage;
  Format.fprintf ppf "  %-18s %4d entries  %4d computed  %4d local  %4d shared@."
    "total" s.total_entries s.total_computed s.total_local_hits s.total_shared_hits
