(** A domain pool for data-parallel maps, under one process-wide
    domain budget.

    The pipeline is parallel at two levels: [Experiment.sweep] maps
    over applications, and each application's profile stage maps over
    its datasets (two independent VM runs).  A work queue over
    [Domain.spawn] is all either needs — no external dependency, no
    futures.  The candidates inside one specialization run serially.

    {b The budget.}  The process holds
    [Domain.recommended_domain_count () - 1] {e helper} domains in one
    [Atomic] counter.  A [map] runs its items on the calling domain
    (worker 0) plus as many helpers as it can take from the budget, at
    most [jobs - 1]; every map takes from the same budget, nested maps
    included, and each helper returns its slot when its work queue is
    empty.  A map that finds no helper left runs inline.  So at most
    [Domain.recommended_domain_count ()] domains run map items at once,
    however the maps nest, far below OCaml's domain limit, and a host
    with one recommended domain runs every map serially.
    [jobs] stays a per-call upper bound.

    Guarantees:
    - {b order preservation}: [map ~jobs f xs] returns results in the
      order of [xs], whatever the scheduling;
    - {b exception propagation}: if any application of [f] raises, the
      exception of the {e lowest-indexed} failing element is re-raised
      (with its backtrace) after the pool drains, so parallel failures
      are deterministic too — the exception [List.map f xs] raises;
    - {b degenerate case}: [jobs <= 1], a short list or an exhausted
      budget runs [List.map f xs] on the calling domain, spawning
      nothing. *)

let helpers = Atomic.make (Domain.recommended_domain_count () - 1)

(* Take up to [want] helper slots from the budget; returns how many. *)
let rec take_helpers want =
  let avail = Atomic.get helpers in
  let k = min want avail in
  if k <= 0 then 0
  else if Atomic.compare_and_set helpers avail (avail - k) then k
  else take_helpers want

let map ?(jobs = 1) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let n = List.length xs in
  let k = if jobs <= 1 || n <= 1 then 0 else take_helpers (min jobs n - 1) in
  if k = 0 then List.map f xs
  else begin
    let inputs = Array.of_list xs in
    let results : 'b option array = Array.make n None in
    (* First failure by input index; later failures are discarded so the
       outcome does not depend on domain scheduling. *)
    let failure : (int * exn * Printexc.raw_backtrace) option ref = ref None in
    let next = Atomic.make 0 in
    let lock = Mutex.create () in
    let record_failure i exn bt =
      Mutex.protect lock (fun () ->
          match !failure with
          | Some (j, _, _) when j <= i -> ()
          | _ -> failure := Some (i, exn, bt))
    in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f inputs.(i) with
        | r -> results.(i) <- Some r
        | exception exn -> record_failure i exn (Printexc.get_raw_backtrace ()));
        worker ()
      end
    in
    (* A helper gives its slot back as soon as the queue is empty, so a
       map still running elsewhere (a straggling application's dataset
       map) can use it before this one joins. *)
    let helper () = Fun.protect worker ~finally:(fun () -> Atomic.incr helpers) in
    let domains = List.init k (fun _ -> Domain.spawn helper) in
    worker ();
    List.iter Domain.join domains;
    match !failure with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None ->
        Array.to_list
          (Array.mapi
             (fun i r ->
               match r with
               | Some r -> r
               | None ->
                   (* unreachable: every index was either computed or a
                      failure was recorded and re-raised above *)
                   failwith (Printf.sprintf "Pool.map: slot %d not filled" i))
             results)
  end
