(** A small fixed-size domain pool for data-parallel maps.

    The sweep engine is embarrassingly parallel: each workload is
    evaluated independently, so a work queue over [Domain.spawn] is all
    that is needed — no external dependency, no futures.  There is one
    level of parallelism: [map] over the applications of a sweep; the
    candidates inside one specialization run serially.

    Guarantees:
    - {b order preservation}: [map ~jobs f xs] returns results in the
      order of [xs], whatever the scheduling;
    - {b exception propagation}: if any application of [f] raises, the
      exception of the {e lowest-indexed} failing element is re-raised
      (with its backtrace) after the pool drains, so parallel failures
      are deterministic too;
    - {b degenerate case}: [jobs <= 1] (or a short list) runs inline on
      the calling domain, spawning nothing. *)

let map ?(jobs = 1) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let inputs = Array.of_list xs in
    let results : 'b option array = Array.make n None in
    (* First failure by input index; later failures are discarded so the
       outcome does not depend on domain scheduling. *)
    let failure : (int * exn * Printexc.raw_backtrace) option ref = ref None in
    let next = ref 0 in
    let lock = Mutex.create () in
    let take () =
      Mutex.protect lock (fun () ->
          if !next >= n then None
          else begin
            let i = !next in
            incr next;
            Some i
          end)
    in
    let record_failure i exn bt =
      Mutex.protect lock (fun () ->
          match !failure with
          | Some (j, _, _) when j <= i -> ()
          | _ -> failure := Some (i, exn, bt))
    in
    let rec worker () =
      match take () with
      | None -> ()
      | Some i ->
          (match f inputs.(i) with
          | r -> results.(i) <- Some r
          | exception exn ->
              record_failure i exn (Printexc.get_raw_backtrace ()));
          worker ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
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
