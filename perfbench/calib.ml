(* Host-speed calibration.

   A fixed allocation + Hashtbl + sort kernel, timed on both sides of
   every unit.  A unit's reported time is [raw * nominal_s / kernel
   time around it], so a host that is slower while the unit runs (a
   noisy neighbour, frequency scaling) reads the same as a quiet one.
   The kernel lives
   here, not in the libraries under test, so no change to them can move
   it; it runs under pinned GC parameters, restored afterwards, so a
   library that retunes the GC cannot move it either. *)

(* Median kernel time on a 2-core x86-64 container (OCaml 5.1.1).  Only
   the scale of reported times depends on it; changing it invalidates
   every recorded baseline. *)
let nominal_s = 0.021

let pinned (g : Gc.control) =
  { g with Gc.minor_heap_size = 262_144; space_overhead = 120 }

(* SplitMix-style mixing keeps the keys deterministic and spread out. *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

let kernel () =
  let n = 30_000 in
  let tbl = Hashtbl.create 1024 in
  let items =
    List.init n (fun i ->
        let k = mix i land 0xffff in
        (k, float_of_int (mix (i + n) land 0xfffff), string_of_int k))
  in
  List.iter
    (fun (k, v, s) ->
      match Hashtbl.find_opt tbl k with
      | Some (v', s') -> Hashtbl.replace tbl k (v +. v', s ^ s')
      | None -> Hashtbl.replace tbl k (v, s))
    items;
  let arr = Array.of_list (List.map (fun (_, v, _) -> v) items) in
  Array.sort Float.compare arr;
  Hashtbl.length tbl + int_of_float arr.(n / 2)

(** One timed kernel run, in seconds. *)
let sample () =
  let saved = Gc.get () in
  Gc.set (pinned saved);
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  let dt = Unix.gettimeofday () -. t0 in
  Gc.set saved;
  dt
