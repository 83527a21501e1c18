(* Tests for Jitise_util: PRNG, statistics, durations, text tables. *)

module U = Jitise_util

let check_float = Alcotest.(check (float 1e-9))
let check_floatish msg = Alcotest.(check (float 1e-6)) msg

(* 62 bits of the next output. *)
let draw t = U.Prng.int t max_int

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = U.Prng.create ~seed:42 and b = U.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (draw a) (draw b)
  done

let test_prng_seed_sensitivity () =
  let a = U.Prng.create ~seed:1 and b = U.Prng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false
    (draw a = draw b)

let test_prng_int_bounds () =
  let t = U.Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = U.Prng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_int_invalid () =
  let t = U.Prng.create ~seed:3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (U.Prng.int t 0))

let test_prng_float_bounds () =
  let t = U.Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = U.Prng.float t 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of bounds: %f" v
  done

let test_prng_gaussian_moments () =
  let t = U.Prng.create ~seed:11 in
  let n = 20_000 in
  let samples = List.init n (fun _ -> U.Prng.gaussian t ~mu:3.0 ~sigma:2.0) in
  let mean = U.Stats.mean samples in
  let sd = (U.Stats.summarize samples).stdev in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.0) < 0.1);
  Alcotest.(check bool) "stdev near 2" true (abs_float (sd -. 2.0) < 0.1)

let test_prng_hash_string_stable () =
  Alcotest.(check int) "stable hash" (U.Prng.hash_string "abc")
    (U.Prng.hash_string "abc");
  Alcotest.(check bool) "different strings differ" true
    (U.Prng.hash_string "abc" <> U.Prng.hash_string "abd");
  Alcotest.(check bool) "non-negative" true (U.Prng.hash_string "xyz" >= 0)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (small_list int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      let t = U.Prng.create ~seed in
      U.Prng.shuffle t arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  check_float "empty" 0.0 (U.Stats.mean []);
  check_float "single" 5.0 (U.Stats.mean [ 5.0 ]);
  check_float "several" 2.0 (U.Stats.mean [ 1.0; 2.0; 3.0 ])

let test_stats_stdev () =
  check_float "too few" 0.0 (U.Stats.summarize [ 1.0 ]).stdev;
  check_floatish "known sample" 1.0 (U.Stats.summarize [ 1.0; 2.0; 3.0 ]).stdev

let test_stats_geomean () =
  check_floatish "geometric" 2.0 (U.Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (U.Stats.geomean [ 1.0; 0.0 ]))

let test_stats_median () =
  check_float "odd" 2.0 (U.Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "even" 2.5 (U.Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50.0 (U.Stats.percentile 50.0 xs);
  check_float "p100" 100.0 (U.Stats.percentile 100.0 xs);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (U.Stats.percentile 101.0 xs))

let test_stats_sum () =
  check_float "empty" 0.0 (U.Stats.sum []);
  check_float "sum" 6.0 (U.Stats.sum [ 3.0; 1.0; 2.0 ])

let test_stats_summarize () =
  let s = U.Stats.summarize [ 1.0; 2.0; 3.0 ] in
  check_float "mean" 2.0 s.U.Stats.mean;
  check_floatish "stdev" 1.0 s.U.Stats.stdev;
  let empty = U.Stats.summarize [] in
  check_float "empty mean" 0.0 empty.U.Stats.mean;
  check_float "empty stdev" 0.0 empty.U.Stats.stdev

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within min/max" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = U.Stats.mean xs in
      let lo = List.fold_left min infinity xs
      and hi = List.fold_left max neg_infinity xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Duration                                                            *)
(* ------------------------------------------------------------------ *)

let test_duration_formats () =
  Alcotest.(check string) "min:sec" "56:22" (U.Duration.to_min_sec 3382.0);
  Alcotest.(check string) "hms" "01:59:55" (U.Duration.to_hms 7195.0);
  Alcotest.(check string) "dhms" "206:22:15:50"
    (U.Duration.to_dhms ((206.0 *. 86400.0) +. (22.0 *. 3600.0) +. (15.0 *. 60.0) +. 50.0))

let test_duration_rounding () =
  Alcotest.(check string) "rounds up" "1:00" (U.Duration.to_min_sec 59.7)

let test_duration_negative () =
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Duration.to_min_sec: negative duration") (fun () ->
      ignore (U.Duration.to_min_sec (-1.0)))

(* The inverse of the formatters, as the round-trip oracle: fields
   joined by ':' in units of [scales] seconds. *)
let parse_duration scales s =
  let parts = String.split_on_char ':' s in
  if List.length parts <> List.length scales then
    invalid_arg (Printf.sprintf "parse_duration: bad field count in %S" s);
  List.fold_left2
    (fun acc scale p ->
      match int_of_string_opt (String.trim p) with
      | Some v when v >= 0 -> acc +. float_of_int (v * scale)
      | _ -> invalid_arg (Printf.sprintf "parse_duration: bad field %S" p))
    0.0 scales parts

let of_min_sec = parse_duration [ 60; 1 ]
let of_hms = parse_duration [ 3600; 60; 1 ]
let of_dhms = parse_duration [ 86400; 3600; 60; 1 ]

let test_duration_parse () =
  check_float "of_min_sec" 3382.0 (of_min_sec "56:22");
  check_float "of_hms" 7195.0 (of_hms "01:59:55");
  check_float "of_dhms" 93307.0 (of_dhms "1:01:55:07");
  Alcotest.(check bool) "malformed raises" true
    (try
       ignore (of_hms "nope");
       false
     with Invalid_argument _ -> true)

(* Durations are plain float seconds: the formatters take sums of
   scaled fields. *)
let test_duration_constructors () =
  Alcotest.(check string) "1.5 h" "01:30:00" (U.Duration.to_hms (1.5 *. 3600.0));
  Alcotest.(check string) "1 d 3 s" "1:00:00:03" (U.Duration.to_dhms 86403.0)

let prop_duration_roundtrip =
  QCheck.Test.make ~name:"min:sec round trip" ~count:500
    QCheck.(int_bound 10_000_000)
    (fun secs ->
      let s = float_of_int secs in
      of_min_sec (U.Duration.to_min_sec s) = s)

let prop_duration_dhms_roundtrip =
  QCheck.Test.make ~name:"d:h:m:s round trip" ~count:500
    QCheck.(int_bound 100_000_000)
    (fun secs ->
      let s = float_of_int secs in
      of_dhms (U.Duration.to_dhms s) = s)

(* ------------------------------------------------------------------ *)
(* Texttable                                                           *)
(* ------------------------------------------------------------------ *)

let test_texttable_render () =
  let t = U.Texttable.create ~headers:[ "a"; "bb" ] in
  U.Texttable.add_row t [ "x"; "1" ];
  U.Texttable.add_separator t;
  U.Texttable.add_row t [ "longer"; "22" ];
  let s = U.Texttable.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  (* every line has the same width *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length lines in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_texttable_mismatch () =
  let t = U.Texttable.create ~headers:[ "a"; "b" ] in
  Alcotest.(check bool) "row arity enforced" true
    (try
       U.Texttable.add_row t [ "only one" ];
       false
     with Invalid_argument _ -> true)

let test_texttable_alignment () =
  let t = U.Texttable.create ~headers:[ "name"; "val" ] in
  U.Texttable.add_row t [ "a"; "1" ];
  let s = U.Texttable.render t in
  Alcotest.(check bool) "right aligned number" true
    (let lines = String.split_on_char '\n' s in
     match List.filteri (fun i _ -> i = 2) lines with
     | [ row ] -> String.length row > 0 && row.[String.length row - 1] = '1'
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_ordering () =
  (* the parallel map must return results in input order, whatever the
     scheduling *)
  let xs = List.init 100 (fun i -> i) in
  let f i = (i * i) + 1 in
  Alcotest.(check (list int)) "jobs:4 equals List.map" (List.map f xs)
    (U.Pool.map ~jobs:4 f xs)

let test_pool_jobs_one_degenerate () =
  let xs = [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "jobs:1 inline" (List.map succ xs)
    (U.Pool.map ~jobs:1 succ xs);
  Alcotest.(check (list int)) "empty list" [] (U.Pool.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (U.Pool.map ~jobs:4 succ [ 1 ])

let test_pool_exception_propagation () =
  (* any failure surfaces; with several failures the lowest-indexed one
     wins, so parallel failures are deterministic *)
  let f i = if i = 3 || i = 7 then failwith (Printf.sprintf "boom %d" i) else i in
  Alcotest.check_raises "lowest-indexed failure" (Failure "boom 3") (fun () ->
      ignore (U.Pool.map ~jobs:4 f (List.init 10 (fun i -> i))))

let test_pool_all_elements_visited () =
  let counter = Atomic.make 0 in
  ignore (U.Pool.map ~jobs:4 (fun _ -> Atomic.incr counter) (List.init 50 (fun i -> i)));
  Alcotest.(check int) "every element visited once" 50 (Atomic.get counter)

(* Spin until [count] reaches [target]; fail instead of hanging when
   the map did not run that many items at once. *)
let await_count count target =
  let t0 = Sys.time () in
  while Atomic.get count < target do
    if Sys.time () -. t0 > 20.0 then
      Alcotest.failf "only %d of %d items ran at once" (Atomic.get count)
        target;
    Domain.cpu_relax ()
  done

let test_pool_nested_budget () =
  (* nested maps take helpers from one budget: order and the
     lowest-indexed failure are kept, and never more than the host's
     recommended domain count runs items at once *)
  let running = Atomic.make 0 and high = Atomic.make 0 in
  let rec raise_high v =
    let h = Atomic.get high in
    if v > h && not (Atomic.compare_and_set high h v) then raise_high v
  in
  let leaf i j =
    raise_high (Atomic.fetch_and_add running 1 + 1);
    (* sleeping yields the core, so surplus domains would show here *)
    Unix.sleepf 0.002;
    Atomic.decr running;
    (10 * i) + j
  in
  let grid f = U.Pool.map ~jobs:4 f (List.init 6 Fun.id) in
  let got = grid (fun i -> grid (fun j -> leaf i j)) in
  Alcotest.(check (list (list int))) "input order"
    (List.init 6 (fun i -> List.init 6 (fun j -> (10 * i) + j)))
    got;
  Alcotest.(check bool)
    (Printf.sprintf "at most %d items at once (saw %d)"
       (Domain.recommended_domain_count ()) (Atomic.get high))
    true
    (Atomic.get high <= Domain.recommended_domain_count ());
  Alcotest.check_raises "lowest-indexed nested failure" (Failure "2.3")
    (fun () ->
      ignore
        (grid (fun i ->
             grid (fun j ->
                 if i >= 2 && (j = 3 || j = 5) then
                   failwith (Printf.sprintf "%d.%d" i j)
                 else leaf i j))))

let test_pool_caller_is_worker () =
  (* the calling domain is worker 0: two items on [~jobs:2] run on the
     caller and at most one spawned domain, even when both run at once *)
  let caller = Domain.self () in
  let started = Atomic.make 0 in
  let ids =
    U.Pool.map ~jobs:2
      (fun _ ->
        Atomic.incr started;
        await_count started (min 2 (Domain.recommended_domain_count ()));
        Domain.self ())
      [ 0; 1 ]
  in
  let spawned = List.sort_uniq compare (List.filter (( <> ) caller) ids) in
  Alcotest.(check bool) "at most one spawned domain" true
    (List.length spawned <= 1)

let test_pool_exhausted_budget_inline () =
  (* hold every helper (all items of the outer map wait for each other),
     then map inside each item: the nested maps find the budget empty and
     run on their own domain.  With one recommended domain the outer map
     itself runs inline, the serial case. *)
  let r = Domain.recommended_domain_count () in
  let started = Atomic.make 0 and nested = Atomic.make 0 in
  let inline =
    U.Pool.map ~jobs:r
      (fun _ ->
        Atomic.incr started;
        await_count started r;
        let me = Domain.self () in
        let ids = U.Pool.map ~jobs:4 (fun _ -> Domain.self ()) [ 1; 2; 3; 4 ] in
        Atomic.incr nested;
        await_count nested r;
        List.for_all (( = ) me) ids)
      (List.init r Fun.id)
  in
  Alcotest.(check (list bool)) "every nested map ran inline"
    (List.init r (fun _ -> true))
    inline

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_span_records () =
  let t = U.Trace.create () in
  let r = U.Trace.span (Some t) ~cat:"test" "work" (fun () -> 42) in
  Alcotest.(check int) "span is transparent" 42 r;
  match U.Trace.events t with
  | [ e ] ->
      Alcotest.(check string) "name" "work" e.U.Trace.name;
      Alcotest.(check string) "cat" "test" e.U.Trace.cat;
      Alcotest.(check bool) "non-negative duration" true (e.U.Trace.dur >= 0.0)
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es)

let test_trace_span_none_is_free () =
  Alcotest.(check int) "no tracer, plain call" 7
    (U.Trace.span None "ignored" (fun () -> 7))

let test_trace_span_records_on_raise () =
  let t = U.Trace.create () in
  (try U.Trace.span (Some t) "failing" (fun () -> failwith "x")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1
    (List.length (U.Trace.events t))

let test_trace_synthetic_events_sorted () =
  let t = U.Trace.create () in
  U.Trace.add t ~name:"late" ~ts:2.0 ~dur:0.5 ();
  U.Trace.add t ~name:"early" ~ts:1.0 ~dur:0.25 ();
  match U.Trace.events t with
  | [ a; b ] ->
      Alcotest.(check string) "oldest first" "early" a.U.Trace.name;
      Alcotest.(check string) "then the later one" "late" b.U.Trace.name;
      Alcotest.(check int) "tid is the recording domain"
        (Domain.self () :> int) a.U.Trace.tid
  | es -> Alcotest.failf "expected 2 events, got %d" (List.length es)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_trace_json_export () =
  let t = U.Trace.create () in
  U.Trace.add t ~cat:"cad-sim" ~args:[ ("app", "sor") ] ~name:"cad:\"map\""
    ~ts:1.0 ~dur:2.0 ();
  let json = U.Trace.to_json t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle json))
    [
      "\"traceEvents\"";
      "\"ph\":\"X\"";
      "\"cat\":\"cad-sim\"";
      "\"name\":\"cad:\\\"map\\\"\"";  (* quotes escaped *)
      "\"ts\":1000000.0";              (* seconds -> microseconds *)
      "\"dur\":2000000.0";
      "\"args\":{\"app\":\"sor\"}";
    ]

let test_trace_write () =
  let t = U.Trace.create () in
  U.Trace.span (Some t) "stage" (fun () -> ());
  let path = Filename.temp_file "jitise-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      U.Trace.write t path;
      let written = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check string) "file holds the export" (U.Trace.to_json t) written;
      Alcotest.(check bool) "looks like a chrome trace" true
        (contains ~needle:"\"traceEvents\"" written))

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let backoff_keys = List.init 200 (Printf.sprintf "ci_%d")

let test_retry_backoff_exponential () =
  (* 30 s doubling per failure: scaled back by 2^(attempt-1), every
     backoff of every key lands in the attempt-1 band [30, 37.5). *)
  List.iter
    (fun attempt ->
      List.iter
        (fun key ->
          let v =
            U.Retry.backoff_seconds ~key ~attempt
            /. (2.0 ** float_of_int (attempt - 1))
          in
          if not (v >= 30.0 && v < 37.5) then
            Alcotest.failf "%s attempt %d off the schedule: %g" key attempt v)
        backoff_keys)
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check bool) "attempt 0 rejected" true
    (try
       ignore (U.Retry.backoff_seconds ~key:"ci_x" ~attempt:0);
       false
     with Invalid_argument _ -> true)

let test_retry_backoff_deterministic_jitter () =
  let b key attempt = U.Retry.backoff_seconds ~key ~attempt in
  Alcotest.(check (float 0.0)) "same key/attempt, same backoff"
    (b "ci_a" 2) (b "ci_a" 2);
  (* the 25 % jitter band [30, 37.5) is used across its width *)
  let firsts = List.map (fun key -> b key 1) backoff_keys in
  Alcotest.(check bool) "jitter reaches the bottom of the band" true
    (List.fold_left Float.min infinity firsts < 31.0);
  Alcotest.(check bool) "jitter reaches the top of the band" true
    (List.fold_left Float.max 0.0 firsts > 36.5);
  (* different keys decorrelate (desynchronized retry storm) *)
  Alcotest.(check bool) "keys decorrelate" true (b "ci_a" 1 <> b "ci_b" 1)

let test_retry_validate () =
  let invalid name mk =
    Alcotest.(check bool) name true
      (try
         U.Retry.validate (mk ());
         false
       with Invalid_argument _ -> true)
  in
  U.Retry.validate U.Retry.default;
  (* the builders validate eagerly too *)
  invalid "zero attempts" (fun () ->
      U.Retry.with_max_attempts 0 U.Retry.default);
  invalid "non-positive deadline" (fun () ->
      U.Retry.with_specialization_deadline (Some 0.0) U.Retry.default)

let test_retry_budget () =
  let b = U.Retry.budget (Some 100.0) in
  Alcotest.(check bool) "fresh budget not exhausted" false (U.Retry.exhausted b);
  U.Retry.spend b 60.0;
  U.Retry.spend b 39.5;
  Alcotest.(check bool) "remaining tracked" false (U.Retry.exhausted b);
  U.Retry.spend b 75.0;
  Alcotest.(check bool) "exhausted after overspend" true (U.Retry.exhausted b);
  let unbounded = U.Retry.budget None in
  U.Retry.spend unbounded 1e12;
  Alcotest.(check bool) "unbounded never exhausts" false
    (U.Retry.exhausted unbounded)

(* ------------------------------------------------------------------ *)
(* Digest                                                              *)
(* ------------------------------------------------------------------ *)

let test_digest_pinned () =
  (* Pins the algorithm (FNV-1a/64, tagged + length-prefixed): a change
     to the encoding silently invalidates every stored artifact, so it
     must show up here first. *)
  Alcotest.(check string) "of_string" "f748aa8bb2994bea"
    (U.Digest.to_hex (U.Digest.of_string "jitise"));
  let c = U.Digest.create () in
  U.Digest.add_int c 42;
  U.Digest.add_string c "x";
  Alcotest.(check string) "int + string" "662becd93e401b9a"
    (U.Digest.to_hex (U.Digest.finish c));
  let hex f =
    let c = U.Digest.create () in
    f c;
    U.Digest.to_hex (U.Digest.finish c)
  in
  Alcotest.(check string) "empty string" "8aa984d6299805c2"
    (U.Digest.to_hex (U.Digest.of_string ""));
  Alcotest.(check string) "1 MB string" "64b388d06de1ec8b"
    (U.Digest.to_hex
       (U.Digest.of_string
          (String.init 1_000_000 (fun i -> Char.chr (i land 0xff)))));
  Alcotest.(check string) "NaN payload" "1567d72c2d81666e"
    (hex (fun c ->
         U.Digest.add_float c (Int64.float_of_bits 0x7ff8_0000_0000_0abcL)));
  Alcotest.(check string) "every adder" "8b1f0e1dfdfe12ab"
    (hex (fun c ->
         U.Digest.add_int64 c Int64.min_int;
         U.Digest.add_int c (-1);
         U.Digest.add_bool c false;
         U.Digest.add_list c
           (U.Digest.add_list c (U.Digest.add_string c))
           [ [ "" ]; []; [ "ab" ] ];
         U.Digest.add_digest c (U.Digest.of_string "jitise")))

(* The adders against a byte-at-a-time FNV-1a/64 model of the tagged,
   length-prefixed encoding.  Values are a small tree, so lists nest;
   floats include NaNs with payloads and signed zeros. *)
type dval =
  | D_string of string
  | D_int of int
  | D_int64 of int64
  | D_float of float
  | D_bool of bool
  | D_list of dval list
  | D_digest of string  (** [add_digest (of_string s)] *)

let rec dval_to_string = function
  | D_string s -> Printf.sprintf "S%S" s
  | D_int i -> Printf.sprintf "i%d" i
  | D_int64 i -> Printf.sprintf "I%Ld" i
  | D_float f -> Printf.sprintf "F%Lx" (Int64.bits_of_float f)
  | D_bool b -> Printf.sprintf "B%b" b
  | D_list l -> "[" ^ String.concat "; " (List.map dval_to_string l) ^ "]"
  | D_digest s -> Printf.sprintf "D%S" s

let gen_dval =
  let open QCheck.Gen in
  let str =
    oneof
      [
        return "";
        string_size ~gen:char (0 -- 8);
        string_size ~gen:char (0 -- 300);
      ]
  in
  let flt =
    oneof
      [
        float; return nan; return (-0.0); return infinity;
        return (Int64.float_of_bits 0x7ff8_0000_0000_0abcL);
        return (Int64.float_of_bits 0xfff0_0000_0000_0001L);
      ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         let leaf =
           [
             map (fun s -> D_string s) str;
             map
               (fun i -> D_int i)
               (oneof [ int; return min_int; return max_int ]);
             map (fun i -> D_int64 i) ui64;
             map (fun f -> D_float f) flt;
             map (fun b -> D_bool b) bool;
             map (fun s -> D_digest s) str;
           ]
         in
         if n = 0 then oneof leaf
         else
           oneof
             (leaf
             @ [
                 map (fun l -> D_list l) (list_size (0 -- 4) (self (n - 1)));
               ]))

let model_hex (vs : dval list) =
  let fnv s =
    String.fold_left
      (fun h ch ->
        Int64.mul (Int64.logxor h (Int64.of_int (Char.code ch))) 0x100000001b3L)
      0xcbf29ce484222325L s
  in
  let rec encode buf v =
    let byte c = Buffer.add_char buf c in
    let i64 x = Buffer.add_int64_le buf x in
    match v with
    | D_string s ->
        byte 'S';
        i64 (Int64.of_int (String.length s));
        Buffer.add_string buf s
    | D_int i ->
        byte 'i';
        i64 (Int64.of_int i)
    | D_int64 i ->
        byte 'I';
        i64 i
    | D_float f ->
        byte 'F';
        i64 (Int64.bits_of_float f)
    | D_bool b ->
        byte 'B';
        byte (if b then '\001' else '\000')
    | D_list l ->
        byte 'L';
        i64 (Int64.of_int (List.length l));
        List.iter (encode buf) l
    | D_digest s ->
        let inner = Buffer.create 16 in
        encode inner (D_string s);
        byte 'D';
        i64 (fnv (Buffer.contents inner))
  in
  let buf = Buffer.create 64 in
  List.iter (encode buf) vs;
  Printf.sprintf "%016Lx" (fnv (Buffer.contents buf))

let digest_hex (vs : dval list) =
  let c = U.Digest.create () in
  let rec add = function
    | D_string s -> U.Digest.add_string c s
    | D_int i -> U.Digest.add_int c i
    | D_int64 i -> U.Digest.add_int64 c i
    | D_float f -> U.Digest.add_float c f
    | D_bool b -> U.Digest.add_bool c b
    | D_list l -> U.Digest.add_list c add l
    | D_digest s -> U.Digest.add_digest c (U.Digest.of_string s)
  in
  List.iter add vs;
  U.Digest.to_hex (U.Digest.finish c)

let prop_digest_matches_model =
  QCheck.Test.make ~name:"adders match an FNV-1a model"
    ~count:500
    (QCheck.make
       ~print:(fun vs -> String.concat " " (List.map dval_to_string vs))
       QCheck.Gen.(list_size (0 -- 6) gen_dval))
    (fun vs -> digest_hex vs = model_hex vs)

(* Hashing stays off the minor heap: a 1 MB string costs the context
   and a few boxes, not words per byte. *)
let test_digest_allocation () =
  let s = String.make 1_000_000 'x' in
  let before = Gc.minor_words () in
  let d = U.Digest.of_string s in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity d);
  if words > 64.0 then
    Alcotest.failf "of_string on 1 MB allocated %.0f minor words" words

let test_digest_stable_across_runs () =
  let build () =
    let c = U.Digest.create () in
    U.Digest.add_string c "module";
    U.Digest.add_int c 7;
    U.Digest.add_int64 c 123456789012345L;
    U.Digest.add_float c 3.25;
    U.Digest.add_bool c true;
    U.Digest.add_list c (U.Digest.add_string c) [ "a"; "bc" ];
    U.Digest.finish c
  in
  Alcotest.(check bool) "identical inputs, identical digest" true
    (build () = build ());
  Alcotest.(check string) "hex is 16 chars" "16"
    (string_of_int (String.length (U.Digest.to_hex (build ()))))

let test_digest_distinguishes () =
  let d f =
    let c = U.Digest.create () in
    f c;
    U.Digest.finish c
  in
  let ne msg a b =
    Alcotest.(check bool) msg false (a = b)
  in
  ne "field boundaries"
    (d (fun c ->
         U.Digest.add_string c "ab";
         U.Digest.add_string c ""))
    (d (fun c ->
         U.Digest.add_string c "a";
         U.Digest.add_string c "b"));
  ne "list structure"
    (d (fun c -> U.Digest.add_list c (U.Digest.add_string c) [ "ab" ]))
    (d (fun c -> U.Digest.add_list c (U.Digest.add_string c) [ "a"; "b" ]));
  ne "float sign of zero"
    (d (fun c -> U.Digest.add_float c 0.0))
    (d (fun c -> U.Digest.add_float c (-0.0)));
  ne "int vs int64 tags"
    (d (fun c -> U.Digest.add_int c 5))
    (d (fun c -> U.Digest.add_int64 c 5L));
  ne "composition"
    (d (fun c -> U.Digest.add_digest c (U.Digest.of_string "a")))
    (d (fun c -> U.Digest.add_string c "a"))

let test_digest_finish_nondestructive () =
  let c = U.Digest.create () in
  U.Digest.add_string c "prefix";
  let snap = U.Digest.finish c in
  U.Digest.add_int c 1;
  let extended = U.Digest.finish c in
  Alcotest.(check bool) "snapshot unchanged by extension" true
    (snap = U.Digest.of_string "prefix");
  Alcotest.(check bool) "extension differs" false (snap = extended)

(* ------------------------------------------------------------------ *)
(* Artifact store                                                      *)
(* ------------------------------------------------------------------ *)

let akey_int : int U.Artifact.key = U.Artifact.key "test-int"
let akey_str : string U.Artifact.key = U.Artifact.key "test-str"

let test_artifact_put_find () =
  let t = U.Artifact.create () in
  let d = U.Digest.of_string "d1" in
  Alcotest.(check bool) "miss before put" true
    (U.Artifact.find t akey_int ~app:"a" ~digest:d = None);
  Alcotest.(check int) "a missing probe inserts nothing" 0
    (U.Artifact.stats t).U.Artifact.total_entries;
  U.Artifact.put t akey_int ~app:"a" ~digest:d 42;
  (match U.Artifact.find t akey_int ~app:"a" ~digest:d with
  | Some (42, U.Artifact.Local) -> ()
  | Some (v, h) ->
      Alcotest.failf "wrong hit: %d / %s" v (U.Artifact.hit_name h)
  | None -> Alcotest.fail "expected a hit");
  (* Same digest under a different stage key stays independent. *)
  Alcotest.(check bool) "keys are independent slots" true
    (U.Artifact.find t akey_str ~app:"a" ~digest:d = None)

let test_artifact_hit_attribution () =
  let t = U.Artifact.create () in
  let d = U.Digest.of_string "shared-digest" in
  U.Artifact.put t akey_str ~app:"fft" ~digest:d "payload";
  (match U.Artifact.find t akey_str ~app:"fft" ~digest:d with
  | Some (_, U.Artifact.Local) -> ()
  | _ -> Alcotest.fail "builder app must get a Local hit");
  (match U.Artifact.find t akey_str ~app:"sor" ~digest:d with
  | Some ("payload", U.Artifact.Shared) -> ()
  | _ -> Alcotest.fail "other app must get a Shared hit");
  let s = U.Artifact.stats t in
  Alcotest.(check int) "one entry" 1 s.U.Artifact.total_entries;
  Alcotest.(check int) "one computed" 1 s.U.Artifact.total_computed;
  Alcotest.(check int) "one local hit" 1 s.U.Artifact.total_local_hits;
  Alcotest.(check int) "one shared hit" 1 s.U.Artifact.total_shared_hits

let test_artifact_first_put_wins () =
  let t = U.Artifact.create () in
  let d = U.Digest.of_string "dup" in
  U.Artifact.put t akey_int ~app:"a" ~digest:d 1;
  U.Artifact.put t akey_int ~app:"b" ~digest:d 2;
  (match U.Artifact.find t akey_int ~app:"c" ~digest:d with
  | Some (1, U.Artifact.Shared) -> ()
  | _ -> Alcotest.fail "first writer's value must survive");
  let s = U.Artifact.stats t in
  Alcotest.(check int) "duplicate put still counted as computed" 2
    s.U.Artifact.total_computed;
  Alcotest.(check int) "but only one entry stored" 1 s.U.Artifact.total_entries

let test_artifact_stage_stats () =
  let t = U.Artifact.create () in
  let d1 = U.Digest.of_string "1" and d2 = U.Digest.of_string "2" in
  U.Artifact.put t akey_int ~app:"a" ~digest:d1 1;
  U.Artifact.put t akey_int ~app:"a" ~digest:d2 2;
  U.Artifact.put t akey_str ~app:"a" ~digest:d1 "s";
  ignore (U.Artifact.find t akey_int ~app:"a" ~digest:d1);
  ignore (U.Artifact.find t akey_str ~app:"b" ~digest:d1);
  ignore (U.Artifact.find t akey_str ~app:"b" ~digest:d2) (* miss *);
  let s = U.Artifact.stats t in
  let by name =
    List.find (fun st -> st.U.Artifact.stage = name) s.U.Artifact.by_stage
  in
  Alcotest.(check int) "int entries" 2 (by "test-int").U.Artifact.entries;
  Alcotest.(check int) "int local" 1 (by "test-int").U.Artifact.local_hits;
  Alcotest.(check int) "str shared" 1 (by "test-str").U.Artifact.shared_hits;
  Alcotest.(check bool) "stats render" true
    (String.length (Format.asprintf "%a" U.Artifact.pp_stats s) > 0);
  (* Stage list is sorted by name. *)
  Alcotest.(check (list string)) "sorted stages" [ "test-int"; "test-str" ]
    (List.map (fun st -> st.U.Artifact.stage) s.U.Artifact.by_stage)

let test_artifact_parallel_consistency () =
  (* Many domains hammering one (key, digest): every reader must
     observe the first-stored value, whatever the interleaving. *)
  let t = U.Artifact.create () in
  let d = U.Digest.of_string "contended" in
  let results =
    U.Pool.map ~jobs:4
      (fun i ->
        match U.Artifact.find t akey_int ~app:"a" ~digest:d with
        | Some (v, _) -> v
        | None ->
            U.Artifact.put t akey_int ~app:"a" ~digest:d 7;
            ignore i;
            7)
      (List.init 64 Fun.id)
  in
  Alcotest.(check bool) "all observe the stored value" true
    (List.for_all (fun v -> v = 7) results)

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

exception Boom

let test_sup_success_passthrough () =
  let sup = U.Supervisor.create () in
  let v = U.Supervisor.supervise sup ~site:"s" (fun ~attempt ~stall:_ -> attempt * 10) in
  Alcotest.(check int) "first attempt's value" 10 v

let test_sup_transient_retry () =
  let sup = U.Supervisor.create () in
  let m = U.Supervisor.meter () in
  let v =
    U.Supervisor.supervise sup ~site:"s" ~transient:(( = ) Boom) ~meter:m
      (fun ~attempt ~stall:_ -> if attempt < 3 then raise Boom else attempt)
  in
  Alcotest.(check int) "succeeded on the third attempt" 3 v;
  Alcotest.(check bool) "backoffs were billed on the meter" true
    (U.Supervisor.spent m > 0.0)

let test_sup_exhaustion () =
  let sup = U.Supervisor.create () in
  match
    U.Supervisor.supervise sup ~site:"s" ~transient:(( = ) Boom)
      (fun ~attempt:_ ~stall:_ -> raise Boom)
  with
  | (_ : unit) -> Alcotest.fail "expected Stage_failed"
  | exception U.Supervisor.Stage_failed f ->
      Alcotest.(check int) "all attempts run" 3 f.U.Supervisor.f_attempts;
      (match f.U.Supervisor.f_error with
      | U.Supervisor.Crash _ -> ()
      | e -> Alcotest.failf "expected Crash, got %s" (U.Supervisor.error_name e));
      Alcotest.(check bool) "backoff waste accounted" true
        (f.U.Supervisor.f_wasted_seconds > 0.0);
      Alcotest.(check string) "printed with site, attempts, error and waste"
        (Printf.sprintf
           "Supervisor.Stage_failed: s gave up after 3 attempt(s): %s (%.1f \
            s wasted)"
           (U.Supervisor.error_name f.U.Supervisor.f_error)
           f.U.Supervisor.f_wasted_seconds)
        (Printexc.to_string (U.Supervisor.Stage_failed f))

let test_sup_nontransient_propagates () =
  let sup = U.Supervisor.create () in
  match
    U.Supervisor.supervise sup ~site:"s" (fun ~attempt:_ ~stall:_ -> raise Boom)
  with
  | (_ : unit) -> Alcotest.fail "expected the exception to escape"
  | exception Boom -> ()
  | exception e -> Alcotest.failf "expected Boom, got %s" (Printexc.to_string e)

let test_sup_stage_deadline () =
  let policy =
    { U.Supervisor.default_policy with
      U.Supervisor.stage_deadline_seconds = Some 10.0 }
  in
  let sup = U.Supervisor.create ~policy () in
  match
    U.Supervisor.supervise sup ~site:"s" (fun ~attempt:_ ~stall -> stall 25.0)
  with
  | () -> Alcotest.fail "expected Stage_failed"
  | exception U.Supervisor.Stage_failed f ->
      (match f.U.Supervisor.f_error with
      | U.Supervisor.Stage_deadline d -> check_floatish "deadline" 10.0 d
      | e -> Alcotest.failf "expected Stage_deadline, got %s" (U.Supervisor.error_name e));
      Alcotest.(check int) "every attempt was killed" 3 f.U.Supervisor.f_attempts;
      Alcotest.(check bool) "each kill cost the full deadline" true
        (f.U.Supervisor.f_wasted_seconds >= 30.0)

(* Regression: a stage body that captures the [stall] hook of a
   deadline-bearing supervisor can leak its internal timeout exception
   into a site whose own policy has no stage deadline.  That used to
   die on [Option.get]; it must be handled as a crash of the attempt. *)
let test_sup_timeout_leak_without_deadline () =
  let donor_policy =
    { U.Supervisor.default_policy with
      U.Supervisor.stage_deadline_seconds = Some 1.0 }
  in
  let donor = U.Supervisor.create ~policy:donor_policy () in
  let leaked = ref (fun (_ : float) -> ()) in
  U.Supervisor.supervise donor ~site:"donor" (fun ~attempt:_ ~stall ->
      leaked := stall);
  let sup = U.Supervisor.create () in
  match
    U.Supervisor.supervise sup ~site:"s" (fun ~attempt:_ ~stall:_ ->
        !leaked 5.0)
  with
  | () -> Alcotest.fail "expected Stage_failed"
  | exception U.Supervisor.Stage_failed f -> (
      match f.U.Supervisor.f_error with
      | U.Supervisor.Crash m ->
          Alcotest.(check bool) "crash names the leak" true
            (String.length m > 0)
      | e ->
          Alcotest.failf "expected Crash, got %s" (U.Supervisor.error_name e))

let test_sup_run_deadline () =
  let policy =
    { U.Supervisor.default_policy with
      U.Supervisor.run_deadline_seconds = Some 5.0 }
  in
  let sup = U.Supervisor.create ~policy () in
  (* A sequential (meter-less) site bills its stalls against the run
     budget... *)
  U.Supervisor.supervise sup ~site:"a" (fun ~attempt:_ ~stall -> stall 7.0);
  (* ...after which further sequential sites are refused outright. *)
  match U.Supervisor.supervise sup ~site:"b" (fun ~attempt:_ ~stall:_ -> ()) with
  | () -> Alcotest.fail "expected Run_deadline"
  | exception U.Supervisor.Stage_failed f ->
      Alcotest.(check int) "refused before any attempt" 0
        f.U.Supervisor.f_attempts;
      (match f.U.Supervisor.f_error with
      | U.Supervisor.Run_deadline -> ()
      | e -> Alcotest.failf "expected Run_deadline, got %s" (U.Supervisor.error_name e))

let test_sup_meter_spares_run_budget () =
  let policy =
    { U.Supervisor.default_policy with
      U.Supervisor.run_deadline_seconds = Some 5.0 }
  in
  let sup = U.Supervisor.create ~policy () in
  let m = U.Supervisor.meter () in
  U.Supervisor.supervise sup ~site:"a" ~meter:m (fun ~attempt:_ ~stall ->
      stall 100.0);
  check_floatish "stall collected on the meter" 100.0 (U.Supervisor.spent m);
  (* The run budget is untouched: a sequential site still runs. *)
  Alcotest.(check int) "run budget untouched" 1
    (U.Supervisor.supervise sup ~site:"b" (fun ~attempt ~stall:_ -> attempt))

let test_sup_backoff_deterministic () =
  let waste () =
    let sup = U.Supervisor.create () in
    let m = U.Supervisor.meter () in
    (try
       U.Supervisor.supervise sup ~site:"site-x" ~transient:(( = ) Boom)
         ~meter:m (fun ~attempt:_ ~stall:_ -> raise Boom)
     with U.Supervisor.Stage_failed _ -> ());
    U.Supervisor.spent m
  in
  check_float "same site, same backoff schedule" (waste ()) (waste ())

let test_sup_validate () =
  Alcotest.check_raises "attempts >= 1"
    (Invalid_argument "Supervisor: max_attempts must be >= 1 (got 0)")
    (fun () ->
      U.Supervisor.validate_policy
        { U.Supervisor.default_policy with U.Supervisor.max_attempts = 0 });
  Alcotest.check_raises "positive stage deadline"
    (Invalid_argument "Supervisor: stage deadline must be positive") (fun () ->
      U.Supervisor.validate_policy
        { U.Supervisor.default_policy with
          U.Supervisor.stage_deadline_seconds = Some 0.0 })

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let test_chaos_key_prng_deterministic () =
  let a = U.Chaos.key_prng ~seed:9 "chaos:test:site"
  and b = U.Chaos.key_prng ~seed:9 "chaos:test:site" in
  for _ = 1 to 20 do
    Alcotest.(check int) "same stream" (draw a) (draw b)
  done;
  let c = U.Chaos.key_prng ~seed:9 "chaos:test:other" in
  Alcotest.(check bool) "keys decorrelate" false
    (draw (U.Chaos.key_prng ~seed:9 "chaos:test:site") = draw c)

let test_chaos_bernoulli_edges () =
  let p = U.Chaos.key_prng ~seed:1 "edge" in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p = 0 never fires" false (U.Chaos.bernoulli p 0.0);
    Alcotest.(check bool) "p = 1 always fires" true (U.Chaos.bernoulli p 1.0)
  done

let test_chaos_storm_valid_and_deterministic () =
  for seed = 0 to 30 do
    let c = Fixtures.storm ~seed in
    U.Chaos.validate c;
    Alcotest.(check bool) "storm leaves the CAD plane off" false
      (U.Chaos.cad_on c)
  done;
  let a = Fixtures.storm ~seed:5 and b = Fixtures.storm ~seed:5 in
  Alcotest.(check bool) "same seed, same mix" true (a = b);
  Alcotest.(check bool) "different seeds differ" true
    (Fixtures.storm ~seed:5 <> Fixtures.storm ~seed:6)

let test_chaos_rolls_site_stable () =
  let c =
    { (Fixtures.storm ~seed:3) with
      U.Chaos.store_read_error_rate = 0.5;
      store_latency_rate = 0.0 }
  in
  let present =
    {
      U.Artifact.backend_kind = "test";
      backend_get = (fun ~stage:_ ~digest:_ -> Some ("b", "p"));
      backend_put = (fun ~stage:_ ~digest:_ ~builder:_ ~payload:_ -> ());
    }
  in
  let wrapped = U.Chaos.wrap_backend c present in
  let roll () = wrapped.backend_get ~stage:"xst" ~digest:"abcd" = None in
  let first = roll () in
  for _ = 1 to 10 do
    Alcotest.(check bool) "per-site roll is call-count independent" first
      (roll ())
  done

let test_chaos_torn_length_bounds () =
  let c = Fixtures.storm ~seed:11 in
  List.iter
    (fun len ->
      let t = U.Chaos.torn_length c ~site:"s/d" ~len in
      Alcotest.(check bool)
        (Printf.sprintf "1 <= torn < %d" len)
        true
        (t >= 1 && t < len))
    [ 2; 3; 10; 4096 ]

let test_chaos_disabled_is_identity () =
  let b =
    {
      U.Artifact.backend_kind = "test";
      backend_get = (fun ~stage:_ ~digest:_ -> None);
      backend_put = (fun ~stage:_ ~digest:_ ~builder:_ ~payload:_ -> ());
    }
  in
  Alcotest.(check bool) "chaos off returns the backend physically unchanged"
    true
    (U.Chaos.wrap_backend U.Chaos.none b == b)

let test_chaos_wrap_backend_planes () =
  let tbl : (string, string * string) Hashtbl.t = Hashtbl.create 8 in
  let base =
    {
      U.Artifact.backend_kind = "test";
      backend_get = (fun ~stage ~digest -> Hashtbl.find_opt tbl (stage ^ digest));
      backend_put =
        (fun ~stage ~digest ~builder ~payload ->
          Hashtbl.replace tbl (stage ^ digest) (builder, payload));
    }
  in
  let all_errors =
    { U.Chaos.none with
      U.Chaos.seed = 1;
      store_read_error_rate = 1.0;
      store_write_drop_rate = 1.0 }
  in
  let wrapped = U.Chaos.wrap_backend all_errors base in
  wrapped.U.Artifact.backend_put ~stage:"s" ~digest:"d" ~builder:"b"
    ~payload:"p";
  Alcotest.(check bool) "writes are dropped" true (Hashtbl.length tbl = 0);
  base.U.Artifact.backend_put ~stage:"s" ~digest:"d" ~builder:"b" ~payload:"p";
  Alcotest.(check (option (pair string string)))
    "reads error into misses" None
    (wrapped.U.Artifact.backend_get ~stage:"s" ~digest:"d");
  Alcotest.(check (option (pair string string)))
    "the underlying entry is intact"
    (Some ("b", "p"))
    (base.U.Artifact.backend_get ~stage:"s" ~digest:"d")

let test_chaos_validate () =
  Alcotest.(check bool) "storm rates validate" true
    (try
       U.Chaos.validate (U.Chaos.defaults ~seed:1);
       true
     with Invalid_argument _ -> false);
  match
    U.Chaos.validate
      { (U.Chaos.defaults ~seed:1) with U.Chaos.stage_crash_rate = 1.5 }
  with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "hash stable" `Quick test_prng_hash_string_stable;
        ]
        @ qsuite [ prop_shuffle_is_permutation ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stdev" `Quick test_stats_stdev;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "sum" `Quick test_stats_sum;
          Alcotest.test_case "summarize" `Quick test_stats_summarize;
        ]
        @ qsuite [ prop_mean_bounded ] );
      ( "duration",
        [
          Alcotest.test_case "formats" `Quick test_duration_formats;
          Alcotest.test_case "rounding" `Quick test_duration_rounding;
          Alcotest.test_case "negative" `Quick test_duration_negative;
          Alcotest.test_case "parse" `Quick test_duration_parse;
          Alcotest.test_case "constructors" `Quick test_duration_constructors;
        ]
        @ qsuite [ prop_duration_roundtrip; prop_duration_dhms_roundtrip ] );
      ( "texttable",
        [
          Alcotest.test_case "render" `Quick test_texttable_render;
          Alcotest.test_case "arity" `Quick test_texttable_mismatch;
          Alcotest.test_case "alignment" `Quick test_texttable_alignment;
        ] );
      ( "pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "jobs=1 degenerate" `Quick
            test_pool_jobs_one_degenerate;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "iter visits all" `Quick
            test_pool_all_elements_visited;
          Alcotest.test_case "nested maps share one budget" `Quick
            test_pool_nested_budget;
          Alcotest.test_case "caller is worker 0" `Quick
            test_pool_caller_is_worker;
          Alcotest.test_case "exhausted budget runs inline" `Quick
            test_pool_exhausted_budget_inline;
        ] );
      ( "retry",
        [
          Alcotest.test_case "exponential backoff" `Quick
            test_retry_backoff_exponential;
          Alcotest.test_case "deterministic jitter" `Quick
            test_retry_backoff_deterministic_jitter;
          Alcotest.test_case "validation" `Quick test_retry_validate;
          Alcotest.test_case "budget" `Quick test_retry_budget;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "success" `Quick test_sup_success_passthrough;
          Alcotest.test_case "transient retry" `Quick test_sup_transient_retry;
          Alcotest.test_case "exhaustion" `Quick test_sup_exhaustion;
          Alcotest.test_case "non-transient propagates" `Quick
            test_sup_nontransient_propagates;
          Alcotest.test_case "stage deadline" `Quick test_sup_stage_deadline;
          Alcotest.test_case "timeout leak without deadline" `Quick
            test_sup_timeout_leak_without_deadline;
          Alcotest.test_case "run deadline" `Quick test_sup_run_deadline;
          Alcotest.test_case "meter spares run budget" `Quick
            test_sup_meter_spares_run_budget;
          Alcotest.test_case "deterministic backoff" `Quick
            test_sup_backoff_deterministic;
          Alcotest.test_case "policy validation" `Quick test_sup_validate;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "key prng" `Quick test_chaos_key_prng_deterministic;
          Alcotest.test_case "bernoulli edges" `Quick test_chaos_bernoulli_edges;
          Alcotest.test_case "storm" `Quick
            test_chaos_storm_valid_and_deterministic;
          Alcotest.test_case "site-stable rolls" `Quick
            test_chaos_rolls_site_stable;
          Alcotest.test_case "torn length bounds" `Quick
            test_chaos_torn_length_bounds;
          Alcotest.test_case "disabled is identity" `Quick
            test_chaos_disabled_is_identity;
          Alcotest.test_case "store planes" `Quick
            test_chaos_wrap_backend_planes;
          Alcotest.test_case "validation" `Quick test_chaos_validate;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span records" `Quick test_trace_span_records;
          Alcotest.test_case "span without tracer" `Quick
            test_trace_span_none_is_free;
          Alcotest.test_case "span on raise" `Quick
            test_trace_span_records_on_raise;
          Alcotest.test_case "events sorted" `Quick
            test_trace_synthetic_events_sorted;
          Alcotest.test_case "chrome json" `Quick test_trace_json_export;
          Alcotest.test_case "write" `Quick test_trace_write;
        ] );
      ( "digest",
        [
          Alcotest.test_case "pinned values" `Quick test_digest_pinned;
          Alcotest.test_case "stable across runs" `Quick
            test_digest_stable_across_runs;
          Alcotest.test_case "distinguishes inputs" `Quick
            test_digest_distinguishes;
          Alcotest.test_case "finish non-destructive" `Quick
            test_digest_finish_nondestructive;
          Alcotest.test_case "allocation" `Quick test_digest_allocation;
        ]
        @ qsuite [ prop_digest_matches_model ] );
      ( "artifact",
        [
          Alcotest.test_case "put/find" `Quick test_artifact_put_find;
          Alcotest.test_case "hit attribution" `Quick
            test_artifact_hit_attribution;
          Alcotest.test_case "first put wins" `Quick
            test_artifact_first_put_wins;
          Alcotest.test_case "stage stats" `Quick test_artifact_stage_stats;
          Alcotest.test_case "parallel consistency" `Quick
            test_artifact_parallel_consistency;
        ] );
    ]
