(* Tests for Jitise_woolcano: architecture constants, the UDI slot
   manager with LRU partial reconfiguration. *)

module Cad = Jitise_cad
module W = Jitise_woolcano

let bitstream ?(luts = 500) signature =
  Cad.Bitstream.make ~signature ~size_bytes:40_000 ~frames:60 ~luts
    ~generation_seconds:200.0

let test_arch_reconfiguration_time () =
  let b = bitstream "x" in
  let t = W.Arch.reconfiguration_seconds b in
  (* 40 kB over a 66 MB/s ICAP plus 2 ms setup: ~2.6 ms *)
  Alcotest.(check bool) "milliseconds scale" true (t > 0.002 && t < 0.01);
  Alcotest.(check (float 1e-15)) "setup + size / ICAP bandwidth"
    (0.002 +. (40_000.0 /. 66.0e6))
    t

let test_asip_load_and_hit () =
  let asip = W.Asip.create () in
  let b = bitstream "a" in
  let _, reconfigured = W.Asip.load asip b in
  Alcotest.(check bool) "first load reconfigures" true reconfigured;
  let _, again = W.Asip.load asip b in
  Alcotest.(check bool) "resident CI does not reconfigure" false again;
  Alcotest.(check int) "one reconfiguration" 1 asip.W.Asip.reconfigurations;
  Alcotest.(check int) "occupancy" 1 (W.Asip.occupancy asip);
  Alcotest.(check bool) "time accounted" true (asip.W.Asip.reconfig_seconds > 0.0)

let test_asip_rejects_corrupt_bitstream () =
  let asip = W.Asip.create () in
  let b = Cad.Bitstream.corrupt (bitstream "a") in
  Alcotest.check_raises "checksum check guards the slot"
    (W.Asip.Corrupt_bitstream "a") (fun () -> ignore (W.Asip.load asip b));
  (* the failed load must leave the fabric untouched *)
  Alcotest.(check int) "no slot occupied" 0 (W.Asip.occupancy asip);
  Alcotest.(check int) "no reconfiguration" 0 asip.W.Asip.reconfigurations

let test_asip_lru_eviction () =
  let asip = W.Asip.create ~slots:2 () in
  ignore (W.Asip.load asip (bitstream "a"));
  ignore (W.Asip.load asip (bitstream "b"));
  (* touch a so that b is the LRU victim *)
  ignore (W.Asip.load asip (bitstream "a"));
  ignore (W.Asip.load asip (bitstream "c"));
  Alcotest.(check int) "one eviction" 1 asip.W.Asip.evictions;
  let resident =
    List.filter (fun s -> W.Asip.find asip s <> None) [ "a"; "b"; "c" ]
  in
  Alcotest.(check (list string)) "b evicted" [ "a"; "c" ] resident;
  Alcotest.(check bool) "find resident" true (W.Asip.find asip "a" <> None);
  Alcotest.(check bool) "find evicted" true (W.Asip.find asip "b" = None)

let test_asip_capacity_guard () =
  let asip = W.Asip.create () in
  Alcotest.(check bool) "oversized CI rejected" true
    (try
       ignore (W.Asip.load asip (bitstream ~luts:1_000_000 "huge"));
       false
     with Invalid_argument _ -> true)

let test_asip_slot_count () =
  let asip = W.Asip.create () in
  (* the default platform has eight UDI slots *)
  Alcotest.(check int) "eight slots" 8 W.Arch.default.W.Arch.udi_slots;
  for i = 1 to 8 do
    ignore (W.Asip.load asip (bitstream (string_of_int i)))
  done;
  Alcotest.(check int) "all slots used" 8 (W.Asip.occupancy asip);
  Alcotest.(check int) "no eviction yet" 0 asip.W.Asip.evictions;
  ignore (W.Asip.load asip (bitstream "overflow"));
  Alcotest.(check int) "eviction on overflow" 1 asip.W.Asip.evictions

(* ------------------------------------------------------------------ *)
(* Online mode: begin_load deadlines and the CI state machine          *)
(* ------------------------------------------------------------------ *)

let test_begin_load_state_machine () =
  let asip = W.Asip.create ~slots:2 () in
  let b = bitstream "a" in
  Alcotest.(check bool) "absent before load" true (W.Asip.find asip "a" = None);
  let _, reconfigured, ready_at = W.Asip.begin_load asip ~now_seconds:1.0 b in
  Alcotest.(check bool) "first begin_load reconfigures" true reconfigured;
  Alcotest.(check bool) "deadline past start" true (ready_at > 1.0);
  Alcotest.(check bool) "loading mid-reconfiguration" true
    (W.Asip.find asip "a" <> None);
  Alcotest.(check bool) "dispatch refused mid-reconfiguration" false
    (W.Asip.dispatch_ready asip ~now_seconds:(ready_at -. 1e-6) "a");
  Alcotest.(check bool) "dispatch ready after the deadline" true
    (W.Asip.dispatch_ready asip ~now_seconds:ready_at "a")

let test_begin_load_resident_keeps_deadline () =
  let asip = W.Asip.create ~slots:2 () in
  let b = bitstream "a" in
  let _, _, ready1 = W.Asip.begin_load asip ~now_seconds:0.0 b in
  let _, again, ready2 = W.Asip.begin_load asip ~now_seconds:0.5 b in
  Alcotest.(check bool) "resident image is left alone" false again;
  Alcotest.(check (float 1e-12)) "existing deadline reported" ready1 ready2;
  Alcotest.(check int) "one reconfiguration" 1 asip.W.Asip.reconfigurations

let test_batch_load_is_immediately_ready () =
  let asip = W.Asip.create ~slots:2 () in
  ignore (W.Asip.load asip (bitstream "a"));
  Alcotest.(check bool) "batch mode has no deadline" true
    (W.Asip.dispatch_ready asip ~now_seconds:0.0 "a")

let test_peek_victim_and_benefit () =
  let asip = W.Asip.create ~slots:2 ~policy:W.Asip.Beneficial () in
  Alcotest.(check bool) "no victim while a slot is free" true
    (W.Asip.peek_victim asip = None);
  ignore (W.Asip.load asip (bitstream "a"));
  Alcotest.(check bool) "still a free slot" true
    (W.Asip.peek_victim asip = None);
  ignore (W.Asip.load asip (bitstream "b"));
  W.Asip.set_benefit asip "a" 10.0;
  W.Asip.set_benefit asip "b" 1.0;
  Alcotest.(check (option string)) "lowest benefit is the victim" (Some "b")
    (W.Asip.peek_victim asip);
  ignore (W.Asip.load asip (bitstream "c"));
  let resident =
    List.filter (fun s -> W.Asip.find asip s <> None) [ "a"; "b"; "c" ]
  in
  Alcotest.(check (list string)) "b evicted" [ "a"; "c" ] resident

(* ------------------------------------------------------------------ *)
(* Eviction-policy laws                                                *)
(* ------------------------------------------------------------------ *)

let sig_of_int i = Printf.sprintf "s%d" i

let qcheck_lru_never_evicts_just_loaded =
  QCheck.Test.make ~name:"lru never evicts the just-loaded signature"
    ~count:300
    QCheck.(pair (int_range 1 4) (small_list (int_range 0 9)))
    (fun (slots, ops) ->
      let asip = W.Asip.create ~slots ~policy:W.Asip.Lru () in
      List.for_all
        (fun i ->
          let s = sig_of_int i in
          ignore (W.Asip.load asip (bitstream s));
          W.Asip.find asip s <> None)
        ops)

let qcheck_beneficial_permutation_invariant =
  (* Fill a fabric with occupants drawn from a tiny benefit range (so
     ties are common), in two different load orders: the victim of the
     next load must not depend on the order the occupants arrived. *)
  QCheck.Test.make
    ~name:"beneficial victim is invariant under occupant load order"
    ~count:300
    QCheck.(
      pair (int_range 2 4)
        (small_list (pair (int_range 0 9) (int_range 0 2))))
    (fun (slots, pairs) ->
      (* Distinct signatures, keeping the first benefit seen for each. *)
      let seen = Hashtbl.create 8 in
      let occupants =
        List.filter
          (fun (i, _) ->
            if Hashtbl.mem seen i then false
            else begin
              Hashtbl.add seen i ();
              true
            end)
          pairs
      in
      let fill order =
        let asip = W.Asip.create ~slots ~policy:W.Asip.Beneficial () in
        List.iter
          (fun (i, _) -> ignore (W.Asip.load asip (bitstream (sig_of_int i))))
          order;
        List.iter
          (fun (i, b) ->
            W.Asip.set_benefit asip (sig_of_int i) (float_of_int b))
          order;
        W.Asip.peek_victim asip
      in
      (* Only meaningful when the fabric is exactly full: otherwise a
         free slot short-circuits the victim scan in both runs. *)
      List.length occupants <> slots
      || fill occupants = fill (List.rev occupants))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "woolcano"
    [
      ( "arch",
        [ Alcotest.test_case "reconfiguration time" `Quick test_arch_reconfiguration_time ] );
      ( "asip",
        [
          Alcotest.test_case "load and hit" `Quick test_asip_load_and_hit;
          Alcotest.test_case "rejects corrupt bitstream" `Quick
            test_asip_rejects_corrupt_bitstream;
          Alcotest.test_case "lru eviction" `Quick test_asip_lru_eviction;
          Alcotest.test_case "capacity guard" `Quick test_asip_capacity_guard;
          Alcotest.test_case "slot count" `Quick test_asip_slot_count;
        ] );
      ( "online",
        [
          Alcotest.test_case "begin_load state machine" `Quick
            test_begin_load_state_machine;
          Alcotest.test_case "resident begin_load keeps its deadline" `Quick
            test_begin_load_resident_keeps_deadline;
          Alcotest.test_case "batch load immediately ready" `Quick
            test_batch_load_is_immediately_ready;
          Alcotest.test_case "peek_victim and benefits" `Quick
            test_peek_victim_and_benefit;
        ] );
      ( "laws",
        qsuite
          [
            qcheck_lru_never_evicts_just_loaded;
            qcheck_beneficial_permutation_invariant;
          ] );
    ]
