(** Tests for the verification library: models, commutativity, the
    Definition 3.1 checker, the SAT solver and Appendix E encoding, and
    the history serializability checker. *)

open Util
module V = Proust_verify

(* ------------------------------------------------------------------ *)
(* Models & commutativity                                               *)

let test_counter_model () =
  let m = V.Adt_model.counter ~bound:6 in
  check ci "apply incr" 3 (fst (m.apply 2 V.Adt_model.Incr));
  check cb "decr at 0 errs" true
    (snd (m.apply 0 V.Adt_model.Decr) = V.Adt_model.Decr_err);
  check cb "decr at 2 ok" true
    (snd (m.apply 2 V.Adt_model.Decr) = V.Adt_model.Decr_ok)

let test_commute_counter () =
  let m = V.Adt_model.counter ~bound:6 in
  check cb "incr/incr commute" true
    (V.Commute.commutes m 0 V.Adt_model.Incr V.Adt_model.Incr);
  check cb "incr/decr at 0 do not" false
    (V.Commute.commutes m 0 V.Adt_model.Incr V.Adt_model.Decr);
  check cb "incr/decr at 1 commute" true
    (V.Commute.commutes m 1 V.Adt_model.Incr V.Adt_model.Decr);
  check cb "decr/decr at 1 do not" false
    (V.Commute.commutes m 1 V.Adt_model.Decr V.Adt_model.Decr);
  check cb "decr/decr at 3 commute" true
    (V.Commute.commutes m 3 V.Adt_model.Decr V.Adt_model.Decr)

let test_commute_map () =
  let m = V.Adt_model.small_map () in
  let open V.Adt_model in
  check cb "get/get commute" true (V.Commute.commutes m [] (MGet 0) (MGet 0));
  check cb "disjoint put/get commute" true
    (V.Commute.commutes m [] (MPut (0, 1)) (MGet 1));
  check cb "same-key put/get conflict" false
    (V.Commute.commutes m [] (MPut (0, 1)) (MGet 0));
  check cb "same-value puts still conflict by return" false
    (V.Commute.commutes m [] (MPut (0, 1)) (MRemove 0))

let test_commute_pqueue () =
  let m = V.Adt_model.small_pqueue () in
  let open V.Adt_model in
  check cb "insert/insert commute" true
    (V.Commute.commutes m [ 1 ] (PInsert 0) (PInsert 2));
  check cb "insert-above-min commutes with removeMin" true
    (V.Commute.commutes m [ 0; 1 ] (PInsert 2) PRemoveMin);
  check cb "insert-below-min conflicts with removeMin" false
    (V.Commute.commutes m [ 1 ] (PInsert 0) PRemoveMin);
  check cb "min vs insert-into-empty conflict" false
    (V.Commute.commutes m [] PMin (PInsert 0))

let test_non_commuting_pairs_listed () =
  let m = V.Adt_model.counter ~bound:4 in
  let pairs = V.Commute.non_commuting_pairs m in
  check cb "some non-commuting pairs" true (List.length pairs > 0);
  check cb "all listed pairs really conflict" true
    (List.for_all (fun (s, a, b) -> not (V.Commute.commutes m s a b)) pairs)

(* ------------------------------------------------------------------ *)
(* Definition 3.1 checker                                               *)

let test_ca_counter_correct () =
  let m = V.Adt_model.counter ~bound:6 in
  check cb "threshold 2 verified" true
    (V.Ca_check.check m (V.Ca_spec.counter ~threshold:2 ()) = None);
  check cb "threshold 3 also sound (more conservative)" true
    (V.Ca_check.check m (V.Ca_spec.counter ~threshold:3 ()) = None)

let test_ca_counter_broken () =
  let m = V.Adt_model.counter ~bound:6 in
  match V.Ca_check.check m (V.Ca_spec.counter ~threshold:1 ()) with
  | Some cex ->
      check cb "counterexample is real" true
        (not (V.Commute.commutes m cex.V.Ca_check.state cex.V.Ca_check.op_m
                cex.V.Ca_check.op_n));
      check cb "description renders" true
        (String.length (V.Ca_check.show_counterexample m cex) > 0)
  | None -> Alcotest.fail "threshold 1 must be rejected"

let test_ca_map () =
  let m = V.Adt_model.small_map () in
  check cb "striped map CA correct" true
    (V.Ca_check.check m (V.Ca_spec.striped_map ~slots:4 ()) = None);
  check cb "single-slot map CA correct (coarse)" true
    (V.Ca_check.check m (V.Ca_spec.striped_map ~slots:1 ()) = None);
  check cb "broken map CA rejected" true
    (V.Ca_check.check m (V.Ca_spec.broken_map ()) <> None)

let test_ca_pqueue () =
  let m = V.Adt_model.small_pqueue () in
  check cb "fixed pqueue CA correct" true
    (V.Ca_check.check m (V.Ca_spec.pqueue ~stripes:2 ()) = None);
  check cb "one-stripe variant also correct" true
    (V.Ca_check.check m (V.Ca_spec.pqueue ~stripes:1 ()) = None);
  match V.Ca_check.check m (V.Ca_spec.figure3_literal_pqueue ()) with
  | Some cex ->
      check cb "figure 3 literal gap found at the empty queue" true
        (cex.V.Ca_check.state = [])
  | None -> Alcotest.fail "figure-3 literal CA should be rejected"

(* ------------------------------------------------------------------ *)
(* SAT solver                                                           *)

let test_sat_trivial () =
  (match V.Sat.solve ~nvars:1 [ [ 1 ] ] with
  | V.Sat.Sat a -> check cb "x true" true a.(1)
  | V.Sat.Unsat -> Alcotest.fail "satisfiable");
  check cb "x and not x" false (V.Sat.satisfiable ~nvars:1 [ [ 1 ]; [ -1 ] ]);
  check cb "empty clause" false (V.Sat.satisfiable ~nvars:1 [ [] ])

let test_sat_implications () =
  (* (x -> y) and x and not y : unsat *)
  check cb "modus ponens" false
    (V.Sat.satisfiable ~nvars:2 [ [ -1; 2 ]; [ 1 ]; [ -2 ] ]);
  (* 3-colour-ish: (a or b) & (not a or b) & (a or not b) => a,b *)
  match V.Sat.solve ~nvars:2 [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ] ] with
  | V.Sat.Sat a ->
      check cb "a" true a.(1);
      check cb "b" true a.(2)
  | V.Sat.Unsat -> Alcotest.fail "satisfiable"

let test_sat_pigeonhole () =
  (* 3 pigeons, 2 holes: unsat.  Vars p(i,h) = 2i + h + 1. *)
  let v i h = (2 * i) + h + 1 in
  let clauses =
    (* each pigeon somewhere *)
    List.init 3 (fun i -> [ v i 0; v i 1 ])
    @ (* no two pigeons share a hole *)
    List.concat_map
      (fun h ->
        [ [ -v 0 h; -v 1 h ]; [ -v 0 h; -v 2 h ]; [ -v 1 h; -v 2 h ] ])
      [ 0; 1 ]
  in
  check cb "pigeonhole(3,2) unsat" false (V.Sat.satisfiable ~nvars:6 clauses)

(* ------------------------------------------------------------------ *)
(* Finite-domain layer                                                  *)

let test_fd_basic () =
  let p = V.Fd.create () in
  let x = V.Fd.var p 5 and y = V.Fd.var p 5 in
  V.Fd.assert_table p [ x; y ] (function
    | [ a; b ] -> a + b = 6 && a > b
    | _ -> false);
  match V.Fd.solve p with
  | Some read ->
      check ci "x + y = 6" 6 (read x + read y);
      check cb "x > y" true (read x > read y)
  | None -> Alcotest.fail "satisfiable"

let test_fd_unsat () =
  let p = V.Fd.create () in
  let x = V.Fd.var p 3 in
  V.Fd.assert_table p [ x ] (fun _ -> false);
  check cb "no assignment" true (V.Fd.solve p = None)

(* ------------------------------------------------------------------ *)
(* Appendix E encoding                                                  *)

let test_encode_correct () =
  match V.Ca_encode.check_counter ~threshold:2 ~bound:5 () with
  | V.Ca_encode.Correct -> ()
  | V.Ca_encode.Counterexample { description; _ } ->
      Alcotest.fail ("unexpected: " ^ description)

let test_encode_broken () =
  match V.Ca_encode.check_counter ~threshold:1 ~bound:5 () with
  | V.Ca_encode.Counterexample { c0; _ } ->
      check cb "counterexample near zero" true (c0 <= 1)
  | V.Ca_encode.Correct -> Alcotest.fail "threshold 1 must be SAT"

let test_encode_zero_threshold () =
  (* threshold 0: the CA never touches the slot at all. *)
  match V.Ca_encode.check_counter ~threshold:0 ~bound:5 () with
  | V.Ca_encode.Counterexample _ -> ()
  | V.Ca_encode.Correct -> Alcotest.fail "threshold 0 must be SAT"

let test_encode_agrees_with_exhaustive () =
  (* The two verification routes agree across thresholds. *)
  List.iter
    (fun threshold ->
      let model = V.Adt_model.counter ~bound:5 in
      let exhaustive =
        V.Ca_check.check model (V.Ca_spec.counter ~threshold ()) = None
      in
      let sat =
        V.Ca_encode.check_counter ~threshold ~bound:5 () = V.Ca_encode.Correct
      in
      check cb
        (Printf.sprintf "threshold %d agreement" threshold)
        exhaustive sat)
    [ 0; 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* History recording & serializability                                  *)

let test_serializable_history () =
  let open V.Adt_model in
  let records =
    [
      { V.History.txn_id = 1; events = [ { V.History.op = MPut (0, 1); ret = MVal None } ] };
      {
        V.History.txn_id = 2;
        events = [ { V.History.op = MGet 0; ret = MVal (Some 1) } ];
      };
    ]
  in
  let m = small_map () in
  check cb "serializable" true (V.Serializability.check m ~init:[] records);
  match V.Serializability.witness m ~init:[] records with
  | Some order -> check clist_i "witness order" [ 1; 2 ] order
  | None -> Alcotest.fail "expected witness"

let test_non_serializable_history () =
  let open V.Adt_model in
  (* Both transactions claim to have observed the key absent and then
     bound it — inconsistent with any serial order that explains both
     return values of the second put. *)
  let records =
    [
      {
        V.History.txn_id = 1;
        events =
          [
            { V.History.op = MGet 0; ret = MVal None };
            { V.History.op = MPut (0, 1); ret = MVal None };
          ];
      };
      {
        V.History.txn_id = 2;
        events =
          [
            { V.History.op = MGet 0; ret = MVal None };
            { V.History.op = MPut (0, 1); ret = MVal None };
          ];
      };
    ]
  in
  let m = small_map () in
  check cb "rejected" false (V.Serializability.check m ~init:[] records)

let test_live_history_serializable () =
  (* Record a real concurrent run over a predication map restricted to
     the model's tiny domain, then check it serializes. *)
  let open V.Adt_model in
  let m = Proust_baselines.Predication_map.make () in
  let recorder = V.History.make () in
  spawn_all 3 (fun d ->
      let rng = Random.State.make [| d |] in
      for _ = 1 to 2 do
        Stm.atomically (fun txn ->
            for _ = 1 to 2 do
              let k = Random.State.int rng 3 in
              if Random.State.bool rng then begin
                let v = Random.State.int rng 2 in
                let old = Proust_baselines.Predication_map.put m txn k v in
                V.History.log recorder txn (MPut (k, v)) (MVal old)
              end
              else
                let r = Proust_baselines.Predication_map.get m txn k in
                V.History.log recorder txn (MGet k) (MVal r)
            done)
      done);
  let records = V.History.records recorder in
  check ci "all committed recorded" 6 (List.length records);
  check cb "live history serializable" true
    (V.Serializability.check (small_map ()) ~init:[] records);
  V.History.clear recorder;
  check ci "cleared" 0 (List.length (V.History.records recorder))

let test_commuting_states () =
  let m = V.Adt_model.counter ~bound:6 in
  check clist_i "incr/decr commute above 0" [ 1; 2; 3; 4 ]
    (V.Commute.commuting_states m V.Adt_model.Incr V.Adt_model.Decr);
  check ci "incr/incr commute everywhere" 5
    (List.length (V.Commute.commuting_states m V.Adt_model.Incr V.Adt_model.Incr))

let test_derive_all_models () =
  let certify : type s o r. (s, o, r) V.Adt_model.t -> unit =
   fun m ->
    check cb
      (Printf.sprintf "derived CA for %s verified" m.V.Adt_model.name)
      true
      (V.Ca_check.check m (V.Synth.derive m) = None)
  in
  certify (V.Adt_model.counter ~bound:6);
  certify (V.Adt_model.small_map ());
  certify (V.Adt_model.small_pqueue ());
  certify (V.Adt_model.small_queue ());
  certify (V.Adt_model.small_omap ())

let test_derive_is_not_trivial () =
  (* The derived abstraction must still let commuting pairs run free:
     two incrs at any state touch no common slot. *)
  let m = V.Adt_model.counter ~bound:6 in
  let ca = V.Synth.derive m in
  let writes s = ca.V.Ca_spec.writes ~stripe:0 s V.Adt_model.Incr in
  check clist_i "incr writes nothing at high states" [] (writes 4);
  check cb "incr writes the pair slot near 0" true (writes 0 <> [])

let suite =
  [
    test "counter model" test_counter_model;
    test "commutativity conditions" test_commuting_states;
    slow "derive: all models certified" test_derive_all_models;
    test "derive: commuting pairs stay free" test_derive_is_not_trivial;
    test "commute: counter" test_commute_counter;
    test "commute: map" test_commute_map;
    test "commute: pqueue" test_commute_pqueue;
    test "non-commuting pairs" test_non_commuting_pairs_listed;
    test "Def 3.1: counter correct" test_ca_counter_correct;
    test "Def 3.1: counter broken" test_ca_counter_broken;
    test "Def 3.1: map" test_ca_map;
    test "Def 3.1: pqueue (incl. Figure 3 gap)" test_ca_pqueue;
    test "sat: trivial" test_sat_trivial;
    test "sat: implications" test_sat_implications;
    test "sat: pigeonhole" test_sat_pigeonhole;
    test "fd: basic" test_fd_basic;
    test "fd: unsat" test_fd_unsat;
    test "encode: correct" test_encode_correct;
    test "encode: broken" test_encode_broken;
    test "encode: zero threshold" test_encode_zero_threshold;
    slow "encode agrees with exhaustive" test_encode_agrees_with_exhaustive;
    test "serializability: positive" test_serializable_history;
    test "serializability: negative" test_non_serializable_history;
    slow "serializability: live run" test_live_history_serializable;
  ]
