(** Edge-case coverage for corners the main suites exercise only
    incidentally: racy initialization paths, combinator interactions,
    clock/descriptor invariants, and boundary parameters. *)

open Util
module C = Proust_concurrent

(* ------------------------------------------------------------------ *)
(* Racy creation paths                                                  *)

let test_chashmap_put_if_absent_race () =
  (* The predication predicate-creation path: exactly one winner. *)
  let m = C.Chashmap.create () in
  let winners = Atomic.make 0 in
  spawn_all 8 (fun d ->
      if C.Chashmap.put_if_absent m "key" d = None then Atomic.incr winners);
  check ci "exactly one creator" 1 (Atomic.get winners);
  check ci "size one" 1 (C.Chashmap.size m)

let test_ctrie_put_if_absent_race () =
  let m = C.Ctrie.create () in
  let winners = Atomic.make 0 in
  spawn_all 8 (fun d ->
      if C.Ctrie.put_if_absent m 7 d = None then Atomic.incr winners);
  check ci "exactly one creator" 1 (Atomic.get winners)

let test_predication_single_predicate_per_key () =
  (* Racy first-touch of the same key must not lose updates. *)
  let m = Proust_baselines.Predication_map.make () in
  spawn_all 8 (fun d ->
      ignore
        (Stm.atomically (fun txn ->
             Proust_baselines.Predication_map.put m txn 1 d)));
  check cb "some value bound" true
    (Stm.atomically (fun txn -> Proust_baselines.Predication_map.get m txn 1)
    <> None);
  check ci "size exactly one" 1
    (Proust_baselines.Predication_map.committed_size m)

(* ------------------------------------------------------------------ *)
(* Clock / descriptor invariants                                        *)

let test_clock_unique_ticks () =
  let c = Clock.create () in
  let seen = Array.make 8 [] in
  spawn_all 4 (fun d ->
      for _ = 1 to 1_000 do
        seen.(d) <- Clock.tick c :: seen.(d)
      done);
  let all = Array.to_list seen |> List.concat in
  check ci "4000 distinct ticks" 4_000
    (List.length (List.sort_uniq compare all));
  check ci "now reflects ticks" 4_000 (Clock.now c)

let test_desc_commit_abort_exclusive () =
  let d =
    Txn_desc.create ~priority:0 ~irrevocable:false ~deadline_ns:0 ~birth:0
  in
  check cb "commit wins" true (Txn_desc.try_commit d);
  check cb "abort after commit fails" false (Txn_desc.try_abort d);
  check cb "committed" true (Txn_desc.is_committed d);
  let d2 =
    Txn_desc.create ~priority:0 ~irrevocable:false ~deadline_ns:0 ~birth:0
  in
  check cb "abort wins" true (Txn_desc.try_abort d2);
  check cb "commit after abort fails" false (Txn_desc.try_commit d2);
  check cb "aborted" true (Txn_desc.is_aborted d2)

let test_desc_remote_abort_race () =
  (* Many domains race to kill one descriptor: exactly one succeeds. *)
  let d =
    Txn_desc.create ~priority:0 ~irrevocable:false ~deadline_ns:0 ~birth:0
  in
  let killers = Atomic.make 0 in
  spawn_all 8 (fun _ -> if Txn_desc.try_abort d then Atomic.incr killers);
  check ci "one killer" 1 (Atomic.get killers)

let test_backoff_rounds () =
  let b = Backoff.create ~ceiling:3 () in
  check ci "fresh" 0 (Backoff.rounds b);
  Backoff.once b;
  Backoff.once b;
  check ci "counted" 2 (Backoff.rounds b);
  Backoff.reset b;
  check ci "reset" 0 (Backoff.rounds b)

(* ------------------------------------------------------------------ *)
(* Combinator interactions                                              *)

let test_or_else_restores_locals () =
  let key = Stm.Local.key (fun _ -> 0) in
  Stm.atomically (fun txn ->
      Stm.Local.set txn key 1;
      Stm.or_else txn
        (fun txn ->
          Stm.Local.set txn key 99;
          Stm.retry txn)
        (fun txn ->
          check ci "local restored after branch rollback" 1
            (Stm.Local.get txn key)))

let test_guard_inside_or_else () =
  let a = Tvar.make 5 in
  let v =
    Stm.atomically (fun txn ->
        Stm.or_else txn
          (fun txn ->
            Stm.guard txn (Stm.read txn a > 10);
            "big")
          (fun _ -> "small"))
  in
  check cs "guard fails into alternative" "small" v

let test_nested_inside_or_else () =
  let a = Tvar.make 0 in
  Stm.atomically (fun txn ->
      Stm.or_else txn
        (fun txn ->
          (* nested atomically joins; its write rolls back with branch *)
          Stm.atomically (fun inner -> Stm.write inner a 7);
          Stm.retry txn)
        (fun _ -> ()));
  check ci "nested branch write discarded" 0 (Tvar.peek a)

let test_read_version_monotone_under_extension () =
  let cfg = { (Stm.get_default_config ()) with Stm.extend_reads = true } in
  let a = Tvar.make 0 and b = Tvar.make 0 in
  Stm.atomically ~config:cfg (fun txn ->
      let rv0 = Stm.read_version txn in
      ignore (Stm.read txn a);
      (* another committed txn advances the clock *)
      let d = Domain.spawn (fun () ->
          Stm.atomically (fun t2 -> Stm.write t2 b 1)) in
      Domain.join d;
      ignore (Stm.read txn b);  (* forces an extension *)
      check cb "rv extended monotonically" true (Stm.read_version txn >= rv0))

(* ------------------------------------------------------------------ *)
(* Boundary parameters                                                  *)

let test_counter_threshold_boundary () =
  (* threshold 3: the abstraction stays sound (verified) and the live
     wrapper conserves under stress. *)
  let model = Proust_verify.Adt_model.counter ~bound:6 in
  check cb "threshold 3 sound" true
    (Proust_verify.Ca_check.check model
       (Proust_verify.Ca_spec.counter ~threshold:3 ())
    = None);
  let c =
    Proust_structures.P_counter.make ~threshold:3
      ~lap:Proust_structures.Trait.Pessimistic ()
  in
  let good = Atomic.make 0 in
  spawn_all 4 (fun d ->
      for i = 0 to 99 do
        if (d + i) land 1 = 0 then
          Stm.atomically (fun txn -> Proust_structures.P_counter.incr c txn)
        else if Stm.atomically (fun txn -> Proust_structures.P_counter.decr c txn)
        then Atomic.incr good
      done);
  check ci "conserved at threshold 3" (200 - Atomic.get good)
    (Proust_structures.P_counter.peek c)

let test_single_slot_map () =
  (* M=1: a fully serialized Proustian map still behaves. *)
  let m = Proust_structures.P_lazy_hashmap.make ~slots:1 () in
  spawn_all 4 (fun d ->
      for i = 0 to 49 do
        ignore
          (Stm.atomically (fun txn ->
               Proust_structures.P_lazy_hashmap.put m txn ((d * 50) + i) i))
      done);
  check ci "all present" 200
    (Proust_structures.P_lazy_hashmap.committed_size m)

let test_empty_range_queries () =
  let m = Proust_structures.P_snap_omap.make () in
  Stm.atomically (fun txn ->
      check cb "empty range" true
        (Proust_structures.P_snap_omap.range m txn ~lo:0 ~hi:100 = []);
      check cb "empty min" true
        (Proust_structures.P_snap_omap.min_binding m txn = None);
      ignore (Proust_structures.P_snap_omap.put m txn 5 50);
      check cb "inverted bounds" true
        (Proust_structures.P_snap_omap.range m txn ~lo:10 ~hi:0 = []))

let test_sat_tautology_many_vars () =
  (* (x_i or not x_i) for 20 vars: trivially satisfiable. *)
  let clauses = List.init 20 (fun i -> [ i + 1; -(i + 1) ]) in
  check cb "tautologies sat" true (Proust_verify.Sat.satisfiable ~nvars:20 clauses)

let test_fd_stats () =
  let p = Proust_verify.Fd.create () in
  let _ = Proust_verify.Fd.var p 3 in
  let nvars, nclauses = Proust_verify.Fd.stats p in
  check ci "one-hot vars" 3 nvars;
  (* at-least-one + 3 pairwise at-most-one *)
  check ci "one-hot clauses" 4 nclauses

let test_committed_size_transactional_concurrent () =
  let s = Proust_core.Committed_size.create `Transactional in
  spawn_all 4 (fun _ ->
      for _ = 1 to 250 do
        Stm.atomically (fun txn -> Proust_core.Committed_size.add s txn 1)
      done);
  check ci "serialized tvar total" 1_000 (Proust_core.Committed_size.peek s)

let test_witness_singleton () =
  let open Proust_verify in
  let m = Adt_model.small_map () in
  let records =
    [ { History.txn_id = 9;
        events = [ { History.op = Adt_model.MGet 0; ret = Adt_model.MVal None } ] } ]
  in
  check cb "singleton witness" true
    (Serializability.witness m ~init:[] records = Some [ 9 ]);
  check cb "empty history serializable" true
    (Serializability.check m ~init:[] [])

let suite =
  [
    slow "chashmap put_if_absent race" test_chashmap_put_if_absent_race;
    slow "ctrie put_if_absent race" test_ctrie_put_if_absent_race;
    slow "predication single predicate" test_predication_single_predicate_per_key;
    slow "clock unique ticks" test_clock_unique_ticks;
    test "descriptor commit/abort exclusive" test_desc_commit_abort_exclusive;
    slow "descriptor remote abort race" test_desc_remote_abort_race;
    test "backoff rounds" test_backoff_rounds;
    test "or_else restores locals" test_or_else_restores_locals;
    test "guard inside or_else" test_guard_inside_or_else;
    test "nested atomically inside or_else" test_nested_inside_or_else;
    test "read version monotone under extension"
      test_read_version_monotone_under_extension;
    slow "counter threshold boundary" test_counter_threshold_boundary;
    slow "single-slot map" test_single_slot_map;
    test "empty range queries" test_empty_range_queries;
    test "sat tautologies" test_sat_tautology_many_vars;
    test "fd stats" test_fd_stats;
    slow "committed size transactional concurrent"
      test_committed_size_transactional_concurrent;
    test "serializability singleton witness" test_witness_singleton;
  ]
