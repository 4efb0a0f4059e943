(** Tests for the wrapped Proustian data structures: sequential
    semantics, rollback behaviour, and concurrent invariants for every
    design-space configuration. *)

open Util
module S = Proust_structures

let maps_under_test :
    (string * Stm.config option * (unit -> (int, int) S.Trait.Map.ops)) list =
  [
    ( "eager-opt",
      Some eager_struct_cfg,
      fun () -> S.P_hashmap.ops (S.P_hashmap.make ()) );
    ( "eager-pess",
      None,
      fun () -> S.P_hashmap.ops (S.P_hashmap.make ~lap:S.Trait.Pessimistic ())
    );
    ("lazy-memo", None, fun () -> S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ()));
    ( "lazy-memo-nocombine",
      None,
      fun () -> S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ~combine:false ()) );
    ( "lazy-memo-pess",
      None,
      fun () ->
        S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ~lap:S.Trait.Pessimistic ())
    );
    ( "lazy-snap",
      None,
      fun () -> S.P_lazy_triemap.ops (S.P_lazy_triemap.make ()) );
    ( "lazy-snap-pess",
      None,
      fun () ->
        S.P_lazy_triemap.ops (S.P_lazy_triemap.make ~lap:S.Trait.Pessimistic ())
    );
  ]

(* ------------------------------------------------------------------ *)
(* Sequential semantics, identical across every configuration          *)

let map_semantics (ops : (int, int) S.Trait.Map.ops) config () =
  let at f = Stm.atomically ?config f in
  check copt_i "get empty" None (at (fun txn -> ops.get txn 1));
  check copt_i "put fresh" None (at (fun txn -> ops.put txn 1 10));
  check copt_i "get" (Some 10) (at (fun txn -> ops.get txn 1));
  check copt_i "put old" (Some 10) (at (fun txn -> ops.put txn 1 11));
  check cb "contains" true (at (fun txn -> ops.contains txn 1));
  check cb "not contains" false (at (fun txn -> ops.contains txn 2));
  check ci "size" 1 (at (fun txn -> ops.size txn));
  check copt_i "remove" (Some 11) (at (fun txn -> ops.remove txn 1));
  check copt_i "remove absent" None (at (fun txn -> ops.remove txn 1));
  check ci "size after" 0 (at (fun txn -> ops.size txn))

let map_own_txn_visibility (ops : (int, int) S.Trait.Map.ops) config () =
  Stm.atomically ?config (fun txn ->
      ignore (ops.put txn 5 50);
      check copt_i "reads own put" (Some 50) (ops.get txn 5);
      check cb "contains own put" true (ops.contains txn 5);
      check ci "size includes own put" 1 (ops.size txn);
      ignore (ops.remove txn 5);
      check copt_i "sees own remove" None (ops.get txn 5);
      check ci "size after own remove" 0 (ops.size txn))

let map_abort_rollback (ops : (int, int) S.Trait.Map.ops) config () =
  let at f = Stm.atomically ?config f in
  ignore (at (fun txn -> ops.put txn 1 100));
  let tries = ref 0 in
  at (fun txn ->
      incr tries;
      if !tries = 1 then begin
        ignore (ops.put txn 1 999);
        ignore (ops.put txn 2 222);
        ignore (ops.remove txn 1);
        ignore (Stm.restart txn)
      end);
  check copt_i "key 1 restored" (Some 100) (at (fun txn -> ops.get txn 1));
  check copt_i "key 2 never appeared" None (at (fun txn -> ops.get txn 2));
  check ci "size restored" 1 (at (fun txn -> ops.size txn))

let map_txn_composition (ops : (int, int) S.Trait.Map.ops) config () =
  (* Multi-op transaction is all-or-nothing. *)
  let at f = Stm.atomically ?config f in
  at (fun txn ->
      for k = 0 to 9 do
        ignore (ops.put txn k (k * k))
      done);
  check ci "ten committed atomically" 10 (at (fun txn -> ops.size txn));
  check copt_i "spot check" (Some 49) (at (fun txn -> ops.get txn 7))

let map_concurrent_transfers (ops : (int, int) S.Trait.Map.ops) config () =
  let keys = 12 in
  Stm.atomically ?config (fun txn ->
      for k = 0 to keys - 1 do
        ignore (ops.put txn k 100)
      done);
  spawn_all 4 (fun d ->
      let rng = Random.State.make [| d |] in
      for _ = 1 to 250 do
        let a = Random.State.int rng keys and b = Random.State.int rng keys in
        if a <> b then
          Stm.atomically ?config (fun txn ->
              let va = Option.get (ops.get txn a) in
              let vb = Option.get (ops.get txn b) in
              ignore (ops.put txn a (va - 1));
              ignore (ops.put txn b (vb + 1)))
      done);
  let total =
    Stm.atomically ?config (fun txn ->
        let t = ref 0 in
        for k = 0 to keys - 1 do
          t := !t + Option.get (ops.get txn k)
        done;
        !t)
  in
  check ci "sum conserved" (keys * 100) total

let per_map_tests =
  List.concat_map
    (fun (name, config, make) ->
      [
        test (name ^ ": semantics") (fun () -> map_semantics (make ()) config ());
        test (name ^ ": own-txn visibility") (fun () ->
            map_own_txn_visibility (make ()) config ());
        test (name ^ ": abort rollback") (fun () ->
            map_abort_rollback (make ()) config ());
        test (name ^ ": composition") (fun () ->
            map_txn_composition (make ()) config ());
        slow (name ^ ": concurrent transfers") (fun () ->
            map_concurrent_transfers (make ()) config ());
      ])
    maps_under_test

(* ------------------------------------------------------------------ *)
(* Eager wrapper mutates base during the transaction; lazy defers.      *)

let test_eager_applies_during_txn () =
  let m = S.P_hashmap.make ~lap:S.Trait.Pessimistic () in
  Stm.atomically (fun txn ->
      ignore (S.P_hashmap.put m txn 1 10);
      check copt_i "base updated mid-txn" (Some 10)
        (Proust_concurrent.Chashmap.get (S.P_hashmap.backing m) 1))

let test_lazy_defers_until_commit () =
  let m = S.P_lazy_hashmap.make () in
  Stm.atomically (fun txn ->
      ignore (S.P_lazy_hashmap.put m txn 1 10);
      check copt_i "base untouched mid-txn" None
        (Proust_concurrent.Chashmap.get (S.P_lazy_hashmap.backing m) 1));
  check copt_i "base updated at commit" (Some 10)
    (Proust_concurrent.Chashmap.get (S.P_lazy_hashmap.backing m) 1)

let test_lazy_snapshot_defers_until_commit () =
  let m = S.P_lazy_triemap.make () in
  Stm.atomically (fun txn ->
      ignore (S.P_lazy_triemap.put m txn 1 10);
      check copt_i "trie untouched mid-txn" None
        (Proust_concurrent.Ctrie.get (S.P_lazy_triemap.backing m) 1));
  check copt_i "trie updated at commit" (Some 10)
    (Proust_concurrent.Ctrie.get (S.P_lazy_triemap.backing m) 1)

(* ------------------------------------------------------------------ *)
(* Counter (§3)                                                        *)

let counter_semantics lap config () =
  let c = S.P_counter.make ~lap () in
  let at f = Stm.atomically ?config f in
  check cb "decr at 0 errors" false (at (fun txn -> S.P_counter.decr c txn));
  at (fun txn -> S.P_counter.incr c txn);
  at (fun txn -> S.P_counter.incr c txn);
  check ci "peek" 2 (S.P_counter.peek c);
  check cb "decr ok" true (at (fun txn -> S.P_counter.decr c txn));
  check ci "after decr" 1 (S.P_counter.peek c)

let test_counter_abort_restores () =
  let c = S.P_counter.make ~lap:S.Trait.Pessimistic ~init:5 () in
  let tries = ref 0 in
  Stm.atomically (fun txn ->
      incr tries;
      if !tries = 1 then begin
        S.P_counter.incr c txn;
        S.P_counter.incr c txn;
        ignore (S.P_counter.decr c txn);
        ignore (Stm.restart txn)
      end);
  check ci "inverses restored 5" 5 (S.P_counter.peek c)

let counter_stress lap config () =
  let c = S.P_counter.make ~lap () in
  let good_decr = Atomic.make 0 in
  spawn_all 4 (fun d ->
      for i = 0 to 249 do
        if (d + i) mod 2 = 0 then
          Stm.atomically ?config (fun txn -> S.P_counter.incr c txn)
        else if Stm.atomically ?config (fun txn -> S.P_counter.decr c txn) then
          Atomic.incr good_decr
      done);
  check ci "conserved" (500 - Atomic.get good_decr) (S.P_counter.peek c)

let test_counter_observable () =
  let c = S.P_counter.make ~observable:true ~init:3 () in
  let v =
    Stm.atomically ~config:eager_struct_cfg (fun txn -> S.P_counter.value c txn)
  in
  check ci "transactional read" 3 v;
  let c' = S.P_counter.make () in
  match Stm.atomically (fun txn -> S.P_counter.value c' txn) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "value without ~observable should be rejected"

(* ------------------------------------------------------------------ *)
(* Priority queues                                                      *)

let pqueue_semantics (ops : int S.Trait.Pqueue.ops) config () =
  let at f = Stm.atomically ?config f in
  check copt_i "min empty" None (at (fun txn -> ops.min txn));
  check copt_i "removeMin empty" None (at (fun txn -> ops.remove_min txn));
  at (fun txn -> ops.insert txn 5);
  at (fun txn -> ops.insert txn 2);
  at (fun txn -> ops.insert txn 8);
  check copt_i "min" (Some 2) (at (fun txn -> ops.min txn));
  check ci "size" 3 (at (fun txn -> ops.size txn));
  check cb "contains" true (at (fun txn -> ops.contains txn 8));
  check cb "not contains" false (at (fun txn -> ops.contains txn 9));
  check copt_i "pop 2" (Some 2) (at (fun txn -> ops.remove_min txn));
  check copt_i "pop 5" (Some 5) (at (fun txn -> ops.remove_min txn));
  check copt_i "pop 8" (Some 8) (at (fun txn -> ops.remove_min txn));
  check copt_i "drained" None (at (fun txn -> ops.remove_min txn));
  check ci "size drained" 0 (at (fun txn -> ops.size txn))

let pqueue_abort_rollback (ops : int S.Trait.Pqueue.ops) config () =
  let at f = Stm.atomically ?config f in
  at (fun txn -> ops.insert txn 10);
  let tries = ref 0 in
  at (fun txn ->
      incr tries;
      if !tries = 1 then begin
        ops.insert txn 1;
        ignore (ops.remove_min txn);
        ignore (ops.remove_min txn);
        ignore (Stm.restart txn)
      end);
  check copt_i "still has 10" (Some 10) (at (fun txn -> ops.min txn));
  check ci "size restored" 1 (at (fun txn -> ops.size txn))

let pqueue_same_txn (ops : int S.Trait.Pqueue.ops) config () =
  let popped =
    Stm.atomically ?config (fun txn ->
        ops.insert txn 3;
        ops.insert txn 1;
        let a = ops.remove_min txn in
        let b = ops.remove_min txn in
        (a, b))
  in
  check
    Alcotest.(pair (option int) (option int))
    "pops own inserts in order" (Some 1, Some 3) popped

let pqueue_concurrent (ops : int S.Trait.Pqueue.ops) config () =
  let popped = Atomic.make 0 in
  spawn_all 4 (fun d ->
      let rng = Random.State.make [| d |] in
      for i = 1 to 100 do
        Stm.atomically ?config (fun txn ->
            ops.insert txn (Random.State.int rng 1_000));
        if i mod 2 = 0 then
          match Stm.atomically ?config (fun txn -> ops.remove_min txn) with
          | Some _ -> Atomic.incr popped
          | None -> ()
      done);
  let remaining = Stm.atomically ?config (fun txn -> ops.size txn) in
  check ci "conserved" 400 (Atomic.get popped + remaining)

let pqueues_under_test :
    (string * Stm.config option * (unit -> int S.Trait.Pqueue.ops)) list =
  [
    ( "pq-eager-opt",
      Some eager_struct_cfg,
      fun () -> S.P_pqueue.ops (S.P_pqueue.make ~cmp:Int.compare ()) );
    ( "pq-eager-pess",
      None,
      fun () ->
        S.P_pqueue.ops
          (S.P_pqueue.make ~cmp:Int.compare ~lap:S.Trait.Pessimistic ()) );
    ( "pq-lazy-opt",
      None,
      fun () -> S.P_lazy_pqueue.ops (S.P_lazy_pqueue.make ~cmp:Int.compare ()) );
    ( "pq-lazy-pess",
      None,
      fun () ->
        S.P_lazy_pqueue.ops
          (S.P_lazy_pqueue.make ~cmp:Int.compare ~lap:S.Trait.Pessimistic ())
    );
  ]

let per_pqueue_tests =
  List.concat_map
    (fun (name, config, make) ->
      [
        test (name ^ ": semantics") (fun () ->
            pqueue_semantics (make ()) config ());
        test (name ^ ": abort rollback") (fun () ->
            pqueue_abort_rollback (make ()) config ());
        test (name ^ ": same-txn ops") (fun () ->
            pqueue_same_txn (make ()) config ());
        slow (name ^ ": concurrent") (fun () ->
            pqueue_concurrent (make ()) config ());
      ])
    pqueues_under_test

let suite =
  per_map_tests @ per_pqueue_tests
  @ [
      test "eager applies during txn" test_eager_applies_during_txn;
      test "lazy defers until commit" test_lazy_defers_until_commit;
      test "lazy snapshot defers until commit"
        test_lazy_snapshot_defers_until_commit;
      test "counter semantics (pessimistic)"
        (counter_semantics S.Trait.Pessimistic None);
      test "counter semantics (optimistic)"
        (counter_semantics S.Trait.Optimistic (Some eager_struct_cfg));
      test "counter abort restores" test_counter_abort_restores;
      slow "counter stress (pessimistic)"
        (counter_stress S.Trait.Pessimistic None);
      slow "counter stress (optimistic)"
        (counter_stress S.Trait.Optimistic (Some eager_struct_cfg));
      test "counter observable band" test_counter_observable;
    ]
