(** Tests for the extension round: new base structures (deque,
    persistent/COW queues, AVL/COW ordered map), the Proustian FIFO
    wrappers, the §9 future-work optimisations (undo combining,
    snapshot-replay root-CAS combining), the generalized SAT encoding
    and the CEGIS synthesizer. *)

open Util
module C = Proust_concurrent
module S = Proust_structures
module V = Proust_verify

(* ------------------------------------------------------------------ *)
(* Deque                                                                *)

let test_deque_basics () =
  let d = C.Deque.create () in
  check copt_i "pop empty" None (C.Deque.pop_front d);
  let _ = C.Deque.push_back d 2 in
  let _ = C.Deque.push_front d 1 in
  let _ = C.Deque.push_back d 3 in
  check clist_i "order" [ 1; 2; 3 ] (C.Deque.to_list d);
  check copt_i "peek front" (Some 1) (C.Deque.peek_front d);
  check copt_i "peek back" (Some 3) (C.Deque.peek_back d);
  check copt_i "pop front" (Some 1) (C.Deque.pop_front d);
  check copt_i "pop back" (Some 3) (C.Deque.pop_back d);
  check ci "size" 1 (C.Deque.size d)

let test_deque_delete () =
  let d = C.Deque.create () in
  let n1 = C.Deque.push_back d 1 in
  let n2 = C.Deque.push_back d 2 in
  let _ = C.Deque.push_back d 3 in
  check cb "delete middle" true (C.Deque.delete d n2);
  check cb "delete again" false (C.Deque.delete d n2);
  check clist_i "after delete" [ 1; 3 ] (C.Deque.to_list d);
  check ci "node value" 2 (C.Deque.node_value n2);
  check cb "delete head node" true (C.Deque.delete d n1);
  check clist_i "after head delete" [ 3 ] (C.Deque.to_list d)

let test_deque_concurrent () =
  let d = C.Deque.create () in
  spawn_all 4 (fun i ->
      for j = 1 to 500 do
        if j land 1 = 0 then ignore (C.Deque.push_back d (i * j))
        else ignore (C.Deque.pop_front d)
      done);
  check cb "size consistent with list" true
    (C.Deque.size d = List.length (C.Deque.to_list d))

(* ------------------------------------------------------------------ *)
(* Persistent / COW queues                                              *)

let prop_pqueue_fifo_order l =
  let q = C.Pqueue_fifo.of_list l in
  C.Pqueue_fifo.to_list q = l
  && C.Pqueue_fifo.length q = List.length l
  &&
  let rec drain acc q =
    match C.Pqueue_fifo.dequeue q with
    | None -> List.rev acc
    | Some (x, q') -> drain (x :: acc) q'
  in
  drain [] q = l

let prop_pqueue_fifo_enqueue l =
  let q =
    List.fold_left C.Pqueue_fifo.enqueue C.Pqueue_fifo.empty l
  in
  C.Pqueue_fifo.to_list q = l

let test_cow_queue () =
  let q = C.Cow_queue.create () in
  check copt_i "dequeue empty" None (C.Cow_queue.dequeue q);
  C.Cow_queue.enqueue q 1;
  C.Cow_queue.enqueue q 2;
  let snap = C.Cow_queue.snapshot q in
  check copt_i "peek" (Some 1) (C.Cow_queue.peek q);
  check copt_i "dequeue" (Some 1) (C.Cow_queue.dequeue q);
  check clist_i "snapshot unaffected" [ 1; 2 ] (C.Cow_queue.Snapshot.to_list snap);
  check clist_i "live" [ 2 ] (C.Cow_queue.to_list q);
  check ci "snapshot size" 2 (C.Cow_queue.Snapshot.size snap)

let test_cow_queue_concurrent () =
  let q = C.Cow_queue.create () in
  let popped = Atomic.make 0 in
  spawn_all 4 (fun i ->
      for j = 1 to 500 do
        C.Cow_queue.enqueue q ((i * 500) + j);
        if j land 1 = 0 && C.Cow_queue.dequeue q <> None then
          Atomic.incr popped
      done);
  check ci "conserved" 2_000 (Atomic.get popped + C.Cow_queue.size q)

(* ------------------------------------------------------------------ *)
(* AVL / COW ordered map                                                *)

module IntMap = Map.Make (Int)

let avl_ops_gen =
  QCheck2.Gen.(
    list
      (pair (int_range 0 100)
         (oneof [ return `Remove; map (fun v -> `Put v) (int_range 0 999) ])))

let apply_avl ops =
  List.fold_left
    (fun (t, m) (k, op) ->
      match op with
      | `Put v -> (fst (C.Avl.add ~compare:Int.compare k v t), IntMap.add k v m)
      | `Remove ->
          (fst (C.Avl.remove ~compare:Int.compare k t), IntMap.remove k m))
    (C.Avl.empty, IntMap.empty) ops

let prop_avl_model ops =
  let t, m = apply_avl ops in
  C.Avl.bindings t = IntMap.bindings m
  && C.Avl.cardinal t = IntMap.cardinal m
  && IntMap.for_all (fun k v -> C.Avl.find ~compare:Int.compare k t = Some v) m

let prop_avl_balanced ops =
  let t, _ = apply_avl ops in
  C.Avl.well_formed ~compare:Int.compare t

(* Bounds cover lo > hi, lo = hi and keys outside the 0..100 key set. *)
let avl_range_gen =
  QCheck2.Gen.(
    let bound = int_range (-10) 110 in
    pair avl_ops_gen (oneof [ pair bound bound; map (fun k -> (k, k)) bound ]))

let prop_avl_range (ops, (lo, hi)) =
  let t, m = apply_avl ops in
  C.Avl.range ~compare:Int.compare ~lo ~hi t
  = (IntMap.bindings m |> List.filter (fun (k, _) -> k >= lo && k <= hi))

let test_avl_min_max () =
  let t, _ = apply_avl [ (5, `Put 50); (1, `Put 10); (9, `Put 90) ] in
  check (Alcotest.option (Alcotest.pair ci ci)) "min" (Some (1, 10))
    (C.Avl.min_binding t);
  check (Alcotest.option (Alcotest.pair ci ci)) "max" (Some (9, 90))
    (C.Avl.max_binding t);
  check cb "empty min" true (C.Avl.min_binding C.Avl.empty = None)

let test_cow_omap () =
  let m = C.Cow_omap.create () in
  check copt_i "put" None (C.Cow_omap.put m 5 50);
  ignore (C.Cow_omap.put m 1 10);
  ignore (C.Cow_omap.put m 9 90);
  let snap = C.Cow_omap.snapshot m in
  check copt_i "get" (Some 50) (C.Cow_omap.get m 5);
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "range" [ (1, 10); (5, 50) ]
    (C.Cow_omap.range m ~lo:0 ~hi:5);
  check copt_i "remove" (Some 10) (C.Cow_omap.remove m 1);
  check ci "snapshot keeps removed" 3 (C.Cow_omap.Snapshot.size snap);
  check ci "live size" 2 (C.Cow_omap.size m);
  check cb "min binding moved" true (C.Cow_omap.min_binding m = Some (5, 50))

let test_cow_omap_concurrent () =
  let m = C.Cow_omap.create () in
  spawn_all 4 (fun d ->
      for i = 0 to 499 do
        ignore (C.Cow_omap.put m ((i * 4) + d) i)
      done);
  check ci "all in" 2_000 (C.Cow_omap.size m);
  check ci "range count" 100
    (List.length (C.Cow_omap.range m ~lo:0 ~hi:99))

(* A range read compares keys only along its two boundary paths, so its
   comparison count does not grow with the width of the range. *)
let test_cow_omap_range_comparisons () =
  let n = 100_000 in
  let calls = ref 0 in
  let compare a b =
    incr calls;
    Int.compare a b
  in
  let m = C.Cow_omap.create ~compare () in
  let tree = ref C.Avl.empty in
  for k = 0 to n - 1 do
    ignore (C.Cow_omap.put m k k);
    tree := fst (C.Avl.add ~compare:Int.compare k k !tree)
  done;
  (* Same insertion sequence into the same AVL, so the same shape. *)
  let height = C.Avl.height !tree in
  let bound = min (2 * height) 40 in
  List.iter
    (fun (lo, hi) ->
      let width = min hi (n - 1) - lo + 1 in
      List.iter
        (fun (name, range) ->
          calls := 0;
          let r = range ~lo ~hi in
          let name = Printf.sprintf "%s [%d, %d]" name lo hi in
          check ci (name ^ " width") width (List.length r);
          check cb
            (Printf.sprintf "%s: %d comparisons <= %d" name !calls bound)
            true (!calls <= bound))
        [
          ("range", C.Cow_omap.range m);
          ("snapshot range", C.Cow_omap.Snapshot.range (C.Cow_omap.snapshot m));
        ])
    [ (50_000, 50_063); (30_000, 34_095); (n - 32, n + 31) ]

(* ------------------------------------------------------------------ *)
(* Proustian FIFO                                                      *)

let fifos : (string * Stm.config option * (unit -> int S.Trait.Queue.ops)) list =
  [
    ( "fifo-eager-opt",
      Some eager_struct_cfg,
      fun () -> S.P_fifo.ops (S.P_fifo.make ()) );
    ( "fifo-eager-pess",
      None,
      fun () -> S.P_fifo.ops (S.P_fifo.make ~lap:S.Trait.Pessimistic ()) );
    ("fifo-lazy-opt", None, fun () -> S.P_lazy_fifo.ops (S.P_lazy_fifo.make ()));
    ( "fifo-lazy-combine",
      None,
      fun () -> S.P_lazy_fifo.ops (S.P_lazy_fifo.make ~combine:true ()) );
  ]

let fifo_semantics (ops : int S.Trait.Queue.ops) config () =
  let at f = Stm.atomically ?config f in
  check copt_i "deq empty" None (at (fun txn -> ops.dequeue txn));
  check copt_i "front empty" None (at (fun txn -> ops.front txn));
  at (fun txn -> ops.enqueue txn 1);
  at (fun txn -> ops.enqueue txn 2);
  at (fun txn -> ops.enqueue txn 3);
  check copt_i "front" (Some 1) (at (fun txn -> ops.front txn));
  check ci "size" 3 (at (fun txn -> ops.size txn));
  check copt_i "deq 1" (Some 1) (at (fun txn -> ops.dequeue txn));
  check copt_i "deq 2" (Some 2) (at (fun txn -> ops.dequeue txn));
  check copt_i "deq 3" (Some 3) (at (fun txn -> ops.dequeue txn));
  check copt_i "drained" None (at (fun txn -> ops.dequeue txn))

let fifo_abort (ops : int S.Trait.Queue.ops) config () =
  let at f = Stm.atomically ?config f in
  at (fun txn -> ops.enqueue txn 10);
  let tries = ref 0 in
  at (fun txn ->
      incr tries;
      if !tries = 1 then begin
        ops.enqueue txn 20;
        ignore (ops.dequeue txn);
        ignore (ops.dequeue txn);
        ignore (Stm.restart txn)
      end);
  check copt_i "front restored" (Some 10) (at (fun txn -> ops.front txn));
  check ci "size restored" 1 (at (fun txn -> ops.size txn))

let fifo_order_preserved (ops : int S.Trait.Queue.ops) config () =
  (* One producer, one consumer; consumed sequence must be a prefix-
     ordered subsequence (FIFO). *)
  let consumed = ref [] in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to 300 do
          Stm.atomically ?config (fun txn -> ops.enqueue txn i)
        done)
  in
  let consumer =
    Domain.spawn (fun () ->
        for _ = 1 to 400 do
          match Stm.atomically ?config (fun txn -> ops.dequeue txn) with
          | Some v -> consumed := v :: !consumed
          | None -> ()
        done)
  in
  Domain.join producer;
  Domain.join consumer;
  let seq = List.rev !consumed in
  check cb "consumed in FIFO order" true (List.sort compare seq = seq)

let fifo_conservation (ops : int S.Trait.Queue.ops) config () =
  let popped = Atomic.make 0 in
  spawn_all 4 (fun d ->
      for i = 1 to 200 do
        if (d + i) land 1 = 0 then
          Stm.atomically ?config (fun txn -> ops.enqueue txn i)
        else if Stm.atomically ?config (fun txn -> ops.dequeue txn) <> None
        then Atomic.incr popped
      done);
  let remaining = Stm.atomically ?config (fun txn -> ops.size txn) in
  check ci "conserved" 400 (Atomic.get popped + remaining)

let fifo_tests =
  List.concat_map
    (fun (name, config, make) ->
      [
        test (name ^ ": semantics") (fun () -> fifo_semantics (make ()) config ());
        test (name ^ ": abort") (fun () -> fifo_abort (make ()) config ());
        slow (name ^ ": order") (fun () -> fifo_order_preserved (make ()) config ());
        slow (name ^ ": conservation") (fun () ->
            fifo_conservation (make ()) config ());
      ])
    fifos

(* A snapshot log's shadow must not hide a commit that was still
   replaying when the shadow was taken.  The schedule is forced with
   flags: the writer parks in a commit-locked hook registered before
   its replay, so its commit version is drawn but its effect on the base
   has not landed.  The reader starts then, so that version is inside
   its snapshot; it writes key 0, which takes the shadow, waits until
   the writer has published and returned, then reads key 1.  The read
   must see the writer's 9: a stale 0 would pass validation and, in a
   transfer, lose an update. *)
let shadow_sees_landed_commit (ops : (int, int) S.Trait.Map.ops) () =
  let config = cfg_of_mode Stm.Lazy_lazy in
  Stm.atomically ~config (fun txn ->
      ignore (ops.S.Trait.Map.put txn 0 0);
      ignore (ops.S.Trait.Map.put txn 1 0));
  let in_commit = Atomic.make false
  and shadow_taken = Atomic.make false
  and published = Atomic.make false in
  let wait flag =
    let deadline = Unix.gettimeofday () +. 10. in
    while not (Atomic.get flag) do
      if Unix.gettimeofday () > deadline then failwith "schedule stalled";
      Domain.cpu_relax ()
    done
  in
  let writer =
    Domain.spawn (fun () ->
        Stm.atomically ~config (fun txn ->
            Stm.on_commit_locked txn (fun () ->
                Atomic.set in_commit true;
                wait shadow_taken);
            ignore (ops.S.Trait.Map.put txn 1 9));
        Atomic.set published true)
  in
  wait in_commit;
  let seen =
    Stm.atomically ~config (fun txn ->
        ignore (ops.S.Trait.Map.put txn 0 1);
        Atomic.set shadow_taken true;
        wait published;
        ops.S.Trait.Map.get txn 1)
  in
  Domain.join writer;
  check copt_i "read sees the published commit" (Some 9) seen

(* ------------------------------------------------------------------ *)
(* S9 optimisations                                                    *)

let test_undo_combining_restores () =
  let m = S.P_hashmap.make ~lap:S.Trait.Pessimistic ~combine_undo:true () in
  ignore (Stm.atomically (fun txn -> S.P_hashmap.put m txn 1 100));
  let tries = ref 0 in
  Stm.atomically (fun txn ->
      incr tries;
      if !tries = 1 then begin
        (* many ops on few keys: combined undo restores first values *)
        for i = 1 to 20 do
          ignore (S.P_hashmap.put m txn 1 i);
          ignore (S.P_hashmap.put m txn 2 i)
        done;
        ignore (S.P_hashmap.remove m txn 1);
        ignore (Stm.restart txn)
      end);
  check copt_i "key 1 restored to first value" (Some 100)
    (Stm.atomically (fun txn -> S.P_hashmap.get m txn 1));
  check copt_i "key 2 never existed" None
    (Stm.atomically (fun txn -> S.P_hashmap.get m txn 2))

let test_undo_combining_conserves () =
  let m = S.P_hashmap.make ~lap:S.Trait.Pessimistic ~combine_undo:true () in
  let ops = S.P_hashmap.ops m in
  Stm.atomically (fun txn ->
      for k = 0 to 7 do
        ignore (ops.S.Trait.Map.put txn k 100)
      done);
  spawn_all 4 (fun d ->
      let rng = Random.State.make [| d |] in
      for _ = 1 to 200 do
        let a = Random.State.int rng 8 and b = Random.State.int rng 8 in
        if a <> b then
          Stm.atomically (fun txn ->
              let va = Option.get (ops.S.Trait.Map.get txn a) in
              ignore (ops.S.Trait.Map.put txn a (va - 1));
              let vb = Option.get (ops.S.Trait.Map.get txn b) in
              ignore (ops.S.Trait.Map.put txn b (vb + 1)))
      done);
  let total =
    Stm.atomically (fun txn ->
        let t = ref 0 in
        for k = 0 to 7 do
          t := !t + Option.get (ops.S.Trait.Map.get txn k)
        done;
        !t)
  in
  check ci "conserved with combined undo" 800 total

let test_install_combining_fast_path () =
  (* Single-threaded: the root CAS must always succeed, and committed
     state must match exactly. *)
  let m = S.P_lazy_triemap.make () in
  Stm.atomically (fun txn ->
      for i = 0 to 49 do
        ignore (S.P_lazy_triemap.put m txn i (i * 2))
      done);
  check ci "all installed" 50
    (Proust_concurrent.Ctrie.size (S.P_lazy_triemap.backing m));
  check copt_i "value" (Some 84)
    (Stm.atomically (fun txn -> S.P_lazy_triemap.get m txn 42))

let test_install_combining_fallback () =
  (* Force the fallback: commuting transactions interleave commits, so
     some root CASes fail and replay must preserve every update. *)
  let m = S.P_lazy_triemap.make () in
  spawn_all 4 (fun d ->
      for i = 0 to 249 do
        Stm.atomically (fun txn ->
            ignore (S.P_lazy_triemap.put m txn ((i * 4) + d) d))
      done);
  check ci "no update lost under combining" 1_000
    (Proust_concurrent.Ctrie.size (S.P_lazy_triemap.backing m))

let test_install_combining_pqueue () =
  let q = S.P_lazy_pqueue.make ~cmp:Int.compare ~combine:true () in
  let popped = Atomic.make 0 in
  spawn_all 4 (fun d ->
      let rng = Random.State.make [| d |] in
      for i = 1 to 100 do
        Stm.atomically (fun txn ->
            S.P_lazy_pqueue.insert q txn (Random.State.int rng 1_000));
        if i land 1 = 0 then
          match Stm.atomically (fun txn -> S.P_lazy_pqueue.remove_min q txn) with
          | Some _ -> Atomic.incr popped
          | None -> ()
      done);
  let remaining = Stm.atomically (fun txn -> S.P_lazy_pqueue.size q txn) in
  check ci "conserved" 400 (Atomic.get popped + remaining)

(* ------------------------------------------------------------------ *)
(* Verifier extensions                                                 *)

let test_queue_model_and_ca () =
  let q = V.Adt_model.small_queue () in
  check cb "fifo CA verified" true (V.Ca_check.check q (V.Ca_spec.fifo ()) = None);
  match V.Ca_check.check q (V.Ca_spec.broken_fifo ()) with
  | Some cex -> check cb "broken at empty" true (cex.V.Ca_check.state = [])
  | None -> Alcotest.fail "broken fifo should be rejected"

let test_check_model_generalized () =
  let c = V.Adt_model.counter ~bound:5 in
  check cb "counter via SAT" true
    (V.Ca_encode.check_model c (V.Ca_spec.counter ()) = V.Ca_encode.G_correct);
  (match V.Ca_encode.check_model c (V.Ca_spec.counter ~threshold:1 ()) with
  | V.Ca_encode.G_counterexample _ -> ()
  | V.Ca_encode.G_correct -> Alcotest.fail "broken counter must be SAT");
  let q = V.Adt_model.small_queue ~max_len:2 () in
  check cb "fifo via SAT" true
    (V.Ca_encode.check_model q (V.Ca_spec.fifo ()) = V.Ca_encode.G_correct);
  match V.Ca_encode.check_model q (V.Ca_spec.broken_fifo ()) with
  | V.Ca_encode.G_counterexample _ -> ()
  | V.Ca_encode.G_correct -> Alcotest.fail "broken fifo must be SAT"

let test_synth_counter () =
  let model = V.Adt_model.counter ~bound:6 in
  let out = V.Synth.synthesize model (V.Synth.counter_candidates ~max_threshold:4) in
  match out.V.Synth.chosen with
  | Some ca ->
      check cs "weakest sound threshold is the paper's 2"
        "counter(threshold=2)" ca.V.Ca_spec.name;
      check cb "counterexamples guided the search" true
        (List.length out.V.Synth.counterexamples >= 1)
  | None -> Alcotest.fail "synthesis should succeed"

let test_synth_pqueue_repairs_figure3 () =
  let model = V.Adt_model.small_pqueue () in
  let out = V.Synth.synthesize model (V.Synth.pqueue_candidates ~stripes:2) in
  match out.V.Synth.chosen with
  | Some ca ->
      check cs "repaired abstraction chosen" "pqueue(stripes=2)"
        ca.V.Ca_spec.name
  | None -> Alcotest.fail "synthesis should succeed"

let test_synth_unsatisfiable () =
  (* No candidate is sound: threshold 0 and 1 only. *)
  let model = V.Adt_model.counter ~bound:6 in
  let out =
    V.Synth.synthesize model
      [ V.Ca_spec.counter ~threshold:0 (); V.Ca_spec.counter ~threshold:1 () ]
  in
  check cb "no candidate" true (out.V.Synth.chosen = None);
  check ci "tried all" 2 out.V.Synth.candidates_tried

let test_synth_prunes_with_cexs () =
  (* Candidates ordered so the first counterexample screens later
     equivalent failures without full checks. *)
  let model = V.Adt_model.counter ~bound:6 in
  let out =
    V.Synth.synthesize model
      [
        V.Ca_spec.counter ~threshold:0 ();
        V.Ca_spec.counter ~threshold:0 ();
        V.Ca_spec.counter ~threshold:0 ();
        V.Ca_spec.counter ~threshold:2 ();
      ]
  in
  check cb "found" true (out.V.Synth.chosen <> None);
  check cb "pruning avoided full checks" true
    (out.V.Synth.full_checks < out.V.Synth.candidates_tried)

(* ------------------------------------------------------------------ *)
(* Zipf workload                                                       *)

let test_zipf_skew () =
  let spec =
    { Proust_workload.Workload.key_range = 100; write_fraction = 0.0;
      ops_per_txn = 1; total_ops = 0 }
  in
  let s =
    Proust_workload.Workload.stream ~seed:1
      ~dist:(Proust_workload.Workload.Zipf 1.0) spec ~count:20_000
  in
  let counts = Array.make 100 0 in
  Array.iter
    (function
      | Proust_workload.Workload.Get k -> counts.(k) <- counts.(k) + 1
      | _ -> ())
    s;
  check cb "key 0 much hotter than key 50" true (counts.(0) > 10 * counts.(50));
  check cb "all keys in range" true
    (Array.for_all (fun c -> c >= 0) counts)

let suite =
  [
    test "deque basics" test_deque_basics;
    test "deque delete" test_deque_delete;
    slow "deque concurrent" test_deque_concurrent;
    qcheck "pqueue_fifo of_list/drain" QCheck2.Gen.(list small_int)
      prop_pqueue_fifo_order;
    qcheck "pqueue_fifo enqueue order" QCheck2.Gen.(list small_int)
      prop_pqueue_fifo_enqueue;
    test "cow queue" test_cow_queue;
    slow "cow queue concurrent" test_cow_queue_concurrent;
    qcheck "avl matches Map" avl_ops_gen prop_avl_model;
    qcheck "avl balanced" avl_ops_gen prop_avl_balanced;
    qcheck "avl range" avl_range_gen prop_avl_range;
    test "avl min/max" test_avl_min_max;
    test "cow omap" test_cow_omap;
    slow "cow omap concurrent" test_cow_omap_concurrent;
    test "cow omap range comparisons" test_cow_omap_range_comparisons;
  ]
  @ fifo_tests
  @ [
      test "lazy-snap shadow sees a commit that landed"
        (shadow_sees_landed_commit
           (S.P_lazy_triemap.ops (S.P_lazy_triemap.make ())));
      test "undo combining restores" test_undo_combining_restores;
      slow "undo combining conserves" test_undo_combining_conserves;
      test "install combining fast path" test_install_combining_fast_path;
      slow "install combining fallback" test_install_combining_fallback;
      slow "install combining pqueue" test_install_combining_pqueue;
      test "queue model & CA" test_queue_model_and_ca;
      slow "generalized SAT check" test_check_model_generalized;
      test "synth: counter threshold" test_synth_counter;
      test "synth: repairs figure 3" test_synth_pqueue_repairs_figure3;
      test "synth: unsatisfiable" test_synth_unsatisfiable;
      test "synth: counterexample pruning" test_synth_prunes_with_cexs;
      test "zipf skew" test_zipf_skew;
    ]
