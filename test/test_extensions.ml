(** Tests for the extension round: new base structures (deque,
    persistent/COW queues, B+-tree COW ordered map), the Proustian FIFO
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
(* COW ordered map (persistent B+-tree)                                 *)

module IntMap = Map.Make (Int)
module O = C.Cow_omap.Snapshot

let omap_keys = 4_000

(* A fill phase of puts over [omap_keys] keys, past the 1,024 bindings
   two levels of fanout 32 can hold, then a remove-heavy mixed phase
   that drains most of it again, so leaves and internal nodes both
   borrow and merge, and the root collapses. *)
let omap_ops_gen =
  QCheck2.Gen.(
    let key = int_range 0 (omap_keys - 1) in
    let put = map2 (fun k v -> (k, `Put v)) key (int_range 0 999) in
    let mixed = frequency [ (1, put); (3, map (fun k -> (k, `Remove)) key) ] in
    pair (list_size (int_range 1_500 3_000) put) (list_size (int_range 0 6_000) mixed))

let apply_omap (s, m) ops =
  List.fold_left
    (fun (s, m) (k, op) ->
      match op with
      | `Put v -> (fst (O.add s k v), IntMap.add k v m)
      | `Remove -> (fst (O.remove s k), IntMap.remove k m))
    (s, m) ops

let omap_of (fill, mixed) =
  let filled = apply_omap (C.Cow_omap.empty ~compare:Int.compare (), IntMap.empty) fill in
  (fst filled, apply_omap filled mixed)

let prop_omap_model ops =
  let _, (s, m) = omap_of ops in
  O.bindings s = IntMap.bindings m
  && O.size s = IntMap.cardinal m
  && IntMap.for_all (fun k v -> O.find s k = Some v) m
  && List.for_all (fun k -> IntMap.mem k m || O.find s k = None) [ -1; 0; 17; omap_keys ]

let prop_omap_well_formed ops =
  let filled, (s, _) = omap_of ops in
  O.depth filled >= 3 && O.well_formed filled && O.well_formed s

(* Bounds cover lo > hi, lo = hi and keys outside the key set. *)
let omap_range_gen =
  QCheck2.Gen.(
    let bound = int_range (-10) (omap_keys + 10) in
    pair omap_ops_gen (oneof [ pair bound bound; map (fun k -> (k, k)) bound ]))

let prop_omap_range (ops, (lo, hi)) =
  let _, (s, m) = omap_of ops in
  O.range s ~lo ~hi
  = (IntMap.bindings m |> List.filter (fun (k, _) -> k >= lo && k <= hi))

let test_omap_min_max () =
  let binding = Alcotest.(option (pair int int)) in
  let s = C.Cow_omap.empty () in
  check binding "empty min" None (O.min_binding s);
  check binding "empty max" None (O.max_binding s);
  let s = List.fold_left (fun s k -> fst (O.add s k (10 * k))) s [ 5; 1; 9 ] in
  check binding "min" (Some (1, 10)) (O.min_binding s);
  check binding "max" (Some (9, 90)) (O.max_binding s);
  let s = ref s in
  for k = 10 to 2_000 do
    s := fst (O.add !s k k)
  done;
  s := fst (O.remove !s 1);
  s := fst (O.remove !s 2_000);
  check binding "min past a removal, deep tree" (Some (5, 50)) (O.min_binding !s);
  check binding "max past a removal, deep tree" (Some (1_999, 1_999)) (O.max_binding !s)

(* Deterministic grow-then-drain: 100k keys in a scrambled order, then
   all but 5,000 removed in another, with the invariants checked along
   the way.  The snapshot taken when full must survive the drain. *)
let test_omap_grow_drain () =
  let n = 100_000 in
  let s = ref (C.Cow_omap.empty ~compare:Int.compare ()) in
  let wf what = check cb (what ^ " well formed") true (O.well_formed !s) in
  for i = 0 to n - 1 do
    s := fst (O.add !s (i * 7_919 mod n) i);
    if i mod 10_000 = 0 then wf (Printf.sprintf "after %d adds" i)
  done;
  wf "full";
  let full = !s in
  check ci "full size" n (O.size full);
  check cb "full depth >= 4" true (O.depth full >= 4);
  let kept k = k mod 20 = 0 in
  for i = 0 to n - 1 do
    let k = i * 104_729 mod n in
    if not (kept k) then begin
      let s', old = O.remove !s k in
      if old = None then Alcotest.failf "key %d missing at removal %d" k i;
      s := s'
    end;
    if i mod 5_000 = 0 then wf (Printf.sprintf "after %d removal steps" i)
  done;
  wf "drained";
  check ci "drained size" (n / 20) (O.size !s);
  check cb "drained depth shrank" true (O.depth !s < O.depth full);
  check cb "drained bindings" true
    (List.map fst (O.bindings !s) = List.filter kept (List.init n Fun.id));
  check cb "full snapshot untouched" true (O.well_formed full && O.size full = n);
  check copt_i "full snapshot keeps a removed key" (Some 1) (O.find full 7_919)

let test_cow_omap () =
  let s = C.Cow_omap.empty () in
  let s, old = O.add s 5 50 in
  check copt_i "put" None old;
  let s = fst (O.add (fst (O.add s 1 10)) 9 90) in
  let snap = s in
  check copt_i "get" (Some 50) (O.find s 5);
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "range" [ (1, 10); (5, 50) ]
    (O.range s ~lo:0 ~hi:5);
  let s, old = O.remove s 1 in
  check copt_i "remove" (Some 10) old;
  check ci "snapshot keeps removed" 3 (O.size snap);
  check ci "live size" 2 (O.size s);
  check cb "min binding moved" true (O.min_binding s = Some (5, 50))

(* The map made concurrent by [Root.update] over an atomic root. *)
let test_cow_omap_concurrent () =
  let root = Atomic.make (C.Cow_omap.empty ()) in
  spawn_all 4 (fun d ->
      for i = 0 to 499 do
        ignore (C.Root.update root (fun s -> O.add s ((i * 4) + d) i))
      done);
  let s = Atomic.get root in
  check ci "all in" 2_000 (O.size s);
  check cb "well formed" true (O.well_formed s);
  check ci "range count" 100 (List.length (O.range s ~lo:0 ~hi:99))

(* A range read searches for each bound only along its own root-to-leaf
   path and emits the children between the paths whole, so its
   comparison count is bounded by the depth and fanout, not the width:
   at most two binary searches per level, each over at most [fanout]
   entries. *)
let test_cow_omap_range_comparisons () =
  let n = 100_000 in
  let calls = ref 0 in
  let compare a b =
    incr calls;
    Int.compare a b
  in
  let s = ref (C.Cow_omap.empty ~compare ()) in
  for k = 0 to n - 1 do
    s := fst (O.add !s k k)
  done;
  let rec log2_ceil x = if x <= 1 then 0 else 1 + log2_ceil ((x + 1) / 2) in
  let bound = 2 * O.depth !s * log2_ceil (C.Cow_omap.fanout + 1) in
  List.iter
    (fun (lo, hi) ->
      let width = min hi (n - 1) - lo + 1 in
      calls := 0;
      let r = O.range !s ~lo ~hi in
      let name = Printf.sprintf "range [%d, %d]" lo hi in
      check ci (name ^ " width") width (List.length r);
      check cb
        (Printf.sprintf "%s: %d comparisons <= %d" name !calls bound)
        true (!calls <= bound))
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
    qcheck ~count:50 "cow omap matches Map" omap_ops_gen prop_omap_model;
    qcheck ~count:50 "cow omap well formed" omap_ops_gen prop_omap_well_formed;
    qcheck ~count:50 "cow omap range" omap_range_gen prop_omap_range;
    test "cow omap min/max" test_omap_min_max;
    test "cow omap grow and drain" test_omap_grow_drain;
    test "cow omap" test_cow_omap;
    slow "cow omap concurrent" test_cow_omap_concurrent;
    test "cow omap range comparisons" test_cow_omap_range_comparisons;
  ]
  @ fifo_tests
  @ [
      test "lazy-snap shadow sees a commit that landed"
        (shadow_sees_landed_commit
           (S.P_lazy_triemap.ops (S.P_lazy_triemap.make ())));
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
