(** Tests for the concurrent skiplist and its eager Proustian
    ordered-map wrapper. *)

open Util
module C = Proust_concurrent
module S = Proust_structures

module IntMap = Map.Make (Int)

let test_basics () =
  let s = C.Skiplist.create () in
  check copt_i "get empty" None (C.Skiplist.get s 1);
  check copt_i "put fresh" None (C.Skiplist.put s 1 10);
  check copt_i "put old" (Some 10) (C.Skiplist.put s 1 11);
  check cb "contains" true (C.Skiplist.contains s 1);
  check copt_i "remove" (Some 11) (C.Skiplist.remove s 1);
  check copt_i "remove absent" None (C.Skiplist.remove s 1);
  check cb "empty" true (C.Skiplist.is_empty s)

let test_ordering () =
  let s = C.Skiplist.create () in
  for i = 49 downto 0 do
    ignore (C.Skiplist.put s i (i * 3))
  done;
  check ci "size" 50 (C.Skiplist.size s);
  check cb "ascending bindings" true
    (C.Skiplist.bindings s = List.init 50 (fun i -> (i, i * 3)));
  check cb "min" true (C.Skiplist.min_binding s = Some (0, 0));
  check cb "max" true (C.Skiplist.max_binding s = Some (49, 147));
  check cb "range" true
    (C.Skiplist.range s ~lo:10 ~hi:14
    = [ (10, 30); (11, 33); (12, 36); (13, 39); (14, 42) ])

let skiplist_ops_gen =
  QCheck2.Gen.(
    list
      (pair (int_range 0 60)
         (oneof [ return `Remove; map (fun v -> `Put v) (int_range 0 999) ])))

let skiplist_gen =
  QCheck2.Gen.(
    pair skiplist_ops_gen (pair (int_range (-5) 65) (int_range (-5) 65)))

let prop_matches_map (ops, (lo, hi)) =
  let s = C.Skiplist.create () in
  let m =
    List.fold_left
      (fun m (k, op) ->
        match op with
        | `Put v ->
            let old = C.Skiplist.put s k v in
            if old <> IntMap.find_opt k m then raise Exit;
            IntMap.add k v m
        | `Remove ->
            let old = C.Skiplist.remove s k in
            if old <> IntMap.find_opt k m then raise Exit;
            IntMap.remove k m)
      IntMap.empty ops
  in
  C.Skiplist.bindings s = IntMap.bindings m
  && C.Skiplist.size s = IntMap.cardinal m
  && C.Skiplist.range s ~lo ~hi
     = List.filter (fun (k, _) -> k >= lo && k <= hi) (IntMap.bindings m)
  && C.Skiplist.min_binding s = IntMap.min_binding_opt m
  && C.Skiplist.max_binding s = IntMap.max_binding_opt m

(* A range seeks [lo] down the towers and then walks level 0 only to the
   first key above [hi]. *)
let test_range_comparisons () =
  let n = 100_000 in
  let calls = ref 0 in
  let compare a b =
    incr calls;
    Int.compare a b
  in
  let s = C.Skiplist.create ~compare () in
  for k = 0 to n - 1 do
    ignore (C.Skiplist.put s k k)
  done;
  let log2_n = Float.(to_int (ceil (log2 (of_int n)))) in
  let bound = 64 + 1 + (8 * log2_n) in
  calls := 0;
  let r = C.Skiplist.range s ~lo:50_000 ~hi:50_063 in
  check cb "width 64" true (r = List.init 64 (fun i -> (50_000 + i, 50_000 + i)));
  check cb
    (Printf.sprintf "%d comparisons <= %d" !calls bound)
    true (!calls <= bound);
  check cb "min" true (C.Skiplist.min_binding s = Some (0, 0));
  check cb "max" true (C.Skiplist.max_binding s = Some (n - 1, n - 1))

let test_concurrent_disjoint () =
  let s = C.Skiplist.create () in
  spawn_all 4 (fun d ->
      for i = 0 to 999 do
        ignore (C.Skiplist.put s ((i * 4) + d) i)
      done);
  check ci "all in" 4_000 (C.Skiplist.size s);
  check cb "sorted complete" true
    (List.map fst (C.Skiplist.bindings s) = List.init 4_000 Fun.id);
  spawn_all 4 (fun d ->
      for i = 0 to 999 do
        ignore (C.Skiplist.remove s ((i * 4) + d))
      done);
  check ci "all out" 0 (C.Skiplist.size s)

let test_concurrent_contended () =
  let s = C.Skiplist.create () in
  spawn_all 4 (fun d ->
      let rng = Random.State.make [| d |] in
      for _ = 1 to 2_500 do
        let k = Random.State.int rng 48 in
        if Random.State.bool rng then ignore (C.Skiplist.put s k d)
        else ignore (C.Skiplist.remove s k)
      done);
  let b = C.Skiplist.bindings s in
  check cb "keys sorted and unique" true
    (List.sort_uniq compare (List.map fst b) = List.map fst b);
  check ci "size agrees with contents" (List.length b) (C.Skiplist.size s)

(* ------------------------------------------------------------------ *)
(* Proustian wrapper                                                    *)

let mk ?(lap = S.Trait.Pessimistic) () =
  S.P_skipmap.make ~slots:16 ~index:(fun k -> k / 8) ~lap ()

let test_skipmap_semantics () =
  let m = mk () in
  let at f = Stm.atomically f in
  check copt_i "get empty" None (at (fun txn -> S.P_skipmap.get m txn 5));
  ignore (at (fun txn -> S.P_skipmap.put m txn 5 50));
  ignore (at (fun txn -> S.P_skipmap.put m txn 20 200));
  check copt_i "get" (Some 50) (at (fun txn -> S.P_skipmap.get m txn 5));
  check cb "range" true
    (at (fun txn -> S.P_skipmap.range m txn ~lo:0 ~hi:10) = [ (5, 50) ]);
  check cb "min" true
    (at (fun txn -> S.P_skipmap.min_binding m txn) = Some (5, 50));
  check cb "max" true
    (at (fun txn -> S.P_skipmap.max_binding m txn) = Some (20, 200));
  check ci "size" 2 (at (fun txn -> S.P_skipmap.size m txn));
  check copt_i "remove" (Some 50) (at (fun txn -> S.P_skipmap.remove m txn 5))

let test_skipmap_abort () =
  let m = mk () in
  ignore (Stm.atomically (fun txn -> S.P_skipmap.put m txn 1 10));
  let tries = ref 0 in
  Stm.atomically (fun txn ->
      incr tries;
      if !tries = 1 then begin
        ignore (S.P_skipmap.put m txn 1 99);
        ignore (S.P_skipmap.put m txn 2 20);
        ignore (S.P_skipmap.remove m txn 1);
        ignore (Stm.restart txn)
      end);
  check cb "rolled back" true (S.P_skipmap.bindings m = [ (1, 10) ])

let test_skipmap_transfers () =
  let m = mk () in
  let ops = S.P_skipmap.map_ops m in
  Stm.atomically (fun txn ->
      for k = 0 to 15 do
        ignore (ops.S.Trait.Map.put txn k 50)
      done);
  spawn_all 4 (fun d ->
      let rng = Random.State.make [| d |] in
      for _ = 1 to 200 do
        let a = Random.State.int rng 16 and b = Random.State.int rng 16 in
        if a <> b then
          Stm.atomically (fun txn ->
              let va = Option.get (ops.S.Trait.Map.get txn a) in
              ignore (ops.S.Trait.Map.put txn a (va - 1));
              let vb = Option.get (ops.S.Trait.Map.get txn b) in
              ignore (ops.S.Trait.Map.put txn b (vb + 1)))
      done);
  let total =
    Stm.atomically (fun txn ->
        List.fold_left (fun a (_, v) -> a + v) 0
          (S.P_skipmap.range m txn ~lo:0 ~hi:15))
  in
  check ci "conserved via range scan" 800 total

let test_skipmap_optimistic () =
  let m = mk ~lap:S.Trait.Optimistic () in
  let at f = Stm.atomically ~config:eager_struct_cfg f in
  ignore (at (fun txn -> S.P_skipmap.put m txn 3 30));
  check copt_i "get back" (Some 30) (at (fun txn -> S.P_skipmap.get m txn 3));
  spawn_all 4 (fun d ->
      for i = 0 to 99 do
        ignore
          (Stm.atomically ~config:eager_struct_cfg (fun txn ->
               S.P_skipmap.put m txn ((i * 4) + d + 10) i))
      done);
  check ci "all inserts landed" 401
    (Stm.atomically ~config:eager_struct_cfg (fun txn -> S.P_skipmap.size m txn))

let suite =
  [
    test "skiplist basics" test_basics;
    test "skiplist ordering/range" test_ordering;
    qcheck "skiplist matches Map" skiplist_gen prop_matches_map;
    test "skiplist range comparisons" test_range_comparisons;
    slow "skiplist concurrent disjoint" test_concurrent_disjoint;
    slow "skiplist concurrent contended" test_concurrent_contended;
    test "skipmap semantics" test_skipmap_semantics;
    test "skipmap abort rollback" test_skipmap_abort;
    slow "skipmap transfers" test_skipmap_transfers;
    slow "skipmap optimistic" test_skipmap_optimistic;
  ]
