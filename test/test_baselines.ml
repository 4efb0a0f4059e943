(** Tests for the comparison systems: the pure-STM map and
    transactional predication. *)

open Util
module B = Proust_baselines
module S = Proust_structures

let baseline_maps :
    (string * (unit -> (int, int) S.Trait.Map.ops)) list =
  [
    ("stm-map", fun () -> B.Stm_hashmap.ops (B.Stm_hashmap.make ()));
    ( "stm-map-sized",
      fun () -> B.Stm_hashmap.ops (B.Stm_hashmap.make ~track_size:true ()) );
    ("predication", fun () -> B.Predication_map.ops (B.Predication_map.make ()));
  ]

let semantics (ops : (int, int) S.Trait.Map.ops) () =
  let at f = Stm.atomically f in
  check copt_i "get empty" None (at (fun txn -> ops.get txn 1));
  check copt_i "put fresh" None (at (fun txn -> ops.put txn 1 10));
  check copt_i "put old" (Some 10) (at (fun txn -> ops.put txn 1 11));
  check cb "contains" true (at (fun txn -> ops.contains txn 1));
  check ci "size" 1 (at (fun txn -> ops.size txn));
  check copt_i "remove" (Some 11) (at (fun txn -> ops.remove txn 1));
  check ci "size after" 0 (at (fun txn -> ops.size txn))

let rollback (ops : (int, int) S.Trait.Map.ops) () =
  ignore (Stm.atomically (fun txn -> ops.put txn 1 100));
  let tries = ref 0 in
  Stm.atomically (fun txn ->
      incr tries;
      if !tries = 1 then begin
        ignore (ops.put txn 1 999);
        ignore (ops.put txn 2 2);
        ignore (Stm.restart txn)
      end);
  check copt_i "restored" (Some 100)
    (Stm.atomically (fun txn -> ops.get txn 1));
  check copt_i "no phantom" None (Stm.atomically (fun txn -> ops.get txn 2))

let transfers (ops : (int, int) S.Trait.Map.ops) () =
  let keys = 10 in
  Stm.atomically (fun txn ->
      for k = 0 to keys - 1 do
        ignore (ops.put txn k 50)
      done);
  spawn_all 4 (fun d ->
      let rng = Random.State.make [| d |] in
      for _ = 1 to 200 do
        let a = Random.State.int rng keys and b = Random.State.int rng keys in
        if a <> b then
          Stm.atomically (fun txn ->
              let va = Option.get (ops.get txn a) in
              ignore (ops.put txn a (va - 1));
              let vb = Option.get (ops.get txn b) in
              ignore (ops.put txn b (vb + 1)))
      done);
  let total =
    Stm.atomically (fun txn ->
        let t = ref 0 in
        for k = 0 to keys - 1 do
          t := !t + Option.get (ops.get txn k)
        done;
        !t)
  in
  check ci "conserved" (keys * 50) total

let per_baseline_tests =
  List.concat_map
    (fun (name, make) ->
      [
        test (name ^ ": semantics") (fun () -> semantics (make ()) ());
        test (name ^ ": rollback") (fun () -> rollback (make ()) ());
        slow (name ^ ": concurrent transfers") (fun () -> transfers (make ()) ());
      ])
    baseline_maps

(* ------------------------------------------------------------------ *)
(* False conflicts: the motivating §1 observation.  Two transactions
   touching different keys in the same bucket conflict on the pure-STM
   map, but not on a Proustian map with per-key striping.              *)

(* A deterministic interleaving: T0 reads key [k1], then waits until T1
   has committed an update to key [k2], then writes [k1] and tries to
   commit.  If the synchronization metadata for the two (distinct!)
   keys collides, T0's first attempt must abort; if not, nothing
   aborts. *)
let scheduled_conflict (ops : (int, int) S.Trait.Map.ops) k1 k2 =
  Stats.reset ();
  let t0_read = Atomic.make 0 and t1_done = Atomic.make 0 in
  let d0 =
    Domain.spawn (fun () ->
        Stm.atomically (fun txn ->
            ignore (ops.S.Trait.Map.get txn k1);
            Atomic.incr t0_read;
            while Atomic.get t1_done = 0 do
              Domain.cpu_relax ()
            done;
            ignore (ops.S.Trait.Map.put txn k1 1)))
  in
  let d1 =
    Domain.spawn (fun () ->
        while Atomic.get t0_read = 0 do
          Domain.cpu_relax ()
        done;
        Stm.atomically (fun txn -> ignore (ops.S.Trait.Map.put txn k2 2));
        Atomic.set t1_done 1)
  in
  Domain.join d0;
  Domain.join d1;
  (Stats.read ()).Stats.aborts

let test_false_conflicts () =
  (* stm-map with a single bucket: the two distinct keys share it, so
     the schedule must produce a false conflict (§1's motivation). *)
  let stm_map = B.Stm_hashmap.ops (B.Stm_hashmap.make ~buckets:1 ()) in
  let stm_aborts = scheduled_conflict stm_map 0 1 in
  check cb "pure-STM map false-conflicts on distinct keys" true
    (stm_aborts >= 1);
  (* A Proustian map with ample striping keeps the keys apart: the
     same schedule commits both transactions without any abort. *)
  let proust = S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ~slots:4096 ()) in
  let proust_aborts = scheduled_conflict proust 0 1 in
  check ci "proust map has no false conflict" 0 proust_aborts

(* Predication-specific: predicates are reused per key. *)
let test_predication_predicate_reuse () =
  let m = B.Predication_map.make () in
  ignore (Stm.atomically (fun txn -> B.Predication_map.put m txn 1 10));
  ignore (Stm.atomically (fun txn -> B.Predication_map.remove m txn 1));
  (* Removing leaves the predicate in place holding None. *)
  check copt_i "absent after remove" None
    (Stm.atomically (fun txn -> B.Predication_map.get m txn 1));
  ignore (Stm.atomically (fun txn -> B.Predication_map.put m txn 1 20));
  check copt_i "rebound" (Some 20)
    (Stm.atomically (fun txn -> B.Predication_map.get m txn 1));
  check ci "size tracked across reuse" 1 (B.Predication_map.committed_size m)

let test_stm_map_size_consistency () =
  let m = B.Stm_hashmap.make ~track_size:true () in
  let ops = B.Stm_hashmap.ops m in
  spawn_all 4 (fun d ->
      for i = 0 to 99 do
        ignore
          (Stm.atomically (fun txn -> ops.S.Trait.Map.put txn ((d * 100) + i) i))
      done);
  check ci "transactional size exact" 400
    (Stm.atomically (fun txn -> ops.S.Trait.Map.size txn))

let suite =
  per_baseline_tests
  @ [
      slow "false conflicts: stm-map vs proust" test_false_conflicts;
      test "predication predicate reuse" test_predication_predicate_reuse;
      slow "stm-map transactional size" test_stm_map_size_consistency;
    ]
