(** Scheduled-interleaving tests for the opacity claims of §5 and the
    compatibility matrix of Figure 1.

    Each test forces a specific two-transaction interleaving with
    atomic gates, so the outcomes are deterministic:

    - under every {e compatible} (design point, STM mode) pairing the
      schedule preserves atomicity;
    - under the "empty quarter" (eager updates + optimistic locks on a
      fully lazy STM) the same schedule provably loses a committed
      update — the reason Figure 1 rules that combination out. *)

open Util
module S = Proust_structures

let gate () = Atomic.make 0
let signal g = Atomic.incr g

let await g n =
  while Atomic.get g < n do
    Domain.cpu_relax ()
  done

(* ------------------------------------------------------------------ *)
(* The empty quarter: demonstrate the anomaly (Figure 1, Theorem 5.2). *)

let test_empty_quarter_anomaly () =
  (* Eager updates + optimistic LAP under Lazy_lazy: T1 applies its put
     to the base immediately, T2 commits a conflicting put, then T1
     aborts and its inverse erases T2's committed update. *)
  let m = S.P_hashmap.make () in
  let t1_applied = gate () and t2_done = gate () in
  let d1 =
    Domain.spawn (fun () ->
        let tries = ref 0 in
        Stm.atomically (* default Lazy_lazy: the unsound pairing *)
          (fun txn ->
            incr tries;
            if !tries = 1 then begin
              ignore (S.P_hashmap.put m txn 7 100);
              signal t1_applied;
              await t2_done 1;
              ignore (Stm.restart txn)
            end))
  in
  let d2 =
    Domain.spawn (fun () ->
        await t1_applied 1;
        Stm.atomically (fun txn -> ignore (S.P_hashmap.put m txn 7 200));
        signal t2_done)
  in
  Domain.join d1;
  Domain.join d2;
  (* T2 committed 200, but T1's abort path restored its own pre-state
     (key absent), erasing the committed update.  This anomaly is the
     point: the test documents WHY the combination is unsound. *)
  check copt_i "committed update was lost (the documented anomaly)" None
    (Proust_concurrent.Chashmap.get (S.P_hashmap.backing m) 7)

let test_eager_mode_prevents_anomaly () =
  (* Same schedule under Eager_lazy: T2's conflict-abstraction write
     cannot be acquired while T1 holds the slot, so T2 cannot commit
     inside T1's window.  T2 aborts its attempts and retries after T1
     releases; no update is lost. *)
  let config = eager_cfg in
  let m = S.P_hashmap.make () in
  let t1_applied = gate () and t2_done = gate () in
  let d1 =
    Domain.spawn (fun () ->
        let tries = ref 0 in
        Stm.atomically ~config (fun txn ->
            incr tries;
            if !tries = 1 then begin
              ignore (S.P_hashmap.put m txn 7 100);
              signal t1_applied;
              (* T2 cannot finish while we hold the slot; wait a bounded
                 moment to give it the chance to (wrongly) slip in. *)
              let deadline = Unix.gettimeofday () +. 0.1 in
              while Atomic.get t2_done = 0 && Unix.gettimeofday () < deadline do
                Domain.cpu_relax ()
              done;
              check ci "T2 could not commit inside T1's window" 0
                (Atomic.get t2_done);
              ignore (Stm.restart txn)
            end))
  in
  let d2 =
    Domain.spawn (fun () ->
        await t1_applied 1;
        Stm.atomically ~config (fun txn -> ignore (S.P_hashmap.put m txn 7 200));
        signal t2_done)
  in
  Domain.join d1;
  Domain.join d2;
  (* T1 retried (second attempt commits 100 before or after T2's 200 —
     either serialization is fine); nothing is lost. *)
  check cb "some committed value survives" true
    (Proust_concurrent.Chashmap.get (S.P_hashmap.backing m) 7 <> None)

(* The dirty read of an aborting writer under Eager_lazy: T1 reads the
   slot tvar, T2 locks it and mutates the base, T1 reads T2's value
   from the base, T2 aborts and its inverse restores the base.  Reads
   are invisible, so only T1's commit validation can catch the window:
   T2's abort must release the slot at a fresh version (TinySTM's
   write-through rule), or T1 commits an update derived from a value
   that never committed. *)
let test_eager_lazy_dirty_read () =
  let config = eager_cfg in
  let backing = Proust_concurrent.Chashmap.create () in
  ignore (Proust_concurrent.Chashmap.put backing 7 10);
  let t1_slot_read = gate () and t2_mutated = gate () in
  let t1_base_read = gate () and t2_aborted = gate () in
  let first_get = Atomic.make true in
  let base =
    {
      S.Eager_map.bget =
        (fun k ->
          (* Between T1's slot read and its base read, let T2 in. *)
          if Atomic.exchange first_get false then begin
            signal t1_slot_read;
            await t2_mutated 1
          end;
          Proust_concurrent.Chashmap.get backing k);
      bput = Proust_concurrent.Chashmap.put backing;
      bremove = Proust_concurrent.Chashmap.remove backing;
      bcontains = Proust_concurrent.Chashmap.contains backing;
    }
  in
  let ca = Proust_core.Conflict_abstraction.striped ~slots:64 () in
  let m =
    S.Eager_map.make ~base ~lap:(S.Trait.make_lap S.Trait.Optimistic ~ca) ()
  in
  let d1 =
    Domain.spawn (fun () ->
        Stm.atomically ~config (fun txn ->
            let v = Option.get (S.Eager_map.get m txn 7) in
            signal t1_base_read;
            await t2_aborted 1;
            ignore (S.Eager_map.put m txn 7 (v + 1))))
  in
  let d2 =
    Domain.spawn (fun () ->
        await t1_slot_read 1;
        let tries = ref 0 in
        Stm.atomically ~config (fun txn ->
            incr tries;
            if !tries = 1 then begin
              ignore (S.Eager_map.put m txn 7 99);
              signal t2_mutated;
              await t1_base_read 1;
              ignore (Stm.restart txn)
            end);
        signal t2_aborted)
  in
  Domain.join d1;
  Domain.join d2;
  check copt_i "T1's increment reads the committed 10, not T2's 99"
    (Some 11)
    (Proust_concurrent.Chashmap.get backing 7)

(* ------------------------------------------------------------------ *)
(* Atomicity of the scheduled conflict under every compatible pairing. *)

let scheduled_atomicity name ?config (make : unit -> (int, int) S.Trait.Map.ops)
    () =
  (* T1 reads k then writes k after T2 commits a write to k; a sound
     pairing must serialize them (T1 aborts and retries, or blocks). *)
  let ops = make () in
  ignore (Stm.atomically ?config (fun txn -> ops.S.Trait.Map.put txn 1 10));
  let t1_read = gate () and t2_done = gate () in
  let d1 =
    Domain.spawn (fun () ->
        Stm.atomically ?config (fun txn ->
            let v = Option.get (ops.S.Trait.Map.get txn 1) in
            if Atomic.get t1_read = 0 then begin
              signal t1_read;
              let deadline = Unix.gettimeofday () +. 0.5 in
              while Atomic.get t2_done = 0 && Unix.gettimeofday () < deadline do
                Domain.cpu_relax ()
              done
            end;
            (* increment based on the value read *)
            ignore (ops.S.Trait.Map.put txn 1 (v + 1))))
  in
  let d2 =
    Domain.spawn (fun () ->
        await t1_read 1;
        Stm.atomically ?config (fun txn ->
            let v = Option.get (ops.S.Trait.Map.get txn 1) in
            ignore (ops.S.Trait.Map.put txn 1 (v + 100)));
        signal t2_done)
  in
  Domain.join d1;
  Domain.join d2;
  let final =
    Stm.atomically ?config (fun txn -> Option.get (ops.S.Trait.Map.get txn 1))
  in
  check ci (name ^ ": both increments applied exactly once") 111 final

(* With a pessimistic LAP, T2 blocks on T1's read lock until T1's
   deadline machinery lets the pair resolve; with optimistic LAPs T1's
   validation catches T2's commit.  Either way 10+1+100. *)
let atomicity_cases =
  [
    ( "lazy-memo / lazy-lazy",
      None,
      fun () -> S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ()) );
    ( "lazy-snap / serial-commit",
      Some { (Stm.get_default_config ()) with Stm.mode = Stm.Serial_commit },
      fun () -> S.P_lazy_triemap.ops (S.P_lazy_triemap.make ()) );
    ( "eager-opt / eager-lazy",
      Some eager_cfg,
      fun () -> S.P_hashmap.ops (S.P_hashmap.make ()) );
    ( "eager-opt / eager-eager",
      Some eager_eager_cfg,
      fun () -> S.P_hashmap.ops (S.P_hashmap.make ()) );
    ( "eager-pess / lazy-lazy",
      None,
      fun () -> S.P_hashmap.ops (S.P_hashmap.make ~lap:S.Trait.Pessimistic ())
    );
    ( "lazy-pess / lazy-lazy",
      None,
      fun () ->
        S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ~lap:S.Trait.Pessimistic ())
    );
    ( "predication / lazy-lazy",
      None,
      fun () ->
        Proust_baselines.Predication_map.ops (Proust_baselines.Predication_map.make ())
    );
    (* Update transactions under the MVCC mode still validate their
       read sets at commit — snapshots only exempt read-only txns. *)
    ( "lazy-memo / multi-version",
      Some mvcc_cfg,
      fun () -> S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ()) );
    ( "eager-pess / multi-version",
      Some mvcc_cfg,
      fun () -> S.P_hashmap.ops (S.P_hashmap.make ~lap:S.Trait.Pessimistic ())
    );
  ]

(* ------------------------------------------------------------------ *)
(* Remote abort: the timestamp contention manager kills the younger
   lock holder so the older transaction can proceed.                   *)

let test_remote_abort_by_elder () =
  let config =
    { (Stm.get_default_config ()) with Stm.mode = Stm.Eager_lazy; cm = Contention.timestamp () }
  in
  let tv = Tvar.make 0 in
  let young_holding = gate () and old_done = gate () in
  let young_attempts = ref 0 in
  (* The elder transaction starts first (smaller birth/id). *)
  let elder =
    Domain.spawn (fun () ->
        Stm.atomically ~config (fun txn ->
            await young_holding 1;
            (* conflicting write: arbitration kills the younger holder *)
            Stm.write txn tv 1);
        signal old_done)
  in
  Unix.sleepf 0.05;
  let young =
    Domain.spawn (fun () ->
        Stm.atomically ~config (fun txn ->
            incr young_attempts;
            Stm.write txn tv 2;
            if !young_attempts = 1 then begin
              signal young_holding;
              (* Spin inside the transaction; the remote abort surfaces
                 at the next STM operation. *)
              let rec wait_for_kill n =
                ignore (Stm.read txn tv);
                if Atomic.get old_done = 0 && n < 2_000_000 then begin
                  Domain.cpu_relax ();
                  wait_for_kill (n + 1)
                end
              in
              wait_for_kill 0
            end))
  in
  Domain.join elder;
  Domain.join young;
  check cb "young was killed and retried" true (!young_attempts >= 2);
  check cb "remote aborts recorded" true
    ((Stats.read ()).Stats.remote_aborts >= 1)

let suite =
  [
    slow "empty quarter: anomaly demonstrated" test_empty_quarter_anomaly;
    slow "eager mode prevents the anomaly" test_eager_mode_prevents_anomaly;
    slow "remote abort by elder (timestamp CM)" test_remote_abort_by_elder;
  ]
  @ List.map
      (fun (name, config, make) ->
        slow ("atomicity: " ^ name) (scheduled_atomicity name ?config make))
      atomicity_cases
  @ [
      slow "eager-lazy: an aborted writer's dirty read fails validation"
        test_eager_lazy_dirty_read;
    ]
