(** Every registry entry under every STM mode its trait header admits
    ([Trait.mode_ok], Theorem 5.2).  The benches and perfbench select
    structures by registry key, so each (entry, mode) cell they may run
    is checked here against its trait's contract: the sequential
    semantics with an attempt rolled back by [Stm.restart], and
    conservation under concurrent transactions.  The trait checks are
    the ones the [structures] and [extensions] suites run on
    hand-built instances, applied to what the registry builds. *)

open Util
module S = Proust_structures
module W = Proust_workload

let counter_sequential (ops : S.Trait.Counter.ops) config () =
  let at f = Stm.atomically ?config f in
  check cb "decr at 0 fails" false (at (fun txn -> ops.decr txn));
  at (fun txn -> ops.incr txn);
  at (fun txn -> ops.incr txn);
  check ci "value" 2 (at (fun txn -> ops.value txn));
  check cb "decr ok" true (at (fun txn -> ops.decr txn));
  at (fun txn ->
      ops.incr txn;
      check ci "sees own incr" 2 (ops.value txn));
  let tries = ref 0 in
  at (fun txn ->
      incr tries;
      if !tries = 1 then begin
        ops.incr txn;
        ignore (ops.decr txn);
        ignore (ops.decr txn);
        ignore (ops.decr txn);
        ignore (Stm.restart txn)
      end);
  check ci "value restored" 2 (at (fun txn -> ops.value txn))

let counter_concurrent (ops : S.Trait.Counter.ops) config () =
  let good_decr = Atomic.make 0 in
  spawn_all 4 (fun d ->
      for i = 0 to 199 do
        if (d + i) land 1 = 0 then Stm.atomically ?config (fun txn -> ops.incr txn)
        else if Stm.atomically ?config (fun txn -> ops.decr txn) then
          Atomic.incr good_decr
      done);
  check ci "conserved"
    (400 - Atomic.get good_decr)
    (Stm.atomically ?config (fun txn -> ops.value txn))

(* Each check gets a fresh instance: [make] builds one per call. *)
let checks (target : W.Registry.target) =
  let module T = Test_structures in
  let module X = Test_extensions in
  let run make fs config () = List.iter (fun f -> f (make ()) config ()) fs in
  match target with
  | W.Registry.Map make ->
      ( run make
          [ T.map_semantics; T.map_own_txn_visibility; T.map_abort_rollback ],
        run make [ T.map_concurrent_transfers ] )
  | W.Registry.Queue make ->
      (run make [ X.fifo_semantics; X.fifo_abort ], run make [ X.fifo_conservation ])
  | W.Registry.Pqueue make ->
      ( run make
          [ T.pqueue_semantics; T.pqueue_same_txn; T.pqueue_abort_rollback ],
        run make [ T.pqueue_concurrent ] )
  | W.Registry.Counter make ->
      (run make [ counter_sequential ], run make [ counter_concurrent ])

(* The concurrent cells of the encounter-time entries under [Eager_lazy]
   run after every other cell, so the cells listed before them keep
   their indices.  They were held back while an aborting writer's
   in-place mutation could be read under invisible reads; the
   write-through restamp in [Commit_ladder.do_abort] closed that for
   mutations made under a write intent.  The counter's cell stays out:
   below the threshold [P_counter.incr] mutates the base under a
   {e read} of its level slot, which no lock guards, so a concurrent
   [decr] can consume an increment whose transaction then aborts
   ("conserved" over by one in 1 of 40 solo runs with the restamp). *)
let deferred (e : W.Registry.entry) mode =
  e.W.Registry.meta.S.Trait.mode_req = S.Trait.Encounter_time
  && mode = Stm.Eager_lazy

let write_guarded (e : W.Registry.entry) =
  match e.W.Registry.target with W.Registry.Counter _ -> false | _ -> true

(* [Registry.under] reads Figure 1's one table: an entry keeps a
   requested mode exactly when [Proust.compatible] calls its (LAP,
   strategy) point opaque, and runs under eager-lazy otherwise. *)
let test_under () =
  let module P = Proust_core.Proust in
  List.iter
    (fun (e : W.Registry.entry) ->
      let meta = e.W.Registry.meta in
      let point =
        {
          P.lap =
            (if meta.S.Trait.pessimistic then Proust_core.Lock_allocator.Pessimistic
             else Proust_core.Lock_allocator.Optimistic);
          strategy = meta.S.Trait.strategy;
        }
      in
      List.iter
        (fun mode ->
          let expected = if P.compatible point mode then mode else Stm.Eager_lazy in
          let got = Option.get (W.Registry.under e mode).W.Registry.config in
          check cs
            (Printf.sprintf "%s under %s" e.W.Registry.name (Stm.mode_name mode))
            (Stm.mode_name expected) (Stm.mode_name got.Stm.mode))
        Stm.Mode.all)
    (W.Registry.all ())

let cells ~tail =
  List.concat_map
    (fun (e : W.Registry.entry) ->
      let sequential, concurrent = checks e.W.Registry.target in
      List.concat_map
        (fun (mode_name, config) ->
          let mode = config.Stm.mode in
          if S.Trait.mode_ok e.W.Registry.meta.S.Trait.mode_req mode then
            let name = Printf.sprintf "%s under %s" e.W.Registry.name mode_name in
            let concurrent =
              slow (name ^ ": concurrent") (fun () ->
                  with_seed_note (concurrent (Some config)))
            in
            if tail then
              if deferred e mode && write_guarded e then [ concurrent ] else []
            else
              test (name ^ ": sequential") (sequential (Some config))
              :: (if deferred e mode then [] else [ concurrent ])
          else [])
        all_modes)
    (W.Registry.all ())

let suite =
  (test "under keeps a mode exactly where Figure 1 admits it" test_under
  :: cells ~tail:false)
  @ cells ~tail:true
