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

(* Eager/optimistic entries under [Eager_lazy] are ROADMAP item 1's open
   soundness defect: run solo, "p-counter under eager-lazy" over-counted
   by one in 6 of 160 runs and "eager-opt-hotgate under eager-lazy" lost
   conservation in 1 of 100, as [matrix] "eager/opt under eager-lazy" and
   the [chaos] soak already show.  Those concurrent cells wait for the
   fix; their sequential cells run. *)
let concurrent_sound (e : W.Registry.entry) mode =
  not (e.W.Registry.meta.S.Trait.mode_req = S.Trait.Encounter_time
       && mode = Stm.Eager_lazy)

let suite =
  List.concat_map
    (fun (e : W.Registry.entry) ->
      let sequential, concurrent = checks e.W.Registry.target in
      List.concat_map
        (fun (mode_name, config) ->
          let mode = config.Stm.mode in
          if S.Trait.mode_ok e.W.Registry.meta.S.Trait.mode_req mode then
            let name = Printf.sprintf "%s under %s" e.W.Registry.name mode_name in
            test (name ^ ": sequential") (sequential (Some config))
            ::
            (if concurrent_sound e mode then
               [
                 slow (name ^ ": concurrent") (fun () ->
                     with_seed_note (concurrent (Some config)));
               ]
             else [])
          else [])
        all_modes)
    (W.Registry.all ())
