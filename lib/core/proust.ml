type point = {
  lap : Lock_allocator.kind;
  strategy : Update_strategy.t;
}

let all_points =
  [
    { lap = Lock_allocator.Pessimistic; strategy = Update_strategy.Eager };
    { lap = Lock_allocator.Pessimistic; strategy = Update_strategy.Lazy };
    { lap = Lock_allocator.Optimistic; strategy = Update_strategy.Eager };
    { lap = Lock_allocator.Optimistic; strategy = Update_strategy.Lazy };
  ]

let point_name p =
  let lap =
    match p.lap with
    | Lock_allocator.Pessimistic -> "pessimistic"
    | Lock_allocator.Optimistic -> "optimistic"
  in
  Printf.sprintf "%s/%s" lap (Update_strategy.name p.strategy)

let prior_work p =
  match (p.lap, p.strategy) with
  | Lock_allocator.Pessimistic, Update_strategy.Eager ->
      "transactional boosting (Herlihy & Koskinen)"
  | Lock_allocator.Pessimistic, Update_strategy.Lazy ->
      "(novel in Proust)"
  | Lock_allocator.Optimistic, Update_strategy.Eager ->
      "optimistic transactional boosting (Hassan et al.)"
  | Lock_allocator.Optimistic, Update_strategy.Lazy ->
      "transactional predication (Bronson et al.)"

let compatible p (mode : Stm.mode) =
  match (p.lap, p.strategy, mode) with
  (* Pessimistic synchronization does not rely on the STM to detect
     object conflicts at all; opaque under any mode (Theorem 5.1). *)
  | Lock_allocator.Pessimistic, _, _ -> true
  (* Lazy/optimistic is opaque under any mode thanks to the
     write-CA/op/read-CA bracket around each operation (Theorem 5.3). *)
  | Lock_allocator.Optimistic, Update_strategy.Lazy, _ -> true
  (* Eager/optimistic mutates the shared base before commit; it is only
     opaque when the STM surfaces both conflict classes at encounter
     time (Theorem 5.2).  This is the figure's "empty quarter" under a
     fully lazy STM. *)
  | Lock_allocator.Optimistic, Update_strategy.Eager, Stm.Lazy_lazy -> false
  | Lock_allocator.Optimistic, Update_strategy.Eager, Stm.Serial_commit ->
      false
  (* Multi-version snapshots hide in-flight eager mutations from
     read-only transactions but detect object conflicts no earlier than
     lazy/lazy; encounter-time requirements remain unmet. *)
  | Lock_allocator.Optimistic, Update_strategy.Eager, Stm.Multi_version ->
      false
  (* [Eager_lazy] locks writes at encounter time but surfaces
     read–write conflicts only at commit, with invisible reads, so a
     reader can see an aborting writer's base mutation.  Its abort
     releases those locks at a fresh version (TinySTM's write-through
     rule, [Commit_ladder.do_abort]), so that reader fails commit
     validation; test_opacity forces the schedule.  The rule covers
     mutations made under a write intent only: [P_counter.incr]
     mutates under a read of its level slot and still loses updates
     here. *)
  | Lock_allocator.Optimistic, Update_strategy.Eager, Stm.Eager_lazy -> true
  | Lock_allocator.Optimistic, Update_strategy.Eager, Stm.Eager_eager -> true

let verdict p mode =
  if compatible p mode then "opaque"
  else "unsound (needs eager conflict detection)"

let pp_design_space fmt () =
  (* One column per STM mode, driven off [Stm.Mode.all] so new modes
     appear here without touching this table. *)
  let row fmt left mid cells =
    Format.fprintf fmt "%-20s | %-42s" left mid;
    List.iter (fun c -> Format.fprintf fmt " | %-13s" c) cells;
    Format.fprintf fmt "@."
  in
  row fmt "design point" "closest prior work"
    (List.map Stm.mode_name Stm.Mode.all);
  Format.fprintf fmt "%s@."
    (String.make (66 + (16 * List.length Stm.Mode.all)) '-');
  List.iter
    (fun p ->
      let cell mode = if compatible p mode then "opaque" else "UNSOUND" in
      row fmt (point_name p) (prior_work p) (List.map cell Stm.Mode.all))
    all_points
