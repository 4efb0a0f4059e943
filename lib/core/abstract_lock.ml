type 'k t = { lap : 'k Lock_allocator.t; strategy : Update_strategy.t }

let make ~lap ~strategy = { lap; strategy }
let strategy t = t.strategy
let lap_kind t = t.lap.Lock_allocator.kind

(* Trace tap: one atomic load when tracing is off. *)
let obs_acquire txn n =
  if Proust_obs.Gate.get () land Proust_obs.Gate.trace_bit <> 0 then
    Proust_obs.Trace.emit
      ~tick:(Clock.now Clock.global)
      ~txn:(Stm.desc txn).Txn_desc.id
      (Proust_obs.Trace.Alock_acquire { intents = n })

let acquire_key t txn k ~write =
  t.lap.Lock_allocator.acquire_key txn k ~write;
  obs_acquire txn 1;
  Stm.chaos_point txn Fault.Abstract_lock_acquire

let apply t txn intents ?inverse f =
  t.lap.Lock_allocator.acquire txn intents;
  obs_acquire txn (List.length intents);
  Stm.chaos_point txn Fault.Abstract_lock_acquire;
  let z = f () in
  (match (t.strategy, inverse) with
  | Update_strategy.Eager, Some inv -> Stm.on_abort txn (fun () -> inv z)
  | Update_strategy.Eager, None -> ()  (* read-only operation *)
  | Update_strategy.Lazy, _ -> ());
  z

let covers acquired intent =
  List.exists
    (fun held ->
      Intent.key held = Intent.key intent
      && (Intent.is_write held || not (Intent.is_write intent)))
    acquired

let acquire_stable t txn compute =
  let rec go acquired =
    let missing =
      List.filter (fun i -> not (covers acquired i)) (compute ())
    in
    if missing <> [] then begin
      t.lap.Lock_allocator.acquire txn missing;
      obs_acquire txn (List.length missing);
      Stm.chaos_point txn Fault.Abstract_lock_acquire;
      go (missing @ acquired)
    end
  in
  go []
