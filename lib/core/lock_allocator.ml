type kind = Optimistic | Pessimistic

type 'k t = {
  kind : kind;
  name : string;
  acquire : Stm.txn -> 'k Intent.t list -> unit;
  acquire_key : Stm.txn -> 'k -> write:bool -> unit;
}

(* Both LAPs are one per-access primitive, [access txn ~slot ~write];
   the intent-list and single-key entries are two ways of reaching it.
   A per-key conflict abstraction lets [acquire_key] go straight to its
   slot, with no intent, access list or closure allocated; any other
   abstraction takes the list path with a one-intent list. *)
let of_access ~kind ~name ~ca access =
  let acquire txn intents =
    let stripe = (Stm.desc txn).Txn_desc.id in
    List.iter
      (fun { Conflict_abstraction.slot; write } -> access txn ~slot ~write)
      (Conflict_abstraction.accesses_for ca ~stripe intents)
  in
  let acquire_key =
    match ca.Conflict_abstraction.slot_of with
    | Some slot_of -> fun txn k ~write -> access txn ~slot:(slot_of k) ~write
    | None ->
        fun txn k ~write ->
          acquire txn [ (if write then Intent.Write k else Intent.Read k) ]
  in
  { kind; name; acquire; acquire_key }

(* -------------------------------------------------------------------- *)
(* Pessimistic: striped re-entrant read/write locks, two-phase.          *)

let pessimistic ?(timeout = 5e-3) ~ca () =
  let locks =
    Array.init ca.Conflict_abstraction.slots (fun _ ->
        Proust_concurrent.Rw_lock.create ())
  in
  (* Let the chaos harness audit this allocator's striped locks.  Only
     registered while auditing is on, so ordinary runs never grow the
     global checker list (each check is O(slots) per finished attempt). *)
  if Stm.leak_audit_enabled () then
    Stm.register_leak_check (fun ~owner ->
        let leaked = ref None in
        Array.iteri
          (fun slot l ->
            if !leaked = None && Proust_concurrent.Rw_lock.holds l ~owner then
              leaked := Some (Printf.sprintf "pessimistic rw-lock slot %d" slot))
          locks;
        !leaked);
  (* Per-transaction set of slot indices acquired, so commit/abort can
     release exactly once.  The key's initializer registers the release
     hooks on first acquisition in each transaction. *)
  let held_key =
    Stm.Local.key (fun txn ->
        let held : (int, unit) Hashtbl.t = Hashtbl.create 8 in
        let owner = (Stm.desc txn).Txn_desc.id in
        let release () =
          Hashtbl.iter
            (fun slot () ->
              Proust_concurrent.Rw_lock.release_all locks.(slot) ~owner)
            held;
          if
            Hashtbl.length held > 0
            && Proust_obs.Gate.get () land Proust_obs.Gate.trace_bit <> 0
          then
            Proust_obs.Trace.emit
              ~tick:(Clock.now Clock.global)
              ~txn:owner Proust_obs.Trace.Alock_release
        in
        Stm.after_commit txn release;
        Stm.on_abort txn release;
        held)
  in
  let access txn ~slot ~write =
    let held = Stm.Local.get txn held_key in
    let owner = (Stm.desc txn).Txn_desc.id in
    (* The acquisition deadline is monotonic ([Rw_lock] polls against
       the same base) and clamped by the episode's own QoS deadline, if
       any: a transaction whose time is nearly up should spend what is
       left of it failing fast, not queueing for its full [timeout]. *)
    let deadline =
      let d = Clock.now_mono () +. timeout in
      match Stm.deadline txn with Some e -> Float.min d e | None -> d
    in
    let lock = locks.(slot) in
    let ok =
      if write then
        Proust_concurrent.Rw_lock.try_acquire_write lock ~owner ~deadline
      else Proust_concurrent.Rw_lock.try_acquire_read lock ~owner ~deadline
    in
    if ok then Hashtbl.replace held slot ()
    else begin
      (* Deadline expired: presume deadlock or livelock, abort and
         retry under backoff (the boosting recipe). *)
      Stats.record_lock_wait ();
      ignore (Stm.restart txn)
    end
  in
  of_access ~kind:Pessimistic ~name:"pessimistic" ~ca access

(* -------------------------------------------------------------------- *)
(* Optimistic: conflict-abstraction slots are STM locations.             *)

(* A write access stores the attempt's descriptor id.  Ids are unique
   per attempt (a retry gets a fresh descriptor), which is all §3's
   "values written are unique" asks: every mode validates reads by
   version, not by value, so the value only has to differ between
   committed writes of different attempts — and no shared counter has
   to be bumped per write. *)
let optimistic ?(validate_writes = true) ~ca () =
  let region =
    Array.init ca.Conflict_abstraction.slots (fun _ -> Tvar.make 0)
  in
  let access txn ~slot ~write =
    let tv = region.(slot) in
    if write then begin
      if validate_writes then ignore (Stm.read txn tv);
      Stm.write txn tv (Stm.desc txn).Txn_desc.id
    end
    else ignore (Stm.read txn tv)
  in
  let name =
    if validate_writes then "optimistic" else "optimistic-unvalidated"
  in
  of_access ~kind:Optimistic ~name ~ca access
