(* Trace tap shared by both log flavours: replay runs inside the commit
   locked phase, so the transaction id is not in scope — 0 marks the
   event as structural rather than attributable.  Callers test
   [tracing] first, so counting the ops costs nothing with tracing off. *)
let tracing () = Proust_obs.Gate.get () land Proust_obs.Gate.trace_bit <> 0

let obs_replay ops =
  Proust_obs.Trace.emit
    ~tick:(Clock.now Clock.global)
    ~txn:0
    (Proust_obs.Trace.Replay_apply { ops })

(* Cross-transaction log combining (both modules below): when a replay
   finds itself running inside a combiner drain ([Stm.Combine.session]
   returns the drain's generation), it does not touch the base
   structure at all.  Instead it folds its net effect into a [shared]
   accumulator attached to the structure and registers — once per
   session — a flush with [Stm.Combine.defer_flush].  The combiner runs
   the flush after draining every entry and before releasing the serial
   gate, so one base pass publishes the whole batch's effects in
   linearization order.

   Soundness leans on the gate and on STM validation, not on the
   structure: the shared accumulator is only ever touched gate-held
   (replay hooks run in the commit locked phase, and a combine session
   exists only while the combiner owns the gate), and an
   acked-but-unflushed effect is invisible to later transactions
   because every conflict-abstraction stripe the effect covered was
   published with a version above any gate-free read snapshot — a later
   reader of the same stripe aborts at read or validation time before
   it could observe the stale base.  That argument needs the validated
   optimistic LAP; wrappers over pessimistic (or unvalidated) LAPs must
   not pass [shared] (see e.g. {!Memo_map.make}). *)

module Memo = struct
  type ('k, 'v) base = {
    base_get : 'k -> 'v option;
    base_put : 'k -> 'v -> unit;
    base_remove : 'k -> unit;
  }

  type ('k, 'v) op = Put of 'k * 'v | Remove of 'k

  (* Net effect on one key accumulated across a combine session:
     [p_rem] — some transaction removed the key before the (current)
     final binding was written, so the flush must replay the removal
     even when a binding follows; [p_put] — the last-write-wins final
     binding, [None] when the key ends the session absent. *)
  type 'v pending = { mutable p_rem : bool; mutable p_put : 'v option }

  type ('k, 'v) shared = {
    mutable sh_gen : int;  (* combine session the pending set belongs to *)
    sh_pending : ('k, 'v pending) Hashtbl.t;
  }

  let make_shared () = { sh_gen = 0; sh_pending = Hashtbl.create 32 }

  type ('k, 'v) t = {
    base : ('k, 'v) base;
    combine : bool;
    shared : ('k, 'v) shared option;
    (* Transaction-local view: for every key consulted or written, the
       value this transaction would observe.  Doubles as the synthetic
       final state when [combine] is set. *)
    view : ('k, 'v option) Hashtbl.t;
    (* Dirty keys, flagged [true] when a remove preceded the key's
       final put in this transaction — combined replay must then
       replay [base_remove; base_put] instead of an overwrite, for
       bases where removal is not subsumed by insertion. *)
    dirty : ('k, bool) Hashtbl.t;
    mutable ops : ('k, 'v) op list;  (* newest first *)
    mutable op_count : int;
    mutable registered : bool;
  }

  let create ?(combine = true) ?shared ~base _txn =
    {
      base;
      combine;
      shared = (if combine then shared else None);
      view = Hashtbl.create 16;
      dirty = Hashtbl.create 16;
      ops = [];
      op_count = 0;
      registered = false;
    }

  let get t k =
    match Hashtbl.find_opt t.view k with
    | Some v -> v
    | None ->
        let v = t.base.base_get k in
        Hashtbl.replace t.view k v;
        v

  (* Apply one dirty key's final state straight to the base. *)
  let apply_key t k rem_before_put =
    match Hashtbl.find_opt t.view k with
    | Some (Some v) ->
        if rem_before_put then t.base.base_remove k;
        t.base.base_put k v
    | Some None -> t.base.base_remove k
    | None -> ()

  let flush_shared t sh () =
    Hashtbl.iter
      (fun k p ->
        if p.p_rem then t.base.base_remove k;
        Option.iter (t.base.base_put k) p.p_put)
      sh.sh_pending;
    Hashtbl.reset sh.sh_pending

  (* Compose this transaction's per-key finals onto the session's
     pending set.  Last write wins on the binding; [p_rem] is sticky —
     once any transaction in the session removed the key, the flush
     replays the removal before whatever binding ends the session. *)
  let merge_into t sh =
    Hashtbl.iter
      (fun k rem_before_put ->
        let p =
          match Hashtbl.find_opt sh.sh_pending k with
          | Some p -> p
          | None ->
              let p = { p_rem = false; p_put = None } in
              Hashtbl.add sh.sh_pending k p;
              p
        in
        match Hashtbl.find_opt t.view k with
        | Some (Some v) ->
            p.p_put <- Some v;
            p.p_rem <- p.p_rem || rem_before_put
        | Some None ->
            p.p_rem <- true;
            p.p_put <- None
        | None -> ())
      t.dirty

  let replay t () =
    (* Chaos hook: replay runs post-linearization, so only delays. *)
    Fault.delay_only Fault.Replay_apply;
    if tracing () then
      obs_replay (if t.combine then Hashtbl.length t.dirty else t.op_count);
    let merged =
      match t.shared with
      | Some sh -> (
          match Stm.Combine.session () with
          | Some gen ->
              if sh.sh_gen <> gen then begin
                sh.sh_gen <- gen;
                (* Defensive: a failed flush may have left residue. *)
                Hashtbl.reset sh.sh_pending;
                Stm.Combine.defer_flush (flush_shared t sh)
              end;
              merge_into t sh;
              true
          | None -> false)
      | None -> false
    in
    if not merged then
      if t.combine then Hashtbl.iter (apply_key t) t.dirty
      else
        List.iter
          (function
            | Put (k, v) -> t.base.base_put k v
            | Remove k -> t.base.base_remove k)
          (List.rev t.ops)

  let ensure_registered t txn =
    if not t.registered then begin
      t.registered <- true;
      Stm.on_commit_locked txn (replay t)
    end

  let log t txn op =
    ensure_registered t txn;
    if not t.combine then begin
      t.ops <- op :: t.ops;
      t.op_count <- t.op_count + 1
    end

  let put t txn k v =
    let old = get t k in
    Hashtbl.replace t.view k (Some v);
    (* Preserve an existing remove-before-put flag; first touch is a
       plain overwrite. *)
    if not (Hashtbl.mem t.dirty k) then Hashtbl.replace t.dirty k false;
    log t txn (Put (k, v));
    old

  let remove t txn k =
    let old = get t k in
    if old <> None then begin
      Hashtbl.replace t.view k None;
      Hashtbl.replace t.dirty k true;
      log t txn (Remove k)
    end;
    old

  let size_delta t =
    Hashtbl.fold
      (fun k _flag acc ->
        let now = Option.join (Hashtbl.find_opt t.view k) in
        let before = t.base.base_get k in
        match (before, now) with
        | None, Some _ -> acc + 1
        | Some _, None -> acc - 1
        | _ -> acc)
      t.dirty 0

  let pending_ops t =
    if t.combine then Hashtbl.length t.dirty else t.op_count
end

module Snapshot = struct
  (* One logged operation: the pure state step itself, its result type
     hidden.  Unboxed, so logging a step allocates only its list cell. *)
  type 's step = Step : ('s -> 's * _) -> 's step [@@unboxed]

  (* [steps] lists are newest first; both folds recurse before applying,
     so the oldest step runs first. *)
  let rec fold_steps steps s =
    match steps with [] -> s | Step f :: older -> fst (f (fold_steps older s))

  let rec replay_steps root = function
    | [] -> ()
    | Step f :: older ->
        replay_steps root older;
        ignore (Proust_concurrent.Root.update root f)

  (* Steps of every fully-mergeable entry drained so far in the current
     combine session, newest first. *)
  type 's shared = { mutable sn_gen : int; mutable sn_steps : 's step list }

  let make_shared () = { sn_gen = 0; sn_steps = [] }

  type 's t = {
    root : 's Atomic.t;
    shared : 's shared option;
    (* Meaningful once [steps] is non-empty: the state the shadow grew
       from, and that state plus every logged step. *)
    mutable base_snapshot : 's;
    mutable shadow : 's;
    mutable steps : 's step list;  (* newest first *)
    mutable all_merge : bool;  (* every logged step was marked [merge] *)
    mutable registered : bool;
  }

  let create ~root ?shared _txn =
    let s = Atomic.get root in
    {
      root;
      shared;
      base_snapshot = s;
      shadow = s;
      steps = [];
      all_merge = true;
      registered = false;
    }

  (* Rebase the shadow when the root has moved since it was taken.  A
     shadow taken at an earlier operation can miss a commit that was
     still replaying then and has since published the stripe this
     operation just read at a version the transaction accepts; reading
     it from the stale shadow would lose that commit.  The rebased
     shadow is the current root plus this transaction's own steps. *)
  let refresh t =
    let r = Atomic.get t.root in
    if r != t.base_snapshot then begin
      t.base_snapshot <- r;
      t.shadow <- fold_steps t.steps r
    end

  let read_only t ~shadow ~direct =
    if t.steps == [] then direct ()
    else begin
      refresh t;
      shadow t.shadow
    end

  (* An entry can join the session merge only when every one of its
     steps was marked [merge]: one state-dependent step (a dequeue, say)
     pins the whole entry to the direct path, because its return value
     was computed against this transaction's own shadow and cannot be
     recomputed on the batch state. *)
  let mergeable t = t.all_merge && t.steps != []

  (* Under the serial gate no other committer mutates the base, so the
     root update is one iteration in practice. *)
  let flush_shared root sh () =
    match sh.sn_steps with
    | [] -> ()
    | steps ->
        sh.sn_steps <- [];
        Proust_concurrent.Root.update root (fun s -> (fold_steps steps s, ()))

  (* Commit.  Inside a combiner drain, a fully-mergeable entry parks its
     steps on the session's batch flush.  Otherwise, while the root
     still holds the state the shadow grew from, one CAS installs the
     shadow (log combining, §9 future work); a failed CAS means
     commuting transactions committed in between, so each logged step
     is re-applied on top of their effects.  The trace counts the steps
     re-applied to the base: 0 after an install. *)
  let replay t () =
    Fault.delay_only Fault.Replay_apply;
    let parked =
      match t.shared with
      | Some sh -> (
          match Stm.Combine.session () with
          | Some gen ->
              if mergeable t then begin
                if sh.sn_gen <> gen then begin
                  sh.sn_gen <- gen;
                  sh.sn_steps <- [];
                  Stm.Combine.defer_flush (flush_shared t.root sh)
                end;
                sh.sn_steps <- t.steps @ sh.sn_steps;
                true
              end
              else begin
                (* A non-mergeable entry linearizes after the parked
                   merges of the same session: land them first; if
                   they moved the root, the install below fails and
                   the entry replays its steps on top of them. *)
                if sh.sn_gen = gen then flush_shared t.root sh ();
                false
              end
          | None -> false)
      | None -> false
    in
    let installed =
      (not parked) && Atomic.compare_and_set t.root t.base_snapshot t.shadow
    in
    if not (parked || installed) then replay_steps t.root t.steps;
    if tracing () then obs_replay (if installed then 0 else List.length t.steps)

  let update txn t ?(merge = false) f =
    refresh t;
    let s', z = f t.shadow in
    t.shadow <- s';
    t.steps <- Step f :: t.steps;
    t.all_merge <- t.all_merge && merge;
    if not t.registered then begin
      t.registered <- true;
      Stm.on_commit_locked txn (replay t)
    end;
    z

  let pending_ops t = List.length t.steps
end
