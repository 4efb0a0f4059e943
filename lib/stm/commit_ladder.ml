(* The attempt driver: commit/abort execution, the serial-irrevocable
   quiesce protocol, and the starvation-proof escalation ladder that
   [Stm.atomically], [Stm.read_only] and [Stm.atomic] run root
   transactions through. *)

open Txn_state

let run_hooks = Publisher.run_hooks

(* TinySTM's write-through rule.  An attempt that ran inverses mutated
   shared state in place under its encounter-time locks, and under
   invisible reads a concurrent reader may have seen those mutations
   between our lock and our inverse.  Releasing the locks at their old
   versions would let that reader validate; one clock tick stamped on
   every held tvar (value unchanged) makes it fail instead.  Attempts
   without inverses mutated nothing in place and keep their versions. *)
let restamp_locks t ~ran_inverses =
  if ran_inverses && t.proto.p_write_through && t.locked <> [] then begin
    let version = Clock.tick Clock.global in
    List.iter
      (fun (Locked tv) -> Tvar.publish tv (Tvar.peek tv) ~version)
      t.locked
  end

let do_abort t reason =
  ignore (Txn_desc.try_abort t.tdesc);
  Stats.record_abort ();
  (match reason with
  | Conflict -> Stats.record_conflict ()
  | Killed -> Stats.record_killed_abort ()
  | Explicit -> Stats.record_explicit_abort ()
  | Timed_out ->
      (* The per-attempt abort is counted above; the episode-level
         [timeouts] counter is bumped once by [Stm.atomic] when the
         whole episode resolves to [Timed_out]. *)
      ());
  obs_abort t reason;
  (* LIFO: inverses registered after an operation run before the
     abstract-lock releases registered when the lock was acquired. *)
  let hooks = t.abort_hooks in
  t.abort_hooks <- [];
  t.finished <- true;
  let ran_inverses = hooks <> [] in
  (* The locks are released even when a hook raises. *)
  match run_hooks hooks with
  | () ->
      restamp_locks t ~ran_inverses;
      release_locks t
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      restamp_locks t ~ran_inverses;
      release_locks t;
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Serial-irrevocable quiescing                                         *)

(* [quiesce] holds the token of the transaction currently running in
   serial-irrevocable fallback mode (0 = none).  While it is set, every
   other *writing* commit aborts itself instead of proceeding, so
   nothing can invalidate the fallback transaction's reads or contend
   for its write set; [writers_in_flight] lets the fallback drain the
   writers that passed the check before the token appeared.

   Ordering argument (OCaml atomics are SC): a writer increments
   [writers_in_flight] *before* loading [quiesce]; the fallback sets
   [quiesce] *before* loading [writers_in_flight].  If the writer's
   load saw 0 then its increment precedes the fallback's load, so the
   fallback waits for it; otherwise the writer aborts.  Encounter-time
   locks check the token too (Protocol.lock_for_write): a writer that
   locks after the fallback read a tvar could only abort later, and
   under write-through its abort would restamp that tvar and fail the
   fallback's validation. *)
let writers_in_flight = Atomic.make 0
let fallback_token = Atomic.make 1

let enter_writer_commit t =
  Atomic.incr writers_in_flight;
  if Atomic.get quiesce <> 0 && not t.tdesc.Txn_desc.irrevocable then begin
    Atomic.decr writers_in_flight;
    raise (Abort_exn Conflict)
  end

let exit_writer_commit () = Atomic.decr writers_in_flight

let acquire_quiesce ~backoff =
  let token = Atomic.fetch_and_add fallback_token 1 in
  while not (Atomic.compare_and_set quiesce 0 token) do
    Stats.record_lock_wait ();
    obs_wait ~txn:0 ~held_by:(Atomic.get quiesce) backoff
  done;
  while Atomic.get writers_in_flight > 0 do
    Domain.cpu_relax ()
  done;
  token

let release_quiesce token = ignore (Atomic.compare_and_set quiesce token 0)

(* ------------------------------------------------------------------ *)
(* Commit                                                               *)

(* Wake [retry] waiters parked on tvars this commit wrote.  Runs after
   the plan is published and every lock and gate is released (a woken
   domain re-reads immediately; waking under the locks would only
   convoy it), which still satisfies the no-lost-wakeup order: publish
   strictly precedes the wait-list detach (see Parking).  The fast
   path — nobody parked anywhere — is one atomic load.

   [Commit_wake] is the broken-waker chaos point: a [Kill]/[Crash]
   draw drops the wakeup entirely (safety is untouched — the commit is
   already published — but liveness now rests on waiter deadlines),
   which is the bug class the lost-wakeup regression suite must
   catch. *)
let wake_written t =
  if Parking.have_waiters () then begin
    match Fault.check Fault.Commit_wake with
    | Some (Fault.Kill | Fault.Crash) -> ()
    | draw ->
        (match draw with
        | Some (Fault.Delay n) -> Fault.spin n
        | Some (Fault.Abort | Fault.Wedge) -> Fault.spin 64
        | _ -> ());
        Rwset.Wlog.plan_iter_tv t.wset Parking.wake_tvar
  end

(* Acquisition, validation, linearization and publication live in the
   publication layer (inline, or flat-combining group commit under the
   serial gate); what comes back is the owner-side tail: the wake
   scan, the after-commit hooks, the durable flush waits, and any
   captured locked-phase hook failure — earliest failure wins and
   re-raises once hygiene is restored. *)
let publish_and_finish t ~has_writes =
  let d = Publisher.publish t ~has_writes in
  if d.Publisher.pd_wrote then wake_written t;
  let failure = ref d.Publisher.pd_failure in
  (match run_hooks d.Publisher.pd_after with
  | () -> ()
  | exception e -> if !failure = None then failure := Some e);
  (match run_hooks d.Publisher.pd_waits with
  | () -> ()
  | exception e -> if !failure = None then failure := Some e);
  match !failure with None -> () | Some e -> raise e

let do_commit t =
  check_alive t;
  chaos_point t Fault.Pre_commit;
  let has_writes = not (Rwset.Wlog.is_empty t.wset) in
  (* Phase 0: writing commits announce themselves so a concurrent
     serial-irrevocable fallback can drain or turn them away; this must
     precede any clock tick so that once the fallback has quiesced, no
     other transaction can advance the clock.  Grouped publications
     keep [writers_in_flight] held while parked on the publication
     list — the quiesce drain waits for them, and they always make
     progress (the combiner serves them, or they elect themselves). *)
  if has_writes then begin
    Rwset.Wlog.build_plan t.wset;
    enter_writer_commit t
  end;
  (* The announcement is withdrawn on every exit.  A [match] rather
     than [Fun.protect], which would allocate two closures per commit. *)
  match publish_and_finish t ~has_writes with
  | () -> if has_writes then exit_writer_commit ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      if has_writes then exit_writer_commit ();
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* The escalation ladder                                                *)

(* Starvation-proof commit.  Attempt [n] of an episode runs on one rung,
   picked from [cfg], [n] and whether the episode is read-only:

   - [Snapshot]: every attempt of a read-only episode (see the
     snapshot-adoption argument at [attempt]);
   - [Optimistic]: attempts [1 .. abort_budget], plain optimistic
     retries;
   - [Boosted]: attempts (abort_budget ..]: each retry additionally
     boosts the descriptor's priority, so karma-style contention
     managers start killing our adversaries, and the first attempt's
     birth timestamp is retained so age-based managers rank us as the
     elder;
   - [Irrevocable]: attempts (fallback_after ..] (when
     [serial_fallback]): take the global quiesce token, drain in-flight
     writing commits and re-run irrevocably — no remote kill,
     contention-manager defeat or injected fault can abort the attempt,
     so it commits and [Too_many_attempts] is unreachable under the
     default config. *)
type rung = Snapshot | Optimistic | Boosted | Irrevocable

let rung_of cfg ~ro n =
  if ro then Snapshot
  else if cfg.serial_fallback && n > cfg.fallback_after then Irrevocable
  else if n > cfg.abort_budget then Boosted
  else Optimistic

let priority_boost = 1_000

(* QoS episode failures, raised between attempts (never mid-attempt —
   mid-attempt deadline hits surface as [Abort_exn Timed_out], unwind
   through the ordinary abort path, and are converted here at the next
   attempt boundary).  [Stm.atomic] translates both into outcomes. *)
exception Deadline_exceeded = Txn_state.Deadline_exceeded
exception Out_of_budget

(* Attempt-boundary gate: fail the episode before sinking work into an
   attempt it can no longer afford. *)
let check_episode cfg ~deadline_ns ~attempt_budget n =
  if n > cfg.max_attempts then raise (Too_many_attempts n);
  if attempt_budget > 0 && n > attempt_budget then raise Out_of_budget;
  if deadline_ns <> 0 && Clock.now_mono_ns () >= deadline_ns then
    raise Deadline_exceeded

(* The irrevocable rung holds the quiesce token across its retries; it
   goes back when the episode ends or parks. *)
let take_token ep =
  ep.ep_token <- acquire_quiesce ~backoff:ep.ep_backoff;
  Stats.record_fallback ();
  obs_fallback ~token:ep.ep_token

let hand_back_token ep =
  let token = ep.ep_token in
  if token <> 0 then begin
    ep.ep_token <- 0;
    release_quiesce token;
    if leak_audit_enabled () && Atomic.get quiesce = token then
      raise (Lock_leak "quiesce token survived its fallback episode")
  end

(* End a committed attempt: audit external resources while the logs
   still exist, then scrub the record for the pool. *)
let finish_attempt t =
  Domain.DLS.set current_txn None;
  maybe_audit t;
  retire t

(* Abort and end an attempt.  A raising abort hook still has the locks
   released (by [do_abort]) and the record scrubbed before its exception
   escapes the episode. *)
let abort_and_scrub t reason =
  Domain.DLS.set current_txn None;
  match do_abort t reason with
  | () ->
      maybe_audit t;
      retire t
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      maybe_audit t;
      retire t;
      Printexc.raise_with_backtrace e bt

(* Exception firewall for non-[Abort_exn] escapes out of [do_commit] (a
   raising commit hook, or chaos surfacing as an arbitrary exception):
   release everything, scrub the record, re-raise.  An attempt that
   already linearized ([t.finished]) must not run abort hooks — its
   effects are published; only the residue is cleaned. *)
let commit_firewall t e bt =
  Domain.DLS.set current_txn None;
  if not t.finished then (try do_abort t Explicit with _ -> ());
  release_locks t;
  maybe_audit t;
  retire t;
  Printexc.raise_with_backtrace e bt

(* Adopt a snapshot timestamp: sample the clock, then drain the serial
   commit gate once (see [attempt]). *)
let settle_rv ~deadline_ns =
  let v = Clock.now Clock.global in
  while not (Protocol.commit_gate_free ()) do
    if deadline_ns <> 0 && Clock.now_mono_ns () >= deadline_ns then
      raise Deadline_exceeded;
    Domain.cpu_relax ()
  done;
  v

(* What the ladder does after an attempt that did not raise.  Every
   other exit — [Retry_no_reads], a user exception, a raising hook —
   propagates out of [attempt] with the record already scrubbed. *)
type 'a outcome =
  | Committed of 'a
  | Back_off  (* aborted: back off, then retry *)
  | Park of Parking.watch list
      (* [retry]: park until a watched tvar changes, then retry *)

(* The DLS slot's [Some t]: the pooled record's is built once. *)
let some_txn ep t = match ep.ep_txn with Some _ as s -> s | None -> Some t

(* Run [f] once on [t] and commit.  Each exit sets [current_txn] to
   [None], audits and retires the record exactly once.

   On the [Snapshot] rung, reads dispatch through
   [Protocol.read_only_proto] straight into the version chains: no read
   log, no validation, no locks — and, absent user exceptions or an
   armed watchdog, no aborts, no matter how write-heavy the
   concurrency.  Snapshot adoption is the heart of that abort-free
   guarantee:

   1. Register this domain's snapshot slot with a clock sample BEFORE
      adopting the final timestamp.  A committing writer trims version
      chains after ticking the clock; if its floor scan missed our
      registration, our later sample is >= its commit version, so the
      head it installed already serves our reads — the trimmed tail
      was never ours to need.  If the scan saw us, it kept every
      version at or below our timestamp that we can reach.

   2. Adopt [rv] from a plain clock sample, then drain the serial
      commit gate once.  In-flight lock-mode commits need no global
      wait: a commit at or below [rv] still holds every written
      tvar's version-lock until its publish lands, and [read_ro]
      waits a held lock out before walking that tvar's chain — while
      a commit that takes a lock after our sample ticks strictly
      above [rv] and is invisible to the snapshot either way.
      Serial-gate commits hold no per-tvar locks, but hold the gate
      exclusively from before their tick to after their publish, so
      one free observation of the gate retires every serial commit
      the snapshot could see.  Hence every version <= rv is reachable
      and every read is of a committed, complete state: consistent by
      construction.

   Every exit deregisters the snapshot slot first thing; deregistering
   before [do_commit] is fine, as a read-only commit touches no version
   chain. *)
let attempt ep t f ~rung ~deadline_ns =
  let ro = rung = Snapshot in
  if ro then Snapshots.register (Clock.now Clock.global);
  match
    if ro then t.rv <- settle_rv ~deadline_ns;
    Domain.DLS.set current_txn (some_txn ep t);
    f t
  with
  | result -> (
      if ro then begin
        Snapshots.deregister ();
        Stats.add_ro_snapshot_reads t.ro_reads
      end;
      match do_commit t with
      | () ->
          if ro then Stats.record_ro_commit ();
          finish_attempt t;
          Committed result
      | exception Abort_exn reason ->
          (* Unreachable from snapshot reads; only a remote kill (armed
             watchdog) can land here.  Counted so the abort-free gate
             sees any protocol regression. *)
          if ro then Stats.record_ro_abort ();
          abort_and_scrub t reason;
          Back_off
      | exception e -> commit_firewall t e (Printexc.get_raw_backtrace ()))
  | exception Abort_exn reason ->
      if ro then begin
        Snapshots.deregister ();
        Stats.record_ro_abort ()
      end;
      abort_and_scrub t reason;
      Back_off
  | exception Retry_exn ->
      (* [retry] parks until another transaction changes the read set.
         A retry that read nothing can never be woken — snapshot reads
         record no watch entries at all — so the episode fails typed,
         with pool hygiene restored.  Under the quiesce token no writer
         could wake us either: the ladder hands the token back before
         parking. *)
      if ro then Snapshots.deregister ();
      let watch = read_watch_entries t in
      abort_and_scrub t Explicit;
      if watch = [] then raise Retry_no_reads;
      Park watch
  | exception e ->
      (* A user exception observed in an inconsistent (zombie) state is
         an artifact of late conflict detection, not a real error: abort
         and re-run, as ScalaSTM does (§7).  Irrevocable and snapshot
         reads are consistent by construction, so there a user exception
         is always real: abort and propagate. *)
      let bt = Printexc.get_raw_backtrace () in
      if ro then Snapshots.deregister ();
      let zombie =
        (rung = Optimistic || rung = Boosted) && not (Protocol.reads_valid t)
      in
      abort_and_scrub t Explicit;
      if zombie then Back_off else Printexc.raise_with_backtrace e bt

(* One episode: attempt [n] on its rung, then act on the outcome.  The
   next attempt inherits the descriptor's priority (contention managers
   may have raised it) and, from optimistic rungs, its birth. *)
let rec loop ep cfg proto f ~ro ~deadline_ns ~attempt_budget n ~priority
    ~birth =
  check_episode cfg ~deadline_ns ~attempt_budget n;
  let rung = rung_of cfg ~ro n in
  if rung = Irrevocable && ep.ep_token = 0 then begin
    take_token ep;
    (* The deadline may have passed while the token was busy. *)
    check_episode cfg ~deadline_ns ~attempt_budget n
  end;
  let priority =
    if rung = Boosted then priority + priority_boost else priority
  in
  Stats.record_start ();
  let t =
    attempt_txn ep cfg ~proto ~priority ~birth
      ~irrevocable:(rung = Irrevocable) ~deadline_ns ~ro
  in
  obs_attempt_start t ~n;
  match attempt ep t f ~rung ~deadline_ns with
  | Committed result -> result
  | Back_off ->
      Backoff.once ~until_ns:deadline_ns ep.ep_backoff;
      let d = t.tdesc in
      let birth =
        if rung = Irrevocable || ro then birth else d.Txn_desc.birth
      in
      loop ep cfg proto f ~ro ~deadline_ns ~attempt_budget (n + 1)
        ~priority:d.Txn_desc.priority ~birth
  | Park watch ->
      hand_back_token ep;
      Parking.await ~deadline_ns watch;
      let d = t.tdesc in
      loop ep cfg proto f ~ro ~deadline_ns ~attempt_budget (n + 1)
        ~priority:d.Txn_desc.priority ~birth:d.Txn_desc.birth

let run ~read_only ~deadline_ns ~attempt_budget cfg f =
  let proto =
    if read_only then begin
      (* Arm chain maintenance even if no read-write block selected
         Multi_version yet: snapshots need history to exist. *)
      Snapshots.ensure_armed ();
      Protocol.read_only_proto
    end
    else Protocol.select cfg.mode
  in
  let ep = begin_episode cfg in
  match
    loop ep cfg proto f ~ro:read_only ~deadline_ns ~attempt_budget 1
      ~priority:0 ~birth:(-1)
  with
  | result ->
      end_episode ();
      hand_back_token ep;
      result
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      end_episode ();
      hand_back_token ep;
      Printexc.raise_with_backtrace e bt
