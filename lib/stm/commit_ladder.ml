(* The attempt driver: commit/abort execution, the serial-irrevocable
   quiesce protocol, and the starvation-proof escalation ladder that
   [Stm.atomically] runs root transactions through. *)

open Txn_state

let run_hooks = Publisher.run_hooks

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
  Fun.protect ~finally:(fun () -> release_locks t) (fun () -> run_hooks hooks)

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
   fallback waits for it; otherwise the writer aborts. *)
let quiesce = Atomic.make 0
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
   publication layer (inline or flat-combining group commit, per
   [proto.p_stage]); what comes back is the owner-side tail: the wake
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
(* Retry blocking                                                       *)

(* Block until a watched tvar changes (or the episode deadline
   passes): real parking on the read set's wait lists, or the legacy
   busy-poll under [Parking.Poll].  A retry that read nothing can
   never be woken, which the ladder turns into [Retry_no_reads] before
   reaching here. *)
let wait_for_change ~deadline_ns watch = Parking.await ~deadline_ns watch

(* ------------------------------------------------------------------ *)
(* The escalation ladder                                                *)

(* Starvation-proof commit:

   1. attempts [1 .. abort_budget]: plain optimistic retries;
   2. attempts (abort_budget ..]: each retry additionally boosts the
      descriptor's priority, so karma-style contention managers start
      killing our adversaries, and the first attempt's birth timestamp
      is retained so age-based managers rank us as the elder;
   3. attempts (fallback_after ..] (when [serial_fallback]): take the
      global quiesce token, drain in-flight writing commits and re-run
      irrevocably — no remote kill, contention-manager defeat or
      injected fault can abort the attempt, so it commits and
      [Too_many_attempts] is unreachable under the default config. *)
let priority_boost = 1_000

(* QoS episode failures, raised between attempts (never mid-attempt —
   mid-attempt deadline hits surface as [Abort_exn Timed_out], unwind
   through the ordinary abort path, and are converted here at the next
   attempt boundary).  [Stm.atomic] translates both into outcomes. *)
exception Deadline_exceeded
exception Out_of_budget

let run ?(deadline_ns = 0) ?(attempt_budget = 0) cfg f =
  let proto = Protocol.select cfg.mode in
  let ep = begin_episode cfg in
  Fun.protect ~finally:end_episode @@ fun () ->
  let backoff = ep.ep_backoff in
  (* Attempt-boundary QoS gate: fail the episode before sinking work
     into an attempt it can no longer afford. *)
  let check_episode n =
    if attempt_budget > 0 && n > attempt_budget then raise Out_of_budget;
    if deadline_ns <> 0 && Clock.now_mono_ns () >= deadline_ns then
      raise Deadline_exceeded
  in
  (* End an attempt: audit external resources while the logs still
     exist, then scrub the record for the pool. *)
  let finish_attempt t =
    Domain.DLS.set current_txn None;
    maybe_audit t;
    retire t
  in
  (* Abort an attempt, guarding against abort hooks that raise: the
     locks are already released by [do_abort]'s own protect, but the
     pooled record must still be scrubbed before the hook's exception
     escapes the episode. *)
  let abort_and_scrub t reason =
    match do_abort t reason with
    | () -> ()
    | exception e ->
        maybe_audit t;
        retire t;
        raise e
  in
  (* Exception firewall for non-[Abort_exn] escapes out of [do_commit]
     (a raising commit hook, or chaos surfacing as an arbitrary
     exception): release everything, scrub the record, re-raise.  An
     attempt that already linearized ([t.finished]) must not run abort
     hooks — its effects are published; only the residue is cleaned. *)
  let commit_firewall t e =
    Domain.DLS.set current_txn None;
    if not t.finished then (try do_abort t Explicit with _ -> ());
    release_locks t;
    maybe_audit t;
    retire t;
    raise e
  in
  let rec attempt n ~priority ~birth =
    if n > cfg.max_attempts then raise (Too_many_attempts n);
    check_episode n;
    if cfg.serial_fallback && n > cfg.fallback_after then
      fallback_attempt n ~priority ~birth
    else begin
      let priority =
        if n > cfg.abort_budget then priority + priority_boost else priority
      in
      Stats.record_start ();
      let t = attempt_txn ep cfg ~proto ~priority ?birth ~deadline_ns () in
      obs_attempt_start t ~n;
      let birth = Some t.tdesc.Txn_desc.birth in
      Domain.DLS.set current_txn (Some t);
      let retry_after_abort ?watch reason =
        Domain.DLS.set current_txn None;
        abort_and_scrub t reason;
        let next_priority = t.tdesc.Txn_desc.priority in
        maybe_audit t;
        (match watch with
        | Some ws -> wait_for_change ~deadline_ns ws
        | None -> Backoff.once ~until_ns:deadline_ns backoff);
        retire t;
        attempt (n + 1) ~priority:next_priority ~birth
      in
      match f t with
      | result -> (
          match do_commit t with
          | () ->
              finish_attempt t;
              result
          | exception Abort_exn reason -> retry_after_abort reason
          | exception e -> commit_firewall t e)
      | exception Abort_exn reason -> retry_after_abort reason
      | exception Retry_exn ->
          let watch = read_watch_entries t in
          if watch = [] then begin
            (* An empty read set can never be woken: fail the episode
               with the typed error, with pool hygiene restored. *)
            Domain.DLS.set current_txn None;
            abort_and_scrub t Explicit;
            maybe_audit t;
            retire t;
            raise Retry_no_reads
          end;
          retry_after_abort ~watch Explicit
      | exception e ->
          (* A user exception observed in an inconsistent (zombie) state is
             an artifact of late conflict detection, not a real error:
             abort and re-run, as ScalaSTM does (§7).  In a consistent
             state, abort and propagate. *)
          Domain.DLS.set current_txn None;
          let consistent = Protocol.reads_valid t in
          abort_and_scrub t Explicit;
          let next_priority = t.tdesc.Txn_desc.priority in
          maybe_audit t;
          retire t;
          if consistent then raise e
          else begin
            Backoff.once ~until_ns:deadline_ns backoff;
            attempt (n + 1) ~priority:next_priority ~birth
          end
    end
  and fallback_attempt n ~priority ~birth =
    let token = acquire_quiesce ~backoff in
    Stats.record_fallback ();
    obs_fallback ~token;
    Fun.protect
      ~finally:(fun () ->
        release_quiesce token;
        if leak_audit_enabled () && Atomic.get quiesce = token then
          raise (Lock_leak "quiesce token survived its fallback episode"))
      (fun () ->
        (* Retries inside the episode keep the token: an abort here can
           only come from a bounded abstract-lock timeout against a
           pre-quiesce holder, which must itself drain shortly. *)
        let rec go n ~priority =
          if n > cfg.max_attempts then raise (Too_many_attempts n);
          check_episode n;
          Stats.record_start ();
          let t =
            attempt_txn ep cfg ~proto ~priority ?birth ~irrevocable:true
              ~deadline_ns ()
          in
          obs_attempt_start t ~n;
          Domain.DLS.set current_txn (Some t);
          let retry_irrevocable reason =
            Domain.DLS.set current_txn None;
            abort_and_scrub t reason;
            let next_priority = t.tdesc.Txn_desc.priority in
            maybe_audit t;
            retire t;
            Backoff.once ~until_ns:deadline_ns backoff;
            go (n + 1) ~priority:next_priority
          in
          match f t with
          | result -> (
              match do_commit t with
              | () ->
                  finish_attempt t;
                  result
              | exception Abort_exn reason -> retry_irrevocable reason
              | exception e -> commit_firewall t e)
          | exception Abort_exn reason -> retry_irrevocable reason
          | exception Retry_exn ->
              (* [retry] waits for another transaction to change the
                 read set, which can never happen while we quiesce the
                 writers: hand the token back, park, and re-enter the
                 ladder at the boosted rung. *)
              let watch = read_watch_entries t in
              Domain.DLS.set current_txn None;
              abort_and_scrub t Explicit;
              let next_priority = t.tdesc.Txn_desc.priority in
              let fallback_birth =
                Some (Option.value birth ~default:t.tdesc.Txn_desc.birth)
              in
              maybe_audit t;
              retire t;
              if watch = [] then raise Retry_no_reads;
              release_quiesce token;
              wait_for_change ~deadline_ns watch;
              attempt (n + 1) ~priority:next_priority ~birth:fallback_birth
          | exception e ->
              (* Irrevocable reads are consistent by construction, so a
                 user exception is a real error: abort and propagate. *)
              Domain.DLS.set current_txn None;
              abort_and_scrub t Explicit;
              maybe_audit t;
              retire t;
              raise e
        in
        go n ~priority)
  in
  attempt 1 ~priority:0 ~birth:None

(* ------------------------------------------------------------------ *)
(* The read-only snapshot path (Multi_version)                          *)

(* Run a root read-only transaction against a registered consistent
   snapshot.  Reads dispatch through [Protocol.read_only_proto]
   straight into the version chains: no read log, no validation, no
   locks — and, absent user exceptions or an armed watchdog, no
   aborts, no matter how write-heavy the concurrency.

   Snapshot adoption is the heart of the abort-free guarantee:

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
      construction. *)
let run_read_only ?(deadline_ns = 0) ?(attempt_budget = 0) cfg f =
  (* Arm chain maintenance even if no read-write block selected
     Multi_version yet: snapshots need history to exist. *)
  Snapshots.ensure_armed ();
  let proto = Protocol.read_only_proto in
  let ep = begin_episode cfg in
  Fun.protect ~finally:end_episode @@ fun () ->
  let backoff = ep.ep_backoff in
  let check_episode n =
    if attempt_budget > 0 && n > attempt_budget then raise Out_of_budget;
    if deadline_ns <> 0 && Clock.now_mono_ns () >= deadline_ns then
      raise Deadline_exceeded
  in
  let settle_rv () =
    let v = Clock.now Clock.global in
    while not (Protocol.commit_gate_free ()) do
      if deadline_ns <> 0 && Clock.now_mono_ns () >= deadline_ns then
        raise Deadline_exceeded;
      Domain.cpu_relax ()
    done;
    v
  in
  let finish_attempt t =
    Domain.DLS.set current_txn None;
    maybe_audit t;
    retire t
  in
  let abort_and_scrub t reason =
    Domain.DLS.set current_txn None;
    (match do_abort t reason with
    | () -> ()
    | exception e ->
        maybe_audit t;
        retire t;
        raise e);
    maybe_audit t;
    retire t
  in
  let rec attempt n =
    if n > cfg.max_attempts then raise (Too_many_attempts n);
    check_episode n;
    Stats.record_start ();
    let t = attempt_txn ep cfg ~proto ~priority:0 ~deadline_ns ~ro:true () in
    obs_attempt_start t ~n;
    Snapshots.register (Clock.now Clock.global);
    (* Every branch below deregisters the snapshot slot first thing —
       spelled out instead of a [Fun.protect] to keep the per-attempt
       hot path allocation-free.  Deregistering before [do_commit] is
       fine: a read-only commit touches no version chain. *)
    let outcome =
      match
        t.rv <- settle_rv ();
        Domain.DLS.set current_txn (Some t);
        f t
      with
      | result -> (
          Snapshots.deregister ();
          Stats.add_ro_snapshot_reads t.ro_reads;
          match do_commit t with
          | () ->
              Stats.record_ro_commit ();
              finish_attempt t;
              `Done result
          | exception Abort_exn reason ->
              (* Unreachable from snapshot reads; only a remote kill
                 (armed watchdog) can land here.  Counted so the
                 abort-free gate sees any protocol regression. *)
              Stats.record_ro_abort ();
              abort_and_scrub t reason;
              `Retry
          | exception e ->
              Domain.DLS.set current_txn None;
              if not t.finished then (try do_abort t Explicit with _ -> ());
              release_locks t;
              maybe_audit t;
              retire t;
              raise e)
      | exception Abort_exn reason ->
          Snapshots.deregister ();
          Stats.record_ro_abort ();
          abort_and_scrub t reason;
          `Retry
      | exception Retry_exn ->
          (* Snapshot reads record no watch entries, so a [retry] here
             could never be woken: fail the episode typed, like an
             empty-read-set retry. *)
          Snapshots.deregister ();
          abort_and_scrub t Explicit;
          raise Retry_no_reads
      | exception e ->
          (* Snapshot reads are consistent by construction — there are
             no zombies to forgive; a user exception is a real error. *)
          Snapshots.deregister ();
          abort_and_scrub t Explicit;
          raise e
    in
    match outcome with
    | `Done r -> r
    | `Retry ->
        Backoff.once ~until_ns:deadline_ns backoff;
        attempt (n + 1)
  in
  attempt 1
