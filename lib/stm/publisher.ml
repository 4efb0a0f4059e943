(* The publication layer: how a committed intent reaches the shared
   store.

   Layering (see DESIGN.md): Rwset → Txn_state → Protocol → Publisher →
   Commit_ladder → Stm.  The ladder calls {!publish} once per commit
   and receives a [done_t] describing what is left to run owner-side.
   Every commit, on either path below, validates, linearizes and
   publishes through one step, {!linearize}; the paths differ only in
   how the commit lock ([proto.p_commit]) is held and how the write
   version is chosen.

   Inline publication: the committing transaction takes its commit
   lock (its plan's version-locks, or the serial gate), validates,
   ticks, publishes and releases — one transaction, one acquisition.

   Group commit is flat-combining for the [Serial_gate] commit lock.
   All writing commits in that mode serialize on the one global
   gate anyway, so the gate doubles as a combiner election: the domain
   that wins it drains a lock-free publication list and commits the
   whole batch of pending intents — each with its own validation,
   durable hooks and outcome — in a single gate acquisition, sharing
   one clock tick across compatible entries.  Losers publish a slot
   and spin locally on its outcome cell instead of fighting for the
   gate, which turns N gate acquisitions (and N cache-line storms)
   into one.

   Correctness notes for the shared batch tick:

   - Every batch entry sampled its snapshot [rv] while the gate was
     observed free ([Txn_state.snapshot_clock ~serial:true]), hence
     strictly before any tick taken under the current gate hold — so
     [wv > rv] for every entry and per-tvar versions move forward.

   - TL2's [rv + 1 = wv] validation fast path is only sound for the
     batch's *first* publisher: once any entry has published, a later
     entry at the same [wv] may have read state the earlier one just
     overwrote, so it must validate ([s_dirty]).

   - Two batch entries writing the {e same} tvar must not share a
     version: a concurrent reader could then mix their states without
     read-log validation noticing (the recorded version matches either
     value).  Ticks are unique, so a plan tvar already carrying the
     shared tick was written by an earlier entry of this batch; such
     an entry takes a fresh tick.

   - Durable hooks need distinct LSNs in conflict order, so a durable
     entry always takes a fresh tick — and invalidates the cached
     batch tick, keeping later entries' versions monotone in drain
     order.

   Combiner crash-safety (the [Fault.Combine_handoff] chaos point, see
   test_chaos.ml): a draw fires per entry {e before} its slot is
   claimed.  [Kill]/[Crash] make the combiner abandon the rest of the
   batch: still-[Waiting] slots are pushed back on the publication
   list, and any waiter that observes the gate free with its slot
   undrained elects itself combiner, so no acked commit is lost and no
   waiter is stranded.  The gate-held invariant that makes
   self-election safe: a combiner drives every slot it claims to a
   terminal [Done] before releasing the gate, so a free gate implies
   no slot is [Claimed]. *)

open Txn_state

let run_hooks hooks =
  (* Run every hook even if one raises; re-raise the first failure once
     lock hygiene is restored by the caller. *)
  if hooks <> [] then begin
    let first_exn = ref None in
    List.iter
      (fun f -> try f () with e -> if !first_exn = None then first_exn := Some e)
      hooks;
    match !first_exn with None -> () | Some e -> raise e
  end

(* What the owner still has to do after its intent published: wake
   scans and after-commit hooks must run on the owner's domain (the
   obs metrics pair attempt-start/commit per domain, and after-commit
   callbacks may start new transactions there). *)
type done_t = {
  pd_after : (unit -> unit) list;  (* after-commit hooks, run order *)
  pd_waits : (unit -> unit) list;  (* durable flush waits, run order *)
  pd_failure : exn option;  (* earliest locked-phase hook failure *)
  pd_wrote : bool;  (* tvar writes published: scan wait lists *)
}

type outcome = Committed of done_t | Rejected of abort_reason

(* Publish a linearized attempt and hand back its owner-side tail.
   Whatever the locked-phase hooks do, the write set publishes, the
   locks release, and the after-commit hooks still run — structure
   residue cleanup (e.g. pessimistic abstract-lock release) rides on
   the latter, so a raising locked hook must not starve them.  The
   earliest hook failure wins and re-raises once hygiene is restored
   (in the ladder).

   Durable hooks run while the write locks are still held: the
   redo-log append for a conflicting successor cannot be ordered
   before ours, so append order agrees with conflict order.  Each
   hook gets the commit version as its LSN and may hand back a
   flush-wait thunk, deferred until every lock and gate is
   released — group commit means the wait spans other domains'
   appends and must not extend the locked window.  Never raises. *)
let publish_linearized t ~wv ~wrote =
  t.finished <- true;
  let locked_hooks = List.rev t.commit_locked_hooks in
  let after_hooks = List.rev t.after_commit_hooks in
  let durable_hooks = List.rev t.durable_hooks in
  t.commit_locked_hooks <- [];
  t.after_commit_hooks <- [];
  t.abort_hooks <- [];
  t.durable_hooks <- [];
  let failure =
    match run_hooks locked_hooks with () -> None | exception e -> Some e
  in
  let waits, failure =
    (* Most commits have no durable hook: skip the closure and refs. *)
    if durable_hooks = [] then ([], failure)
    else begin
      let failure = ref failure and waits = ref [] in
      List.iter
        (fun h ->
          match h wv with
          | None -> ()
          | Some wait -> waits := wait :: !waits
          | exception e -> if !failure = None then failure := Some e)
        durable_hooks;
      (List.rev !waits, !failure)
    end
  in
  Rwset.Wlog.publish_plan t.wset ~version:wv;
  release_locks t;
  {
    pd_after = after_hooks;
    pd_waits = waits;
    pd_failure = failure;
    pd_wrote = wrote;
  }

(* The one commit step both publication paths run, with the commit
   lock held and the write version [wv] chosen: validate the read set,
   linearize, count the commit and publish.  A transaction whose
   writes immediately follow its snapshot ([rv + 1 = wv]) cannot have
   missed a concurrent commit, per TL2, so it skips validation when
   [fast_ok] allows; one without tvar writes ([wrote = false]: a
   read-only or durable-only commit) never validates.  The inline
   path fires the obs commit tap here, between linearization and
   publication; a combined entry fires it owner-side ([consume]),
   which keeps the per-domain metrics pairing.  [Stats.record_commit]
   is striped and safe from the combiner's domain.  Never raises. *)
let linearize t ~wv ~wrote ~fast_ok ~inline =
  let valid =
    (not wrote)
    || (fast_ok && wv <= t.rv + 1)
    ||
    let ok = Protocol.reads_valid t in
    obs_validate t ~ok;
    ok
  in
  if not valid then Rejected Conflict
  else if not (Txn_desc.try_commit t.tdesc) then Rejected Killed
  else begin
    Stats.record_commit ();
    if inline then obs_commit t;
    Committed (publish_linearized t ~wv ~wrote)
  end

(* A waiter's entry on the publication list.  The state cell is the
   handoff protocol: the combiner CASes [Waiting → Claimed] (winning
   the right to commit the entry) and stores [Done]; the owner CASes
   [Waiting → Cancelled] to withdraw (deadline, remote kill,
   self-election). *)
type slot_state = Waiting | Claimed | Done of outcome | Cancelled
type slot = { sl_txn : t; sl_state : slot_state Atomic.t }

(* ------------------------------------------------------------------ *)
(* The combining knobs                                                  *)

(* Group commit is on by default for Serial_commit; [set_combining]
   flips it at runtime so benches can compare it with inline
   publication on one workload. *)
let enabled_v = Atomic.make true
let set_combining b = Atomic.set enabled_v b
let combining () = Atomic.get enabled_v

(* Combiner linger, the classic flat-combining tuning knob: after its
   own commit, the gate winner keeps polling the publication list
   before releasing, yielding the processor between polls so
   publishers that have not yet reached their [try_gate] can arrive
   and join the batch.  Without it, batches only form when an arrival
   lands inside the (sub-microsecond) drain window — on a machine with
   fewer cores than domains, effectively never, because a domain must
   be preempted mid-gate for anyone else to run.  The budget (seconds)
   bounds the idle gap between arrivals, not total tenure: a stream of
   arrivals keeps the combiner serving, a gap longer than the budget
   releases the gate, so it only needs to cover scheduling jitter.
   Default off: an uncontended commit pays nothing.
   [set_combine_linger] turns it on for batching-sensitive workloads
   and the bench. *)
let linger_ns_v = Atomic.make 0

let set_combine_linger s =
  Atomic.set linger_ns_v (if s > 0. then int_of_float (s *. 1e9) else 0)

let combine_linger () = float_of_int (Atomic.get linger_ns_v) *. 1e-9

(* Adaptive linger: arm the configured linger only when the gate has
   recently been contended.  A solo committer that wins the gate on
   arrival has nobody to wait for — lingering would add pure latency —
   so losers stamp [last_contended_ns] when they queue a slot, and the
   combiner consults the stamp: no contention inside the window means
   no dwell.  On by default ([set_adaptive_linger false] pins the
   always-on behaviour): batches only ever form out of contention, so
   suppressing the linger in its absence costs nothing while restoring
   the uncontended commit's zero-overhead path even with a linger
   budget configured. *)
let adaptive_linger_v = Atomic.make true
let set_adaptive_linger b = Atomic.set adaptive_linger_v b
let adaptive_linger () = Atomic.get adaptive_linger_v

(* Monotonic ns of the last observed gate contention (a publisher that
   lost [try_gate] and queued a slot).  Plain store: the stamp is a
   heuristic signal, racing writers all write "now". *)
let last_contended_ns = Atomic.make 0

(* How long one contention observation keeps the linger armed.  Well
   above any scheduling jitter, well below a workload phase change. *)
let contention_window_ns = 50_000_000

let note_gate_contention () =
  Atomic.set last_contended_ns (Clock.now_mono_ns ())

let gate_recently_contended () =
  let last = Atomic.get last_contended_ns in
  last > 0 && Clock.now_mono_ns () - last < contention_window_ns

(* The linger budget a combiner should actually use right now. *)
let effective_linger_ns () =
  let ns = Atomic.get linger_ns_v in
  if ns = 0 then 0
  else if Atomic.get adaptive_linger_v && not (gate_recently_contended ())
  then 0
  else ns

(* ------------------------------------------------------------------ *)
(* The publication list                                                 *)

(* A lock-free CAS stack of slots; the combiner's drain exchanges the
   whole list and reverses it, so service order is FIFO per drain.
   Abandoned entries are pushed back oldest-first, preserving
   approximate FIFO through the same exchange-and-reverse discipline. *)
let pub_list : slot list Atomic.t = Atomic.make []

let rec push_slot sl =
  let cur = Atomic.get pub_list in
  if not (Atomic.compare_and_set pub_list cur (sl :: cur)) then push_slot sl

(* Undrained entries currently on the list (tests: the orphan audit). *)
let pending_publications () =
  List.fold_left
    (fun n sl -> if Atomic.get sl.sl_state = Waiting then n + 1 else n)
    0 (Atomic.get pub_list)

(* ------------------------------------------------------------------ *)
(* Combine sessions                                                     *)

(* One combiner tenure.  While it drains, structure-level replay logs
   may merge compatible intents across the batch's transactions (see
   Replay_log) instead of replaying each against the base structure:
   [s_gen] is the generation the logs key their shared pending state
   by, and [s_flushes] the deferred thunks that apply the merged
   state.  Flushes run — in registration order — before the gate
   releases on every exit path, so an acked merged replay is never
   lost, even when chaos abandons the batch.  The rest is the batch's
   version state: [s_wv] caches the shared batch tick (0 = not yet
   taken), [s_dirty] is set once anything has published, and
   [s_committed] counts the tenure's commits. *)
type session = {
  s_gen : int;
  mutable s_flushes : (unit -> unit) list;
  mutable s_wv : int;
  mutable s_dirty : bool;
  mutable s_committed : int;
}

let session_gen = Atomic.make 1

let session_key : session option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* The current combine session's generation, [None] outside a drain.
   Replay logs call this from locked-phase hooks, which the combiner
   runs on its own domain — domain-local state needs no fencing. *)
let session () =
  match Domain.DLS.get session_key with
  | None -> None
  | Some s -> Some s.s_gen

(* Defer [f] to the end of the current combine session; outside a
   session, run it now (the inline publisher's locked phase). *)
let defer_flush f =
  match Domain.DLS.get session_key with
  | None -> f ()
  | Some s -> s.s_flushes <- f :: s.s_flushes

(* ------------------------------------------------------------------ *)
(* Committing one batch entry (gate held, combiner's domain)            *)

(* Did an earlier entry of this batch publish one of [t]'s tvars at
   the shared tick?  See the header note on same-tvar entries. *)
let plan_overlaps s t =
  s.s_wv <> 0
  &&
  let hit = ref false in
  Rwset.Wlog.plan_iter_tv t.wset (fun tv ->
      if (Tvar.load tv).Tvar.version = s.s_wv then hit := true);
  !hit

(* Commit one entry of the batch: {!linearize} at the batch's write
   version, minus acquisition and release (the combiner owns the gate)
   and minus the owner-side tail ([Done] hands that back through the
   slot).  Never raises: hook failures are captured into
   [pd_failure], everything else is a typed rejection the owner
   converts back into its normal abort path. *)
let commit_entry s t =
  if Txn_desc.is_aborted t.tdesc then Rejected Killed
  else if (not t.tdesc.Txn_desc.irrevocable) && deadline_expired t then
    Rejected Timed_out
  else begin
    let wv =
      if t.durable_hooks <> [] then begin
        (* Distinct LSNs in drain (= conflict) order; invalidate the
           cached tick so later entries re-tick and per-tvar versions
           stay monotone. *)
        s.s_wv <- 0;
        Clock.tick Clock.global
      end
      else begin
        (* A fresh shared tick for the batch's first entry, and for an
           entry that would otherwise share a version with an earlier
           write of the same tvar; later entries adopt it. *)
        if s.s_wv = 0 || plan_overlaps s t then
          s.s_wv <- Clock.tick Clock.global;
        s.s_wv
      end
    in
    let oc =
      linearize t ~wv ~wrote:true ~fast_ok:(not s.s_dirty) ~inline:false
    in
    (match oc with
    | Committed _ ->
        s.s_dirty <- true;
        s.s_committed <- s.s_committed + 1
    | Rejected _ -> ());
    oc
  end

(* ------------------------------------------------------------------ *)
(* The combiner                                                         *)

(* Bound the drain: a round is one exchange of the publication list,
   and a combiner serves at most this many before handing the gate
   back — fresh arrivals should not convoy behind one domain
   forever. *)
let drain_rounds = 4

(* Drain one batch (oldest first).  Returns [true] if a chaos draw
   abandoned the drain mid-batch — the remaining slots have been
   pushed back for a self-electing waiter. *)
let rec drain_batch s = function
  | [] -> false
  | sl :: rest as remaining -> (
      (* The handoff chaos point, drawn before the claim — the window
         where a dying combiner could strand another domain's commit. *)
      match Fault.check Fault.Combine_handoff with
      | Some (Fault.Kill | Fault.Crash) ->
          (* Abandon: hand every undrained entry back to the list.
             Pushing oldest-first preserves FIFO through the next
             drain's exchange-and-reverse. *)
          List.iter push_slot remaining;
          true
      | draw ->
          (match draw with
          | Some (Fault.Delay n) -> Fault.spin n
          | Some Fault.Wedge ->
              (* A gate holder cannot wedge awaiting a remote kill —
                 it would deadlock the whole mode; serve as a delay. *)
              Fault.spin 64
          | _ -> ());
          let spurious = draw = Some Fault.Abort in
          if Atomic.compare_and_set sl.sl_state Waiting Claimed then begin
            let oc =
              if spurious then Rejected Conflict
              else
                match commit_entry s sl.sl_txn with
                | oc -> oc
                | exception _ ->
                    (* [commit_entry] is non-raising by construction;
                       belt-and-braces so a bug rejects the entry
                       instead of stranding it in [Claimed]. *)
                    Rejected Conflict
            in
            Atomic.set sl.sl_state (Done oc)
          end;
          (* CAS failure: the owner cancelled (deadline, kill, or it
             self-elected earlier) — nothing to do. *)
          drain_batch s rest)

(* The linger deadline after a drain: the budget bounds the gap
   between arrivals, not total tenure, so it restarts after every
   drain — a busy combiner keeps serving while an idle one releases
   within one budget of its last batch.  Total tenure stays bounded
   by [drain_rounds].  Re-reading the effective budget lets an
   adaptive combiner that started solo linger once arrivals (which
   mark the gate contended) materialize. *)
let rearm_linger until =
  let ns = effective_linger_ns () in
  if ns = 0 then until else Clock.now_mono_ns () + ns

(* Serve the publication list until it stays empty past the linger
   deadline ([0] = no linger), a chaos draw abandons a batch, or
   [drain_rounds] drains have run. *)
let rec serve s ~rounds ~linger_until =
  if rounds < drain_rounds then
    match Atomic.get pub_list with
    | [] ->
        (* Linger polls are not drain rounds: keep yielding until the
           budget runs out or an arrival starts a real round.  The
           sleep is the point — on an oversubscribed machine it is
           what lets a would-be batch member run at all.  Every tick
           taken so far has published, so advertise the gate as
           quiescent: transaction starts may sample their snapshots
           through the linger instead of serializing behind it (see
           [Txn_state.snapshot_clock]). *)
        if linger_until <> 0 && Clock.now_mono_ns () < linger_until then begin
          Atomic.set gate_quiescent true;
          Unix.sleepf 1e-6;
          serve s ~rounds ~linger_until
        end
    | _ ->
        Atomic.set gate_quiescent false;
        let batch = List.rev (Atomic.exchange pub_list []) in
        if not (drain_batch s batch) then
          serve s ~rounds:(rounds + 1) ~linger_until:(rearm_linger linger_until)

(* End the tenure; runs on every exit, in this order.  Merged replay
   flushes must land before the gate releases: once it is free, a new
   transaction may read the base structures, and acked entries'
   effects must be there.  Returns the flush failure, if any. *)
let close_session s t =
  let failure =
    match run_hooks (List.rev s.s_flushes) with
    | () -> None
    | exception e -> Some e
  in
  Domain.DLS.set session_key None;
  Atomic.set gate_quiescent false;
  Protocol.release_commit_gate t;
  if s.s_committed > 0 then begin
    Stats.add_combined_commits s.s_committed;
    if Proust_obs.Gate.get () land Proust_obs.Gate.metrics_bit <> 0 then
      Proust_obs.Metrics.add_combiner_batch s.s_committed
  end;
  failure

(* Commit [t] as the combiner (gate held on entry; released here),
   then serve the publication list.  Returns [t]'s own outcome, with a
   flush failure folded into a commit's [pd_failure]; a flush failure
   with [t]'s own entry rejected has no commit to ride back on, so it
   is a real error and raises rather than being swallowed by a silent
   retry. *)
let combiner_commit t =
  Stats.record_combiner_election ();
  let s =
    {
      s_gen = Atomic.fetch_and_add session_gen 1;
      s_flushes = [];
      s_wv = 0;
      s_dirty = false;
      s_committed = 0;
    }
  in
  Domain.DLS.set session_key (Some s);
  match
    let own = commit_entry s t in
    serve s ~rounds:0 ~linger_until:(rearm_linger 0);
    own
  with
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (close_session s t);
      Printexc.raise_with_backtrace e bt
  | own -> (
      match (own, close_session s t) with
      | _, None -> own
      | Committed d, (Some _ as f) ->
          if d.pd_failure = None then Committed { d with pd_failure = f }
          else own
      | Rejected _, Some e -> raise e)

(* ------------------------------------------------------------------ *)
(* The grouped publish (waiter side)                                    *)

let try_gate t = Atomic.compare_and_set commit_gate 0 t.tdesc.Txn_desc.id

(* Hand an outcome to its owner: the ladder's abort machinery expects
   [Abort_exn]; a commit finishes the owner-side metrics pairing. *)
let consume t = function
  | Committed d ->
      obs_commit t;
      d
  | Rejected r -> raise (Abort_exn r)

let publish_grouped t =
  chaos_point t Fault.Pre_validate;
  check_deadline t;
  if try_gate t then consume t (combiner_commit t)
  else begin
    (* Losing the gate is the observed-contention signal the adaptive
       linger arms on. *)
    note_gate_contention ();
    let sl = { sl_txn = t; sl_state = Atomic.make Waiting } in
    push_slot sl;
    Backoff.reset t.gate_backoff;
    let rec wait () =
      match Atomic.get sl.sl_state with
      | Done oc -> consume t oc
      | Claimed ->
          (* The combiner is committing us right now. *)
          Domain.cpu_relax ();
          wait ()
      | Cancelled ->
          (* Only this domain cancels, and it returns when it does. *)
          assert false
      | Waiting ->
          if Txn_desc.is_aborted t.tdesc then withdraw Killed
          else if (not t.tdesc.Txn_desc.irrevocable) && deadline_expired t
          then withdraw Timed_out
          else if Atomic.get commit_gate = 0 && try_gate t then begin
            (* Self-election: the gate is free yet our slot is
               undrained — the previous combiner finished between our
               push and its exchange, or chaos abandoned the batch.
               Re-examine the slot under the gate: a free gate means
               no claim was in flight, so it is [Waiting] or already
               [Done]. *)
            match Atomic.get sl.sl_state with
            | Done oc ->
                Protocol.release_commit_gate t;
                consume t oc
            | _ ->
                (* Withdraw the slot (a later drain must skip it) and
                   commit ourselves as the combiner. *)
                ignore (Atomic.compare_and_set sl.sl_state Waiting Cancelled);
                consume t (combiner_commit t)
          end
          else begin
            obs_wait ~txn:t.tdesc.Txn_desc.id
              ~held_by:(Atomic.get commit_gate) t.gate_backoff;
            wait ()
          end
    and withdraw reason =
      if Atomic.compare_and_set sl.sl_state Waiting Cancelled then
        raise (Abort_exn reason)
      else wait () (* lost the race: the combiner claimed us *)
    in
    wait ()
  end

(* ------------------------------------------------------------------ *)
(* The inline publish                                                   *)

(* A rejected inline commit gives back the serial gate here, because
   the abort path only releases per-location locks (those stay on
   [t.locked] for it).  Releasing checks the owner, so an attempt that
   never took the gate (no writes) is unaffected. *)
let release_commit_lock t =
  match t.proto.p_commit with
  | Serial_gate -> Protocol.release_commit_gate t
  | Plan_locks -> ()

let reject t reason =
  release_commit_lock t;
  raise (Abort_exn reason)

let publish_inline t ~has_writes =
  if has_writes then begin
    match t.proto.p_commit with
    | Plan_locks -> Protocol.acquire_plan_locks t
    | Serial_gate -> Protocol.acquire_commit_gate t
  end;
  (* Deadline check at the head of validation: a commit that locked
     its plan but whose deadline passed releases everything here
     rather than paying for validation it no longer wants.
     [check_deadline] is a no-op for irrevocable attempts. *)
  match
    chaos_point t Fault.Pre_validate;
    check_deadline t
  with
  | exception Abort_exn reason -> reject t reason
  | () -> (
      (* Durable transactions tick even without tvar writes: their
         redo-log records need distinct LSNs (a pessimistic lazy-map
         op can commit with an empty tvar write set yet still log). *)
      let wv =
        if has_writes || t.durable_hooks <> [] then Clock.tick Clock.global
        else t.rv
      in
      match linearize t ~wv ~wrote:has_writes ~fast_ok:true ~inline:true with
      | Committed d ->
          release_commit_lock t;
          d
      | Rejected reason -> reject t reason)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)

(* Irrevocable (serial-fallback) attempts never group: the quiesce
   token has already turned every other writer away, so there is no
   batch to join — and nothing may reject an irrevocable commit. *)
let publish t ~has_writes =
  match t.proto.p_commit with
  | Serial_gate
    when has_writes && (not t.tdesc.Txn_desc.irrevocable) && combining () ->
      publish_grouped t
  | Serial_gate | Plan_locks -> publish_inline t ~has_writes
