type snapshot = {
  starts : int;
  commits : int;
  aborts : int;
  conflicts : int;
  remote_aborts : int;
  lock_waits : int;
  extensions : int;
  killed_aborts : int;
  explicit_aborts : int;
  fallbacks : int;
  injected_faults : int;
  timeouts : int;
  budget_exhausted : int;
  shed : int;
  watchdog_kills : int;
  degraded_transitions : int;
  minor_words : int;
  log_appends : int;
  fsync_batches : int;
  fsync_batch_size_p50 : int;
  fsync_batch_size_p99 : int;
  recoveries : int;
  torn_tail_truncations : int;
  parks : int;
  wakeups : int;
  spurious_wakeups : int;
  retry_polls : int;
  wait_list_max : int;
  versions_installed : int;
  versions_gced : int;
  ro_snapshot_reads : int;
  ro_commits : int;
  ro_aborts : int;
  version_chain_max : int;
  combined_commits : int;
  combiner_elections : int;
}

(* An event counter is striped and summed on [read]; [diff] subtracts
   it.  A gauge is one set-style or high-water reading, so the latest
   value is the whole story: it lives unstriped and [diff] keeps the
   later reading. *)
type kind = Counter | Gauge

(* The instrument table.  Rows are declared in [snapshot] field order,
   which is the [to_assoc] order and so the JSON/CSV column order; each
   row's value is its index into a stripe. *)
let rows = ref []

let row kind name =
  rows := (name, kind) :: !rows;
  List.length !rows - 1

let starts = row Counter "starts"
let commits = row Counter "commits"
let aborts = row Counter "aborts"
let conflicts = row Counter "conflicts"
let remote_aborts = row Counter "remote_aborts"
let lock_waits = row Counter "lock_waits"
let extensions = row Counter "extensions"
let killed_aborts = row Counter "killed_aborts"
let explicit_aborts = row Counter "explicit_aborts"
let fallbacks = row Counter "fallbacks"
let injected_faults = row Counter "injected_faults"
let timeouts = row Counter "timeouts"
let budget_exhausted = row Counter "budget_exhausted"
let shed = row Counter "shed"
let watchdog_kills = row Counter "watchdog_kills"
let degraded_transitions = row Counter "degraded_transitions"
let minor_words = row Counter "minor_words"
let log_appends = row Counter "log_appends"
let fsync_batches = row Counter "fsync_batches"

(* Published by the redo-log flusher after each batch. *)
let fsync_batch_size_p50 = row Gauge "fsync_batch_size_p50"
let fsync_batch_size_p99 = row Gauge "fsync_batch_size_p99"
let recoveries = row Counter "recoveries"
let torn_tail_truncations = row Counter "torn_tail_truncations"
let parks = row Counter "parks"
let wakeups = row Counter "wakeups"
let spurious_wakeups = row Counter "spurious_wakeups"
let retry_polls = row Counter "retry_polls"

(* High-water: the longest per-tvar wait list since the last reset. *)
let wait_list_max = row Gauge "wait_list_max"
let versions_installed = row Counter "versions_installed"
let versions_gced = row Counter "versions_gced"
let ro_snapshot_reads = row Counter "ro_snapshot_reads"
let ro_commits = row Counter "ro_commits"
let ro_aborts = row Counter "ro_aborts"

(* High-water: the longest version chain (0 outside Multi_version). *)
let version_chain_max = row Gauge "version_chain_max"
let combined_commits = row Counter "combined_commits"
let combiner_elections = row Counter "combiner_elections"
let table = Array.of_list (List.rev !rows)
let n = Array.length table

(* The one record constructor and the one record destructor. *)
let of_array a =
  {
    starts = a.(starts);
    commits = a.(commits);
    aborts = a.(aborts);
    conflicts = a.(conflicts);
    remote_aborts = a.(remote_aborts);
    lock_waits = a.(lock_waits);
    extensions = a.(extensions);
    killed_aborts = a.(killed_aborts);
    explicit_aborts = a.(explicit_aborts);
    fallbacks = a.(fallbacks);
    injected_faults = a.(injected_faults);
    timeouts = a.(timeouts);
    budget_exhausted = a.(budget_exhausted);
    shed = a.(shed);
    watchdog_kills = a.(watchdog_kills);
    degraded_transitions = a.(degraded_transitions);
    minor_words = a.(minor_words);
    log_appends = a.(log_appends);
    fsync_batches = a.(fsync_batches);
    fsync_batch_size_p50 = a.(fsync_batch_size_p50);
    fsync_batch_size_p99 = a.(fsync_batch_size_p99);
    recoveries = a.(recoveries);
    torn_tail_truncations = a.(torn_tail_truncations);
    parks = a.(parks);
    wakeups = a.(wakeups);
    spurious_wakeups = a.(spurious_wakeups);
    retry_polls = a.(retry_polls);
    wait_list_max = a.(wait_list_max);
    versions_installed = a.(versions_installed);
    versions_gced = a.(versions_gced);
    ro_snapshot_reads = a.(ro_snapshot_reads);
    ro_commits = a.(ro_commits);
    ro_aborts = a.(ro_aborts);
    version_chain_max = a.(version_chain_max);
    combined_commits = a.(combined_commits);
    combiner_elections = a.(combiner_elections);
  }

let to_array (s : snapshot) =
  [| s.starts; s.commits; s.aborts; s.conflicts; s.remote_aborts;
     s.lock_waits; s.extensions; s.killed_aborts; s.explicit_aborts;
     s.fallbacks; s.injected_faults; s.timeouts; s.budget_exhausted; s.shed;
     s.watchdog_kills; s.degraded_transitions; s.minor_words; s.log_appends;
     s.fsync_batches; s.fsync_batch_size_p50; s.fsync_batch_size_p99;
     s.recoveries; s.torn_tail_truncations; s.parks; s.wakeups;
     s.spurious_wakeups; s.retry_polls; s.wait_list_max;
     s.versions_installed; s.versions_gced; s.ro_snapshot_reads;
     s.ro_commits; s.ro_aborts; s.version_chain_max; s.combined_commits;
     s.combiner_elections |]

(* The constructor reads by row name, the destructor by position; this
   pins the two to the same order as the table. *)
let () =
  let ids = Array.init n Fun.id in
  assert (to_array (of_array ids) = ids)

(* Counters are striped across a fixed number of slots to avoid making
   the stats themselves a contention hot spot; a domain hashes to a
   stripe.  Stripe [s] holds row [i] at [slots.(s * n + i)]; a gauge
   uses stripe 0 only. *)
let stripes = 16
let slots = Array.init (stripes * n) (fun _ -> Atomic.make 0)

let my_slot i =
  slots.((((Domain.self () :> int) land (stripes - 1)) * n) + i)

let bump i = Atomic.incr (my_slot i)
let add i k = if k > 0 then ignore (Atomic.fetch_and_add (my_slot i) k)

let rec raise_to i v =
  let cur = Atomic.get slots.(i) in
  if v > cur && not (Atomic.compare_and_set slots.(i) cur v) then raise_to i v

let record_start () = bump starts
let record_commit () = bump commits
let record_abort () = bump aborts
let record_conflict () = bump conflicts
let record_remote_abort () = bump remote_aborts
let record_lock_wait () = bump lock_waits
let record_extension () = bump extensions
let record_killed_abort () = bump killed_aborts
let record_explicit_abort () = bump explicit_aborts
let record_fallback () = bump fallbacks
let record_injected_fault () = bump injected_faults
let record_timeout () = bump timeouts
let record_budget_exhausted () = bump budget_exhausted
let record_shed () = bump shed
let record_watchdog_kill () = bump watchdog_kills
let record_degraded_transition () = bump degraded_transitions
let record_log_append () = bump log_appends
let record_fsync_batch () = bump fsync_batches
let record_recovery () = bump recoveries
let record_torn_tail_truncation () = bump torn_tail_truncations
let record_park () = bump parks
let record_wakeup () = bump wakeups
let record_spurious_wakeup () = bump spurious_wakeups
let record_retry_poll () = bump retry_polls
let record_version_install () = bump versions_installed
let record_ro_snapshot_read () = bump ro_snapshot_reads
let record_ro_commit () = bump ro_commits
let record_ro_abort () = bump ro_aborts
let record_combiner_election () = bump combiner_elections

(* Bulk adds: one [Gc.minor_words] delta per measured stretch, one count
   per combiner batch or reclaimed chain tail, and a read-only attempt's
   snapshot reads once at commit (keeping the RMW off the read path). *)
let add_minor_words k = add minor_words k
let add_combined_commits k = add combined_commits k
let add_versions_gced k = add versions_gced k
let add_ro_snapshot_reads k = add ro_snapshot_reads k
let note_version_chain_len v = raise_to version_chain_max v
let note_wait_list_len v = raise_to wait_list_max v

let set_fsync_batch_percentiles ~p50 ~p99 =
  Atomic.set slots.(fsync_batch_size_p50) p50;
  Atomic.set slots.(fsync_batch_size_p99) p99

let read () =
  of_array
    (Array.mapi
       (fun i (_, kind) ->
         match kind with
         | Gauge -> Atomic.get slots.(i)
         | Counter ->
             let total = ref 0 in
             for s = 0 to stripes - 1 do
               total := !total + Atomic.get slots.((s * n) + i)
             done;
             !total)
       table)

let reset () = Array.iter (fun c -> Atomic.set c 0) slots

let diff a b =
  let a = to_array a in
  of_array
    (Array.mapi
       (fun i v -> match snd table.(i) with Counter -> v - a.(i) | Gauge -> v)
       (to_array b))

let to_assoc s =
  Array.to_list (Array.map2 (fun (k, _) v -> (k, v)) table (to_array s))

let pp fmt s =
  let field (k, v) = k ^ "=" ^ string_of_int v in
  Format.pp_print_string fmt (String.concat " " (List.map field (to_assoc s)))
