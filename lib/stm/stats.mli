(** Process-wide STM event counters.

    Used by the benchmark harness to report abort/conflict behaviour
    alongside wall-clock time, and by tests to assert that specific
    schedules did (or did not) conflict. *)

type snapshot = {
  starts : int;  (** transaction attempts begun *)
  commits : int;  (** attempts that committed *)
  aborts : int;  (** attempts that aborted (any reason) *)
  conflicts : int;  (** aborts caused by a detected conflict *)
  remote_aborts : int;  (** transactions killed by a contention manager *)
  lock_waits : int;  (** bounded waits on a held lock or abstract lock *)
  extensions : int;  (** successful read-timestamp extensions *)
  killed_aborts : int;  (** aborts whose attempt was killed remotely *)
  explicit_aborts : int;  (** aborts from [restart]/[retry]/user exns *)
  fallbacks : int;  (** escalations into serial-irrevocable mode *)
  injected_faults : int;  (** faults fired by {!Fault} *)
  timeouts : int;  (** QoS episodes that ended in [Timed_out] *)
  budget_exhausted : int;
      (** QoS episodes that ended in [Budget_exhausted] *)
  shed : int;  (** admissions refused by the overload shedder *)
  watchdog_kills : int;
      (** stuck attempts killed (or gate-broken) by the QoS watchdog *)
  degraded_transitions : int;
      (** shedder state flips (Normal→Degraded and back) *)
  minor_words : int;
      (** minor-heap words allocated inside measured stretches, reported
          in bulk by {!add_minor_words} (the benchmark workers record
          one [Gc.minor_words] delta per trial); divide by [commits]
          for the allocation-per-transaction figure *)
  log_appends : int;  (** records appended to a durable redo log *)
  fsync_batches : int;  (** group-commit fsync batches flushed *)
  fsync_batch_size_p50 : int;
      (** median records per fsync batch — a gauge set by the redo-log
          flusher, so [diff] carries the later reading *)
  fsync_batch_size_p99 : int;
      (** 99th-percentile records per fsync batch (gauge, like p50) *)
  recoveries : int;  (** redo-log recovery scans completed *)
  torn_tail_truncations : int;
      (** recoveries that truncated a torn (partially-written) tail *)
  parks : int;  (** domains parked by a blocking [retry] *)
  wakeups : int;
      (** parked waiters woken by a commit to a watched tvar (or by
          the deadline timer) *)
  spurious_wakeups : int;
      (** OS-level condition wakeups that found the waiter still
          registered; the waiter re-blocks *)
  retry_polls : int;
      (** busy-poll iterations spent in the legacy [Poll] retry mode;
          ~0 under [Park], which is the point of parking *)
  wait_list_max : int;
      (** longest per-tvar wait list observed — a high-water gauge, so
          [diff] carries the later reading *)
  versions_installed : int;
      (** version-chain installs by [Multi_version] publishes (0 while
          the mode is unarmed) *)
  versions_gced : int;
      (** chain entries reclaimed by the bounded version GC *)
  ro_snapshot_reads : int;
      (** reads served from a read-only transaction's snapshot *)
  ro_commits : int;  (** read-only transactions completed *)
  ro_aborts : int;
      (** read-only transaction attempts aborted — the abort-free
          guarantee says this stays 0 absent user exceptions; tests
          and the CI mvcc gate assert it *)
  version_chain_max : int;
      (** longest tvar version chain installed — a high-water gauge
          like [wait_list_max] *)
  combined_commits : int;
      (** commits published by a flat-combining batch drain (the
          combiner's own commit included); [combined_commits /
          combiner_elections] is the mean batch size *)
  combiner_elections : int;
      (** gate acquisitions that became a combining drain — one per
          batch *)
}

val record_start : unit -> unit
val record_commit : unit -> unit
val record_abort : unit -> unit
val record_conflict : unit -> unit
val record_remote_abort : unit -> unit
val record_lock_wait : unit -> unit
val record_extension : unit -> unit
val record_killed_abort : unit -> unit
val record_explicit_abort : unit -> unit
val record_fallback : unit -> unit
val record_injected_fault : unit -> unit
val record_timeout : unit -> unit
val record_budget_exhausted : unit -> unit
val record_shed : unit -> unit
val record_watchdog_kill : unit -> unit
val record_degraded_transition : unit -> unit
val record_log_append : unit -> unit
val record_fsync_batch : unit -> unit
val record_recovery : unit -> unit
val record_torn_tail_truncation : unit -> unit
val record_park : unit -> unit
val record_wakeup : unit -> unit
val record_spurious_wakeup : unit -> unit
val record_retry_poll : unit -> unit
val record_version_install : unit -> unit
val record_ro_snapshot_read : unit -> unit

(** [add_ro_snapshot_reads n] adds [n] snapshot reads at once — the
    read-only path batches its count per attempt (no-op for [n <= 0]). *)
val add_ro_snapshot_reads : int -> unit
val record_ro_commit : unit -> unit
val record_ro_abort : unit -> unit

(** [add_versions_gced n] adds [n] reclaimed chain entries (no-op for
    [n <= 0]; one publish can reclaim a whole tail). *)
val add_versions_gced : int -> unit

(** [note_version_chain_len n] raises the version-chain high-water
    gauge to [n] if it exceeds the current reading. *)
val note_version_chain_len : int -> unit

(** [note_wait_list_len n] raises the wait-list high-water gauge to
    [n] if it exceeds the current reading. *)
val note_wait_list_len : int -> unit

(** [set_fsync_batch_percentiles ~p50 ~p99] publishes the redo-log
    flusher's current batch-size percentiles (gauges; see the snapshot
    field docs). *)
val set_fsync_batch_percentiles : p50:int -> p99:int -> unit

(** [add_minor_words n] adds [n] words to the allocation counter
    (no-op for [n <= 0]). *)
val add_minor_words : int -> unit

val record_combiner_election : unit -> unit

(** [add_combined_commits n] counts a drained batch of [n] commits
    (no-op for [n <= 0]). *)
val add_combined_commits : int -> unit

(** Current totals since program start or the last [reset]. *)
val read : unit -> snapshot

val reset : unit -> unit

(** [diff a b] is [b - a] for event counters and [b]'s reading for the
    four gauges (fsync batch percentiles and the two high-water marks). *)
val diff : snapshot -> snapshot -> snapshot

(** Field-name/value pairs in declaration order — the single source of
    truth for CSV columns and JSON report keys. *)
val to_assoc : snapshot -> (string * int) list

val pp : Format.formatter -> snapshot -> unit
