(** Deterministic fault injection ("chaos") for the STM substrate.

    The opacity arguments for the Proust design points (Theorems
    5.1–5.3) lean on every abort path restoring all tvar version-locks,
    abstract locks and replay state.  Those paths are rare under benign
    schedules, so this module lets tests force them: named injection
    points threaded through the STM and the Proust layers can raise
    spurious aborts, kill the running transaction mid-flight, or insert
    delay windows that widen races.

    Injection is off by default and the disabled fast path is a single
    atomic load per injection point.  When enabled, decisions are drawn
    from a per-domain PRNG derived from the configured seed and the
    domain id, so a given (seed, domain) pair replays the same fault
    schedule. *)

type point =
  | Pre_commit  (** entry of the commit protocol *)
  | Post_lock_acquire  (** just after a tvar version-lock is taken *)
  | Mid_write_back  (** between individual write-set publications *)
  | Pre_validate  (** after locking, before read-set validation *)
  | Abstract_lock_acquire  (** after a Proust abstract lock is taken *)
  | Replay_apply  (** inside a replay-log application *)
  | Durable_pre_append
      (** in {!Redo_log.append}, before the record enters the log's
          in-memory buffer — a crash here loses the record entirely *)
  | Durable_post_append
      (** after the record is buffered but before the flusher has
          written or fsynced it — a crash here loses an appended but
          unacknowledged record *)
  | Durable_mid_fsync
      (** inside the flusher's batch write, between frames — a crash
          here tears the log tail mid-frame *)
  | Durable_mid_compaction
      (** between the steps of snapshot+truncate compaction *)
  | Durable_pre_wake
      (** in the redo-log flusher, after a batch is fsynced and the
          durable watermark published, before the parked waiters are
          woken — the publish-then-wake window.  A [Delay] widens it
          (a waiter that registers there must still see the new
          watermark); a [Crash] halts the log with the batch on disk
          but unacknowledged *)
  | Pre_park
      (** in {!Parking}, after a retrying transaction registered on its
          read-set wait lists and revalidated, just before blocking —
          a disruptive draw here is served as a forced spurious unpark
          (the waiter cancels itself and re-attempts), widening the
          register/park race window *)
  | Post_unpark
      (** after a parked waiter wakes, before it deregisters and
          re-attempts — the wake-to-revalidate window *)
  | Commit_wake
      (** in the commit path, before a writing commit scans the wait
          lists of its written tvars — a [Kill]/[Crash] draw {e drops
          the wakeup entirely} (the deliberately broken waker of the
          lost-wakeup regression suite); only deadline-bounded parks
          survive such a schedule *)
  | Version_gc
      (** in {!Tvar.publish} under the armed [Multi_version] mode,
          between reading the active-snapshot floor and installing the
          trimmed version chain — widens the reclamation race against
          a concurrently registering read-only snapshot (delay-only:
          the publisher is past its linearization point) *)
  | Combine_handoff
      (** in {!Publisher}'s flat-combining drain, drawn per batch entry
          just before the combiner claims the entry's slot — the window
          where a combiner failure could lose another domain's commit.
          [Kill]/[Crash] draws make the combiner abandon the rest of the
          batch (undrained entries are pushed back on the publication
          list and picked up by a self-electing waiter); already-claimed
          entries are always driven to a terminal outcome, so no acked
          commit is lost and no waiter is stranded *)

val point_name : point -> string
val all_points : point list

type action =
  | Delay of int  (** spin for up to this many relaxation steps *)
  | Abort  (** spurious conflict abort of the running transaction *)
  | Kill  (** remote-style kill: CAS own descriptor to [Aborted] *)
  | Wedge
      (** stall the transaction in place until some remote party kills
          it: the victim spins watching its own descriptor and only
          resumes (by raising its kill-abort) once the status word
          flips.  This is the deliberately-stuck transaction the QoS
          watchdog exists to unwedge — without a watchdog (or another
          killer) a wedged attempt never terminates. *)
  | Crash
      (** power-failure simulation at a durability point: the redo log
          halts in place (pending appends are dropped, nothing further
          is written or acknowledged) while the process lives on so the
          harness can recover from the surviving file.  At non-durable
          points {!Txn_state.chaos_point} serves a drawn [Crash] as a
          [Kill]. *)

(** Per-point policy: with probability [prob], draw one of [actions]
    uniformly. *)
type site = { prob : float; actions : action list }

(** [configure ?seed policy] replaces the active policy and enables
    injection.  Points absent from [policy] never fire. *)
val configure : ?seed:int -> (point * site) list -> unit

(** [uniform ?seed ?prob ?actions points] is [configure] with the same
    site at every listed point. *)
val uniform : ?seed:int -> ?prob:float -> ?actions:action list -> point list -> unit

val disable : unit -> unit
val enabled : unit -> bool

(** [check p] draws an injection decision for point [p]; [None] when
    disabled, not configured for [p], or the dice say no.  Every
    [Some _] is counted in {!Stats} ([injected_faults]). *)
val check : point -> action option

(** [delay_only p] is [check p] restricted to its disruption-free
    component: any drawn action is served as a bounded spin.  Used at
    points past the transaction's linearization point, where an abort
    would (incorrectly) tear a committed transaction. *)
val delay_only : point -> unit

(** Busy-wait helper for serving [Delay] actions at the call site. *)
val spin : int -> unit
