(** Replay wrappers and shadow copies (§4).

    Under the lazy update strategy, pending ADT operations are
    channelled into a per-transaction log.  Each operation's return
    value is computed at execution time against a {e shadow copy}; the
    log is applied to the shared base structure atomically when the
    transaction is known to commit (inside the STM's locked commit
    phase, via [Stm.on_commit_locked]), or dropped on abort.

    Two shadow-copy strategies are provided, matching the paper:

    - {!Memo}: memoized shadow copies, for structures whose operation
      results are computable from the initial backing state plus the
      pending operations on the same key (sets, maps).  Supports the
      paper's log-combining optimisation: replay only the final state
      of each abstract-state element instead of every logged operation.
    - {!Snapshot}: snapshot shadow copies, for copy-on-write
      structures whose whole state sits behind one atomic root (the
      Ctrie, the COW queues and ordered map).  Commit installs the
      shadow with one root CAS; replay and session merge derive from
      the same logged state steps.

    {2 Cross-transaction combining}

    Both flavours additionally support {e cross-transaction} log
    combining under the flat-combining group commit
    ([Stm.Combine]): a structure-level [shared] accumulator, created
    once with [make_shared] and passed to every per-transaction log,
    lets replays running inside one combiner drain merge their net
    effects and publish them in a single base pass just before the
    serial gate releases.  This is only sound for wrappers over the
    {e validated optimistic} LAP — deferred effects stay invisible
    because every covered conflict-abstraction stripe was published
    with a version no concurrent snapshot can validate against;
    pessimistic wrappers must not pass [shared]. *)

module Memo : sig
  (** Accessors onto the shared base structure.  [base_get] is used to
      fault unknown keys into the memo table; the other two replay the
      final state at commit. *)
  type ('k, 'v) base = {
    base_get : 'k -> 'v option;
    base_put : 'k -> 'v -> unit;
    base_remove : 'k -> unit;
  }

  type ('k, 'v) t

  (** Structure-level accumulator for cross-transaction combining: the
      per-key last-write-wins net effect of every transaction drained
      so far in the current combine session. *)
  type ('k, 'v) shared

  val make_shared : unit -> ('k, 'v) shared

  (** One log per transaction; create inside an [Stm.Local] key
      initializer.  [combine = false] replays every logged operation in
      order; [true] (the default) replays one synthetic update per
      dirty key — the optimisation evaluated at the bottom of the
      paper's Figure 4.  [shared] (only honoured with [combine])
      additionally merges the per-key finals across the transactions of
      one combiner drain; see the module preamble for the LAP
      soundness requirement. *)
  val create :
    ?combine:bool ->
    ?shared:('k, 'v) shared ->
    base:('k, 'v) base ->
    Stm.txn ->
    ('k, 'v) t

  (** Current value of [k] as seen by this transaction (pending
      operations included), faulting from the base on a miss. *)
  val get : ('k, 'v) t -> 'k -> 'v option

  (** [put t txn k v] logs the update and returns the previous binding
      as seen by this transaction. *)
  val put : ('k, 'v) t -> Stm.txn -> 'k -> 'v -> 'v option

  (** [remove t txn k] logs the removal.  Combined replay preserves
      remove-then-put ordering per key: when a remove preceded the
      final put, the replay is [base_remove] followed by [base_put],
      not a bare overwrite. *)
  val remove : ('k, 'v) t -> Stm.txn -> 'k -> 'v option

  (** Net change to the structure's cardinality from pending ops. *)
  val size_delta : ('k, 'v) t -> int

  (** Number of logged operations (diagnostics/tests). *)
  val pending_ops : ('k, 'v) t -> int
end

module Snapshot : sig
  (** A log over a shadow snapshot of type ['s], the state behind a
      copy-on-write structure's atomic root.  The snapshot is taken
      lazily, at the first mutating operation ("readOnly provides an
      optimization to avoid initializing the log until it is known that
      a replay is actually necessary", Fig. 2b).  The log is one list
      of pure state steps.  At commit, if [root] still holds the state
      the shadow grew from, one CAS installs the shadow (log
      combining, §9 future work); if a commuting transaction moved the
      root in between, the steps are re-applied to it with
      {!Proust_concurrent.Root.update}, one at a time.  When the root
      has moved since the shadow was taken, the next [read_only] or
      [update] rebases the shadow: it re-applies the steps to the
      current root, so a shadow read never misses a commit whose
      abstract-lock stripe the transaction has already read. *)
  type 's t

  (** Structure-level accumulator for cross-transaction combining: the
      steps of every fully-mergeable transaction drained so far in the
      current combine session, folded in linearization order into one
      root update. *)
  type 's shared

  val make_shared : unit -> 's shared

  (** One log per transaction; create inside an [Stm.Local] key
      initializer.  [shared] extends the combining across the
      transactions of one combiner drain; see the module preamble for
      the LAP soundness requirement. *)
  val create : root:'s Atomic.t -> ?shared:'s shared -> Stm.txn -> 's t

  (** [read_only t ~shadow ~direct] computes a result from the shadow
      copy when one exists, else straight from the base structure. *)
  val read_only : 's t -> shadow:('s -> 'z) -> direct:(unit -> 'z) -> 'z

  (** [update txn t f] applies the pure step [f] to the shadow copy,
      logs it for commit-time application to the root, and returns its
      result.  [merge] (default [false]) declares that [f] is valid on
      {e any} base state (an insert, say — not a dequeue, whose result
      depends on the state it ran against); an entry whose every step
      is so marked can be folded into the session's batch flush instead
      of replaying directly. *)
  val update : Stm.txn -> 's t -> ?merge:bool -> ('s -> 's * 'z) -> 'z

  val pending_ops : 's t -> int
end
