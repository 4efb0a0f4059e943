(** A software transactional memory for OCaml 5 domains.

    The design is TL2-style (global version clock, per-location
    versioned values, commit-time validation) with a configurable
    conflict-detection strategy, mirroring the right-hand table of the
    paper's Figure 1:

    - [Lazy_lazy]: write/write conflicts detected at commit time
      (commit-time locking) and read/write conflicts at validation —
      the TL2 point in the design space.
    - [Eager_lazy]: encounter-time write locking (eager write/write),
      lazy read/write — the TinySTM/Ennals point.
    - [Eager_eager]: encounter-time write locking plus visible readers,
      so both conflict classes are detected eagerly — the mode required
      by Theorem 5.2 for eager/optimistic Proustian objects to be
      opaque.

    Transactions additionally expose three handler phases that the
    Proust layer builds on:

    - [on_commit_locked]: runs after the commit point while the write
      set is still locked; replay logs apply shadow-copy operations to
      base structures here, "behind the STM's native locking" (§4).
    - [after_commit]: runs after locks are released (abstract-lock
      release, user callbacks).
    - [on_abort]: runs in reverse registration order on abort
      (operation inverses, then abstract-lock release). *)

(** The single mode authority: enumerate with [Mode.all], print/parse
    with [Mode.to_string]/[Mode.of_string], read the [PROUST_MODE]
    environment default with [Mode.from_env].  Every mode list in the
    tree (bench CLIs, test matrices, the design-space printer) derives
    from it. *)
module Mode = Mode

type mode = Mode.t =
  | Lazy_lazy
  | Eager_lazy
  | Eager_eager
  | Serial_commit
      (** NOrec-style: no per-location commit locking at all; writers
          serialize on one global commit lock and readers validate
          against it.  Minimal metadata, zero per-location lock
          traffic, but write commits never overlap. *)
  | Multi_version
      (** MVCC: tvars keep a bounded version history; read-write
          transactions run TL2-style but serve snapshot-stale reads
          from the history, and {!read_only} transactions read a
          consistent snapshot abort-free.  See {!Mode.t}. *)

val mode_name : mode -> string

type config = {
  mode : mode;
  cm : Contention.t;
  extend_reads : bool;
      (** revalidate and extend the read timestamp instead of aborting
          when a location is newer than the transaction's snapshot *)
  max_attempts : int;  (** give up (raise [Too_many_attempts]) after this *)
  abort_budget : int;
      (** attempts beyond this boost the descriptor's priority on every
          retry, feeding karma-style contention managers *)
  serial_fallback : bool;
      (** escalate to the serial-irrevocable mode instead of starving;
          with it on (the default), [Too_many_attempts] is unreachable
          as long as [fallback_after < max_attempts] *)
  fallback_after : int;
      (** attempts before a transaction takes the global quiesce token
          and re-runs irrevocably *)
  backoff_sleep_after : int;
      (** backoff rounds before each further round adds an OS sleep *)
  backoff_sleep : float;  (** seconds slept per degraded backoff round *)
}

(** The process-wide default configuration, read afresh at each use
    ([atomically] without [?config] consults it per call — use
    [set_default_config] to change it). *)
val get_default_config : unit -> config

val set_default_config : config -> unit

type txn

exception Too_many_attempts of int

(** Raised inside an atomic block by operations that must run inside
    one when handed a transaction whose attempt already ended. *)
exception Not_in_transaction

(** Raised by an episode whose body called [retry] with an empty read
    set: no tvar exists whose change could wake it, so blocking would
    hang forever. *)
exception Retry_no_reads

(** Raised by {!write} inside a read-only scope ({!read_only}, or
    [atomic ~read_only:true]).  Not an abort: the episode fails
    without retrying — the snapshot path cannot honor a write, and the
    program must hear about it. *)
exception Read_only_violation

(** [atomically f] runs [f] in a fresh transaction, retrying on
    conflict, and commits its effects atomically.  Nesting is
    flattened: an [atomically] reached while this domain is already
    running a transaction joins that transaction (its [config] is
    ignored), and the nested effects commit or abort with the outer
    one. *)
val atomically : ?config:config -> (txn -> 'a) -> 'a

(** Whether this domain is currently inside an [atomically] body —
    i.e. a nested [atomically] here would join rather than start a
    transaction.  For operations that are deliberately
    non-compositional (multi-transaction protocols) and must refuse to
    be flattened. *)
val in_transaction : unit -> bool

(** [read_only f] runs [f] as a {e read-only snapshot transaction}:
    every {!read} is served from the tvar version chains at the
    transaction's start timestamp (a consistent snapshot — some prefix
    of the committed transaction order), any {!write} raises
    {!Read_only_violation}, and the transaction {e never aborts} no
    matter how write-heavy the concurrency ([Stats] field [ro_aborts]
    stays 0 absent user exceptions or an armed watchdog).  Version
    history is maintained once any block has run under [Multi_version]
    — or once a [read_only] has run; the first call arms it — so
    snapshots always find the versions they need (the {!Snapshots}
    registration protocol pins them against GC).

    [retry] inside a read-only transaction raises {!Retry_no_reads}:
    snapshot reads record no watch entries, so there is nothing to
    wake on.

    A nested call joins the enclosing transaction (like {!atomically})
    but raises the read-only flag for its duration, so writes under
    the scope fail even when the outer transaction could write. *)
val read_only : ?config:config -> (txn -> 'a) -> 'a

(** {2 QoS: bounded atomic execution}

    {!atomically} retries until it commits — the starvation-proof
    ladder guarantees it eventually does, but says nothing about
    {e when}.  [atomic] is the bounded variant: the caller states what
    the episode may cost (a deadline, an attempt budget) and receives
    an explicit outcome instead of an open-ended wait.  See DESIGN.md,
    "Robustness & QoS". *)

module Outcome : sig
  (** The outcome lattice of a bounded episode.  Exactly one constructor
      carries a value: everything else guarantees the transaction's
      effects did {e not} happen (no partial writes, no leaked locks). *)
  type 'a t =
    | Committed of 'a  (** the body ran and its effects are visible *)
    | Timed_out  (** the deadline passed before a commit succeeded *)
    | Budget_exhausted  (** the attempt budget ran out *)
    | Shed  (** admission refused by the overload shedder; the body
                never ran *)

  val to_option : 'a t -> 'a option
  val name : 'a t -> string
end

(** [atomic ?deadline ?max_attempts f] runs [f] like {!atomically} but
    bounded.  [deadline] is an {e absolute} {!Clock.now_mono} point in
    seconds (e.g. [Clock.now_mono () +. 0.005]); it is checked before
    every attempt, at commit validation, and inside lock-wait polls,
    and backoff sleeps are clamped to it.  [max_attempts] bounds how
    many attempts the episode may start (independent of
    [config.max_attempts], whose [Too_many_attempts] semantics are
    unchanged).  When the {!Qos.Shedder} is enabled, admission is
    checked first and a refusal returns [Shed] without running [f].

    Irrevocable (serial-fallback) attempts ignore the deadline
    mid-attempt — nothing may abort them — so the episode can only time
    out between attempts once the fallback engaged.

    [read_only] (default false) routes the episode through the
    abort-free snapshot path of {!read_only} under the same QoS
    envelope: the deadline and budget still bound it (a snapshot
    transaction spends no attempts on conflicts, but the shedder,
    deadline and watchdog apply unchanged).

    Nested calls join the enclosing transaction and always return
    [Committed]: the outer episode's QoS envelope covers them. *)
val atomic :
  ?config:config ->
  ?deadline:float ->
  ?max_attempts:int ->
  ?read_only:bool ->
  (txn -> 'a) ->
  'a Outcome.t

(** [deadline txn] is the running episode's absolute deadline in
    {!Clock.now_mono} seconds, if one was set — lock acquisition paths
    with their own timeouts clamp to it. *)
val deadline : txn -> float option

val read : txn -> 'a Tvar.t -> 'a
val write : txn -> 'a Tvar.t -> 'a -> unit

(** Abort the current attempt and block — parking the domain on the
    read set's per-tvar wait lists until a commit changes some
    location read so far (see {!Parking}) — then re-run.  Raises
    {!Retry_no_reads} if nothing was read.  Deadlines set through
    {!atomic} are honored while parked. *)
val retry : txn -> 'a

(** The retry blocking strategy: real parking (default) or the legacy
    busy-poll, kept switchable for comparison benches. *)
type retry_mode = Parking.retry_mode = Park | Poll

val set_retry_mode : retry_mode -> unit
val retry_mode : unit -> retry_mode

(** [retry] waiters currently registered and unwoken, process-wide
    (0 at quiescence — the wait-list orphan audit). *)
val parked_waiters : unit -> int

(** {2 Publication pipeline}

    Writing commits in [Serial_commit] mode route through the
    flat-combining group-commit publisher by default (see {!Publisher}):
    the domain that wins the serial gate drains the whole publication
    list — every pending commit, with its own validation, durable hooks
    and outcome hand-back — in one gate acquisition.
    [set_combining false] selects inline publication at runtime for
    A/B benching, mirroring the {!set_retry_mode} pattern.  Other
    modes always publish inline. *)

val set_combining : bool -> unit
val combining : unit -> bool

(** Combiner linger (seconds): after its own commit the gate winner
    keeps polling the publication list — yielding between polls —
    before releasing, so commits still in flight can join the batch.
    The budget bounds the idle gap between arrivals (it resets after
    every drain), so it only needs to cover scheduling jitter: a
    stream of arrivals keeps the combiner serving, a gap longer than
    the budget releases the gate.  The classic flat-combining dwell
    knob; essential for batching when domains outnumber cores, where
    an arrival otherwise only lands in the drain window if the
    combiner was preempted mid-gate.  Default [0.] (no linger). *)
val set_combine_linger : float -> unit

val combine_linger : unit -> float

(** Adaptive linger: arm the configured {!combine_linger} only when
    the serial gate has recently been contended (a publisher lost the
    gate and queued a slot inside the last few tens of ms).  Batches
    only ever form out of contention, so a solo committer skips the
    dwell entirely — a linger budget can stay configured without
    taxing uncontended commits.  On by default;
    [set_adaptive_linger false] pins the always-lingering
    behaviour. *)
val set_adaptive_linger : bool -> unit

val adaptive_linger : unit -> bool

(** Publication-list entries currently waiting for a combiner,
    process-wide (0 at quiescence — the batch orphan audit). *)
val pending_publications : unit -> int

(** The combine-session face replay logs build cross-transaction
    merging on: inside a combiner's drain, [session ()] is [Some gen]
    (a generation unique to that drain) and [defer_flush f] parks [f]
    until just before the gate releases — outside, [session ()] is
    [None] and [defer_flush] runs [f] immediately. *)
module Combine : sig
  val session : unit -> int option
  val defer_flush : (unit -> unit) -> unit
end

(** [or_else txn f g] runs [f]; if [f] calls [retry], runs [g] instead.
    If [g] also retries, the whole transaction waits on the union of
    both read sets.  Rolling [f] back drops its tvar writes, locks,
    hooks and new transaction locals, but not its Proustian structure
    operations: an eager wrapper's base mutation stays (its inverse is
    dropped unrun), and a lazy replay log that predates [f] keeps
    [f]'s steps. *)
val or_else : txn -> (txn -> 'a) -> (txn -> 'a) -> 'a

(** First alternative that does not retry; an empty list retries
    immediately. *)
val or_else_list : txn -> (txn -> 'a) list -> 'a

(** [guard txn cond] retries the transaction unless [cond] holds — the
    STM-Haskell [check] idiom for building blocking operations. *)
val guard : txn -> bool -> unit

(** Abort this attempt and re-run the atomic block from scratch. *)
val restart : txn -> 'a

val desc : txn -> Txn_desc.t
val config : txn -> config

(** The transaction's current read timestamp (tests/diagnostics). *)
val read_version : txn -> int

val on_commit_locked : txn -> (unit -> unit) -> unit
val after_commit : txn -> (unit -> unit) -> unit

(** Register a durability handler.  If the transaction commits, the
    handler runs in the locked phase (write locks still held, so
    redo-log append order agrees with conflict order) and receives the
    commit version as its log sequence number; registering one forces
    the commit to tick the clock even when the tvar write set is empty,
    so every durable commit owns a distinct LSN.  The handler may
    return a wait thunk — typically a group-commit flush wait — which
    the ladder runs only after all locks and gates are released and the
    [after_commit] handlers have run. *)
val on_commit_durable : txn -> (int -> (unit -> unit) option) -> unit

(** Register an abort handler.  Unlike the other registrations this is
    permitted on a transaction that has already been killed remotely
    (but whose attempt is still running): eager constructions register
    operation inverses right after mutating the base structure, and a
    kill landing in that window must not cause the inverse to be
    dropped. *)
val on_abort : txn -> (unit -> unit) -> unit

(** {2 Fault injection and leak auditing} *)

(** [chaos_point txn p] consults {!Fault} at injection point [p] on
    behalf of [txn]: delays are served in place, a drawn [Abort] raises
    the transaction's conflict-abort, a drawn [Kill] marks its own
    descriptor aborted as a contention manager would.  Irrevocable
    (serial-fallback) attempts only honour the delay component.  The
    Proust layers call this around abstract-lock acquisition. *)
val chaos_point : txn -> Fault.point -> unit

(** Raised by the leak auditor when a finished transaction still owns a
    tvar version-lock, the serial commit gate, the quiesce token, or an
    externally registered resource. *)
exception Lock_leak of string

(** Enable/disable the post-attempt leak audit (off by default; the
    disabled fast path is a single atomic load per attempt). *)
val set_leak_audit : bool -> unit

val leak_audit_enabled : unit -> bool

(** [register_leak_check f] adds an external auditor: [f ~owner] should
    report a held resource description if the finished transaction
    descriptor with id [owner] still holds one.  Used by the
    pessimistic lock allocator to audit its striped rw-locks. *)
val register_leak_check : (owner:int -> string option) -> unit

(** {2 Descriptor-pool introspection}

    Transaction records are pooled per domain and reset between
    attempts (see DESIGN.md, "Descriptor reuse"); only the
    [Txn_desc.t] identity is fresh per attempt.  These entry points
    let tests verify the reset discipline. *)

(** Audit the calling domain's idle pooled record: raises {!Lock_leak}
    if any read/write/local log entry, locked-list entry or hook
    survived the last attempt.  No-op while the domain is inside an
    atomic block (the record is legitimately in use then). *)
val descriptor_pool_check : unit -> unit

(** Times the calling domain's pooled record has been handed out to an
    attempt (monotone; > number of atomic blocks run when conflicts
    forced retries). *)
val pool_reuses : unit -> int

(** Transaction-local storage: per-transaction lazily initialized
    values, dropped when the attempt ends.  This is the analogue of
    ScalaSTM's [TxnLocal], used for replay logs and shadow copies. *)
module Local : sig
  type 'a key

  (** [key init] allocates a new key; [init] runs per transaction on
      first access. *)
  val key : (txn -> 'a) -> 'a key

  val get : txn -> 'a key -> 'a
  val find : txn -> 'a key -> 'a option
  val set : txn -> 'a key -> 'a -> unit
end

(** Convenience aliases for tvar access in transaction style. *)
module Ref : sig
  type 'a t = 'a Tvar.t

  val make : 'a -> 'a t
  val get : txn -> 'a t -> 'a
  val set : txn -> 'a t -> 'a -> unit
  val modify : txn -> 'a t -> ('a -> 'a) -> unit
end
