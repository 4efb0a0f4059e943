(** The append-only redo log with group-commit fsync batching.

    The commit ladder's durability hooks feed this module: an append
    happens in the commit locked phase (so append order agrees with
    conflict order) and returns a {e ticket}; the flush wait — run by
    the ladder only after every lock and gate is released — blocks on
    that ticket until a dedicated flusher domain has written and
    fsynced the batch containing it.  Tickets order appends; LSNs
    (commit versions) order replay.  The two differ: non-conflicting
    transactions on different domains can append out of LSN order, and
    the flusher sorts each batch by LSN before writing so on-disk order
    is as close to replay order as batching allows.

    Crash injection: the {!Fault} durability points are consulted
    inside [append], the flusher's batch write, the flusher's
    publish-to-wake window and [compact].  A drawn
    [Crash] {!halt}s the log — pending appends are dropped, subsequent
    appends are refused, parked flush waits are woken and return
    [false] unless their ticket was already durable — while the file
    keeps whatever had already been written, including (at
    [Durable_mid_fsync]) a deliberate byte-prefix of the in-flight
    batch that tears its last frame exactly as a power failure
    would. *)

type t

(** [create ~path ()] opens (or creates) the log at [path], validating
    or writing the file header, and starts the flusher domain.
    [batch_delay] seconds (default 0) is the longest the flusher
    lingers after waking so concurrent committers accumulate into one
    fsync — the group-commit knob the durability bench sweeps.  The
    linger ends early once every committer of the log (a domain that
    has called {!wait_durable} on it and not yet exited) is parked in
    {!wait_durable}, or when {!flush}, {!close} or {!compact} asks for
    the buffer.  [fsync_delay] seconds (default 0) simulates device
    latency: the flusher sleeps that long inside each flush cycle,
    after taking the buffer, so appends arriving mid-sync wait for the
    next batch — the dynamic that makes real storage reward bigger
    batches.  The combining bench uses it to model a disk whose sync
    round-trip dwarfs the in-memory commit path. *)
val create :
  ?batch_delay:float -> ?fsync_delay:float -> path:string -> unit -> t

val path : t -> string

(** [append t ~fmt ~lsn payload] frames and buffers one record, waking
    the flusher.  Returns the append ticket, or [None] when the log has
    halted (the record is dropped; the commit stays in memory but will
    not survive recovery). *)
val append : t -> fmt:Frame.format -> lsn:int -> string -> int option

(** [wait_durable t ?deadline ticket] parks the calling domain until
    the batch containing [ticket] is fsynced, and makes the domain a
    committer of [t] (see {!create}) until it exits.  [deadline] is an
    absolute {!Clock.now_mono} point in seconds ({!Stm.atomic}-style),
    honoured by the {!Parking} deadline timer; returns [false] on
    deadline expiry or when the log halts first.  [true] means
    [ticket <= flushed t] held when the wait returned. *)
val wait_durable : ?deadline:float -> t -> int -> bool

(** Every ticket at or below this is on disk. *)
val flushed : t -> int

(** Waits currently parked on the log; 0 once they have all returned. *)
val parked : t -> int

(** Drain and fsync everything currently buffered, ending any linger
    at once (no-op when halted).  Does not make the caller a
    committer. *)
val flush : t -> unit

(** Simulated power failure: drop pending appends, refuse new ones,
    wake every parked wait (each returns [false] unless its ticket was
    already durable), stop the flusher.  Idempotent.  The file is
    left exactly as the flusher last wrote it. *)
val halt : t -> unit

val halted : t -> bool

(** [compact t ~snapshot ~upto_lsn] folds the log's prefix into a
    snapshot file: writes [snapshot] (an opaque payload the owning
    structure knows how to reload) tagged with [upto_lsn] to a
    temporary file, fsyncs, atomically renames it over [path]'s [.snap]
    sibling, then rewrites the log keeping only records with
    LSN > [upto_lsn].  The caller must quiesce committers first — no
    concurrent [append] may run.  Consults [Durable_mid_compaction]
    between the steps; a drawn [Crash] halts with either the old
    snapshot + full log or the new snapshot + untruncated log on disk,
    both of which recovery handles (records ≤ the snapshot LSN are
    skipped). *)
val compact : t -> snapshot:string -> upto_lsn:int -> unit

(** Stop the flusher (flushing what is buffered) and close the file. *)
val close : t -> unit

(** Framed bytes accepted by [append] since [create] (halted-dropped
    appends excluded); with the append count this gives the
    bytes-per-commit figure the durability bench reports. *)
val bytes_appended : t -> int

val appends : t -> int

(** The [.snap] sibling of a log path ([foo.redo] → [foo.snap]). *)
val snap_path : string -> string

(** Header written at the start of snapshot files. *)
val snap_header : string
