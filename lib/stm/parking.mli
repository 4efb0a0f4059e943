(** Blocking [retry]: per-tvar wait lists and real domain parking.

    A retrying transaction registers a {!Waitq.waiter} on every tvar
    in its read set, revalidates the recorded versions, and only then
    parks; the commit path publishes new versions {e before} detaching
    and waking wait lists, so the register/revalidate/park order
    closes the lost-wakeup window (the full argument is in the
    implementation header).  Deadlines are honored while parked via a
    lazily-spawned timer domain.  The legacy busy-poll wait survives
    as a switchable [Poll] mode so benches can compare parks against
    poll iterations on one workload. *)

type retry_mode = Park | Poll

(** Process-wide switch, defaulting to [Park]. *)
val set_retry_mode : retry_mode -> unit

val retry_mode : unit -> retry_mode

(** Waiters currently registered and unwoken, process-wide; 0 at
    quiescence (the chaos suite's orphaned-entry audit). *)
val live_waiters : unit -> int

(** Commit fast path: anything parked at all?  One atomic load. *)
val have_waiters : unit -> bool

(** A watched (tvar, recorded-version) pair, from the aborted
    attempt's read log. *)
type watch = Rwset.packed_tvar * int

val changed : watch -> bool

(** Block until a watched version moves, the (absolute, ns, 0 = none)
    deadline passes, or a spurious unpark fires.  [entries] must be
    non-empty; the caller re-attempts and re-blocks as needed. *)
val await : deadline_ns:int -> watch list -> unit

(** [park_until ~deadline_ns w] blocks on [w] until it is woken or,
    when [deadline_ns <> 0], the deadline timer expires it at that
    absolute {!Clock.now_mono_ns} point (at most one {!timer_slice}
    late).  The primitive beneath {!await}; the redo log parks its
    durable waiters and its flusher's linger with it. *)
val park_until : deadline_ns:int -> Waitq.waiter -> unit

(** The deadline timer's longest sleep, seconds: a registration that
    undercuts the current sleep fires at most this late. *)
val timer_slice : float

(** Detach and wake everything parked on [tv].  Call only after the
    new version is published. *)
val wake_tvar : Rwset.packed_tvar -> unit
