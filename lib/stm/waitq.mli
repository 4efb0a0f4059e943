(** Parking primitives for blocking [retry]: the waiter record held by
    tvar wait lists, and the per-domain Mutex/Condition parking lot it
    blocks on.

    A waiter's lifecycle is a single [Waiting -> Woken|Cancelled]
    transition, decided by CAS, so a committer's wake, the deadline
    timer's expiry and the owner's own cancellation can race freely:
    exactly one wins, and it owns the global live-waiter accounting.
    The registration / revalidation / park protocol that makes this
    lost-wakeup-free lives above, in {!Parking}. *)

type state = Waiting | Woken | Cancelled

type lot = { mu : Mutex.t; cv : Condition.t }

type waiter = {
  w_lot : lot;
  w_counted : bool;  (** see {!make} *)
  w_state : state Atomic.t;
  w_wake_ns : int Atomic.t;
      (** commit-wake publication timestamp, 0 = none (see {!wake_ns}) *)
}

(** Fresh waiter bound to the calling domain's parking lot.  With
    [~counted:false] (default [true]) the waiter is invisible to
    {!live_waiters} and to the [parks]/[wakeups]/[spurious_wakeups]
    stats: the redo log parks durable waiters this way, so they never
    trip the commit path's retry-wake fast path. *)
val make : ?counted:bool -> unit -> waiter

val is_waiting : waiter -> bool

(** Count the waiter live.  Call once, after it is published on every
    wait list it watches; the matching decrement rides on the winning
    [wake]/[expire]/[cancel]. *)
val enlist : waiter -> unit

(** Waiters still in [Waiting] state process-wide.  The commit path's
    no-waiters fast path and the chaos suite's orphan audit (0 at
    quiescence) both read this. *)
val live_waiters : unit -> int

(** Commit-side wake: [true] if this call won the transition (stat
    counted, parked domain signalled).  With metrics enabled, stamps
    the waiter's wake-publication timestamp first. *)
val wake : waiter -> bool

(** The commit-wake publication timestamp ({!Proust_obs.Trace.now_ns}
    base), 0 if no commit-side wake stamped this waiter — the resuming
    domain subtracts it from its own clock for the wakeup-latency
    histogram.  Timer expiries leave it 0. *)
val wake_ns : waiter -> int

(** Deadline-timer wake: like [wake] but not counted as a commit
    wakeup — the episode reports it as a QoS timeout. *)
val expire : waiter -> bool

(** Owner-side cancellation before parking: [true] if it won. *)
val cancel : waiter -> bool

(** Block until the state leaves [Waiting]; returns immediately if it
    already has.  OS-level spurious wakeups are counted and
    re-waited. *)
val park : waiter -> unit
