(* Parking primitives for blocking [retry]: the waiter record that tvar
   wait lists hold, and the per-domain Mutex/Condition lot it blocks
   on.  Sits beneath [Tvar] in the layering so tvars can carry waiter
   lists; the registration/validation/park protocol itself lives above,
   in [Parking]. *)

type state = Waiting | Woken | Cancelled

type lot = { mu : Mutex.t; cv : Condition.t }

type waiter = {
  w_lot : lot;
  w_counted : bool;
      (* a tvar-retry waiter: moves the [live] count and the park/wake
         stats.  Redo-log durable waiters and the flusher's linger
         share the lot and the state machine but not the accounting —
         [Parking.have_waiters] must keep meaning "a retry is parked". *)
  w_state : state Atomic.t;
  w_wake_ns : int Atomic.t;
      (* commit-side wake-publication timestamp (0 = none): stamped by
         [wake] just before its transition attempt when metrics are on,
         so the resuming domain can histogram publication -> resume
         latency.  [expire] never stamps — timer wakes are episode
         timeouts, not wakeup-latency samples. *)
}

(* One lot per domain, reused across parks: a domain blocks on at most
   one waiter at a time (parks happen between ladder attempts, never
   nested), so the lot needs no generation counter — the park loop's
   condition is the waiter's own state word. *)
let lot_key : lot Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { mu = Mutex.create (); cv = Condition.create () })

(* Waiters whose state is still [Waiting], across all wait lists.  The
   committer's fast path ([Parking.have_waiters]) is one load of this;
   the chaos suite's orphan audit checks it returns to 0 at
   quiescence. *)
let live = Atomic.make 0

let live_waiters () = Atomic.get live

let make ?(counted = true) () =
  {
    w_lot = Domain.DLS.get lot_key;
    w_counted = counted;
    w_state = Atomic.make Waiting;
    w_wake_ns = Atomic.make 0;
  }

let is_waiting w = Atomic.get w.w_state = Waiting

(* Register the waiter in the live count.  Called once, after the
   waiter is published on every wait list it watches. *)
let enlist w = if w.w_counted then Atomic.incr live

(* The single Waiting -> final transition: whoever wins the CAS owns
   the [live] decrement, so wake/cancel/expire racing each other (a
   committer, the deadline timer, and the waiter's own revalidation
   can all fire at once) settle to exactly one transition. *)
let finish w next =
  if Atomic.compare_and_set w.w_state Waiting next then begin
    if w.w_counted then Atomic.decr live;
    true
  end
  else false

(* Wake a waiter (commit to a watched tvar).  Taking the lot mutex
   around the broadcast closes the missed-signal window: the parker
   checks its state under the same mutex before each wait, so either it
   sees the new state and never blocks, or it is already inside
   [Condition.wait] and receives the broadcast. *)
let signal w =
  Mutex.lock w.w_lot.mu;
  Condition.broadcast w.w_lot.cv;
  Mutex.unlock w.w_lot.mu

let wake w =
  (* Stamp before the transition attempt: a winning wake's timestamp
     is ordered (SC) before the state flip the parker resumes on; a
     losing stamp is harmless (the parker only reads it after a Woken
     observation, and a raced [expire] win just yields one spurious
     sample). *)
  if w.w_counted && Proust_obs.Metrics.enabled () then
    Atomic.set w.w_wake_ns (Proust_obs.Trace.now_ns ());
  if finish w Woken then begin
    if w.w_counted then Stats.record_wakeup ();
    signal w;
    true
  end
  else false

let wake_ns w = Atomic.get w.w_wake_ns

(* The deadline timer's wake: same transition, but not counted as a
   commit wakeup — the episode surfaces it as a QoS timeout instead. *)
let expire w =
  if finish w Woken then begin
    signal w;
    true
  end
  else false

(* Cancel without blocking (failed revalidation, chaos-forced spurious
   unpark).  No signal needed: only the owning domain parks on [w], and
   it has not parked yet. *)
let cancel w = finish w Cancelled

(* Block until the state leaves [Waiting].  A [Condition.wait] return
   that finds the state unchanged is an OS-level spurious wakeup:
   counted, then re-waited. *)
let park w =
  Mutex.lock w.w_lot.mu;
  while Atomic.get w.w_state = Waiting do
    Condition.wait w.w_lot.cv w.w_lot.mu;
    if w.w_counted && Atomic.get w.w_state = Waiting then
      Stats.record_spurious_wakeup ()
  done;
  Mutex.unlock w.w_lot.mu
