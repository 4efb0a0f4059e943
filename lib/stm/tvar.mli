(** Versioned transactional variables.

    A tvar packs its current value and commit version into one
    immutable pair behind an [Atomic.t], so a reader always observes a
    consistent (value, version) snapshot with a single atomic load.
    Uncommitted values are never published here — writers buffer them
    in their write set and install them only at commit, while holding
    the tvar's owner lock.

    The [readers] list supports the visible-readers conflict mode
    ([Eager_eager]): registered descriptors of transactions that have
    read this tvar and may still be active.  Entries are pruned lazily;
    stale (committed/aborted) entries are ignored by writers.

    Under the [Multi_version] mode (once {!Snapshots.armed}), each
    publish links the displaced state onto an immutable newest-first
    history chain via [prev], bounded to the newest
    {!Snapshots.max_versions} entries plus whatever older versions an
    active snapshot may still reach; {!read_at} serves consistent
    snapshot reads from it.  The single-version modes never arm the
    chain and keep the original one-store publish. *)

type 'a versioned = { value : 'a; version : int; prev : 'a versioned option }

type 'a t = {
  uid : int;
  fbit : int;
      (** precomputed write-set summary-filter bit, [1 lsl (uid mod 62)];
          see {!Rwset.Wlog} *)
  state : 'a versioned Atomic.t;
  mutable chain_len : int;
      (** length of [state]'s version chain, head included; written
          only under the publish-side exclusion (owner lock or serial
          gate) so armed publishes stay O(1) — see [publish] *)
  owner : Txn_desc.t option Atomic.t;
  readers : Txn_desc.t list Atomic.t;
  waiters : Waitq.waiter list Atomic.t;
      (** parked [retry] waiters watching this tvar; see {!Parking} *)
}

(** [make v] is a fresh tvar holding [v] at version 0. *)
val make : 'a -> 'a t

(** Consistent snapshot of the current committed state. *)
val load : 'a t -> 'a versioned

(** Non-transactional peek at the committed value (tests, debugging). *)
val peek : 'a t -> 'a

val current_owner : 'a t -> Txn_desc.t option

(** [try_lock t desc] CASes the owner word from free to [desc]'s
    preallocated {!Txn_desc.owner_word}, so taking a lock allocates
    nothing.  Returns [`Locked] on success, [`Mine] if [desc] already
    owns it, [`Held other] if another transaction owns it. *)
val try_lock : 'a t -> Txn_desc.t -> [ `Locked | `Mine | `Held of Txn_desc.t ]

(** Release the owner lock.  Only the owner may call this. *)
val unlock : 'a t -> Txn_desc.t -> unit

(** Publish a new committed state.  Caller must hold the owner lock
    (or the serial commit gate) — publishes to one tvar never race.
    When {!Snapshots.armed}, the displaced state is linked onto the
    version chain; once the chain reaches twice {!Snapshots.max_versions}
    it is trimmed back against {!Snapshots.floor} (amortized, so the
    common publish allocates one record), and no version visible to an
    active snapshot is ever reclaimed. *)
val publish : 'a t -> 'a -> version:int -> unit

(** [read_at t ~version] is the newest committed version of [t] at or
    below [version], walking the history chain; [None] if the history
    was reclaimed below [version] (unreachable for snapshots
    registered per the {!Snapshots} protocol). *)
val read_at : 'a t -> version:int -> 'a versioned option

(** Length of the version chain including the head (tests; bounded by
    [2 * max_versions] plus versions pinned by active snapshots, since
    trimming is amortized — see {!publish}). *)
val version_chain_len : 'a t -> int

(** Register [desc] as a visible reader (idempotent). *)
val register_reader : 'a t -> Txn_desc.t -> unit

(** Active registered readers other than [except]. *)
val active_readers : 'a t -> except:Txn_desc.t -> Txn_desc.t list

(** Register a [retry] waiter (CAS-push, pruning dead entries past a
    small threshold).  Returns the new list length, for the wait-list
    high-water gauge. *)
val add_waiter : 'a t -> Waitq.waiter -> int

(** Remove a departing waiter; a no-op if a committer's
    [take_waiters] already detached it. *)
val remove_waiter : 'a t -> Waitq.waiter -> unit

(** Detach and return the whole wait list (committer side).  The
    caller must have published the new version first — see the
    no-lost-wakeup argument in {!Parking}. *)
val take_waiters : 'a t -> Waitq.waiter list

(** Current wait-list length, dead entries included (tests). *)
val waiter_count : 'a t -> int
