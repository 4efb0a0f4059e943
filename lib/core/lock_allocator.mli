(** Lock allocator policies (§2).

    A LAP allocates concurrency-control primitives for the slots of a
    conflict abstraction:

    - the {e pessimistic} LAP hands out standard re-entrant read/write
      locks, acquired before the operation runs and held until the
      transaction commits or aborts (boosting-style two-phase locking;
      deadlock is broken by deadline timeout, which aborts and retries
      the transaction);
    - the {e optimistic} LAP maps lock invocations onto reads and
      writes of STM-managed memory locations, letting the underlying
      STM detect and manage the conflicts (predication-style).

    Both interpret the same {!Conflict_abstraction}, which is the
    unification the paper's design space rests on. *)

type kind = Optimistic | Pessimistic

type 'k t = {
  kind : kind;
  name : string;
  acquire : Stm.txn -> 'k Intent.t list -> unit;
      (** Perform the concrete synchronisation for the given intents.
          May abort the transaction (pessimistic deadline expiry,
          optimistic conflict). *)
  acquire_key : Stm.txn -> 'k -> write:bool -> unit;
      (** [acquire_key txn k ~write] is [acquire txn [Write k]] (or
          [[Read k]]) through the same per-access primitive.  Under a
          per-key conflict abstraction
          ({!Conflict_abstraction.slot_of}) it builds no intent or
          access list and allocates nothing of its own. *)
}

(** Pessimistic LAP over an array of {!Proust_concurrent.Rw_lock}, one
    per conflict-abstraction slot.  [timeout] is the per-acquisition
    deadline in seconds before the transaction restarts (default 5ms).
    All locks a transaction acquired are released after commit or on
    abort. *)
val pessimistic :
  ?timeout:float -> ca:'k Conflict_abstraction.t -> unit -> 'k t

(** Optimistic LAP over an array of STM tvars, one per slot.  A write
    access stores the writing attempt's {!Txn_desc.id} as its token
    (§3: "values written are unique, such as sequence numbers"): ids
    are unique per attempt, since a retried attempt gets a fresh
    descriptor, so each committed region write carries a value no
    other attempt wrote, and no process-wide counter is contended.
    Every STM mode validates reads by version, not by value, so this
    uniqueness is all the soundness argument needs.  A read access
    performs an STM read.

    [validate_writes] additionally performs an STM read before each
    write access, putting the slot in the read set so that commit-time
    validation catches conflicting commits even under STMs with lazy
    conflict detection.  This is the bracket Theorem 5.3 requires for
    lazy/optimistic objects; switching it off reproduces the paper's
    weaker eager/optimistic variant that is only opaque when the STM
    detects all conflicts eagerly (Theorem 5.2) — measurable with the
    [Eager_eager] STM mode. *)
val optimistic :
  ?validate_writes:bool -> ca:'k Conflict_abstraction.t -> unit -> 'k t
