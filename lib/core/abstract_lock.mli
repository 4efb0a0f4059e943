(** The [AbstractLock] of Listing 1: the bridge between a wrapped
    operation and the synchronisation supplied by a lock allocator
    policy.

    [apply] acquires the declared intents through the LAP, runs the
    operation, and — under the eager update strategy — registers the
    operation's inverse as a rollback handler, to be run in reverse
    registration order if the transaction aborts.

    Under the lazy strategy no inverse is registered (aborting simply
    drops the replay log); the operation body passed by a lazy wrapper
    is expected to route through a {!Replay_log}. *)

type 'k t

val make : lap:'k Lock_allocator.t -> strategy:Update_strategy.t -> 'k t
val strategy : 'k t -> Update_strategy.t
val lap_kind : 'k t -> Lock_allocator.kind

(** [apply t txn intents ?inverse f] — the Scala
    [abstractLock(acquire)(f)(invF)].  [inverse] receives the
    operation's result, mirroring how Figure 2a's [put] inverts using
    the returned previous binding. *)
val apply :
  'k t -> Stm.txn -> 'k Intent.t list -> ?inverse:('z -> unit) -> (unit -> 'z) -> 'z

(** [acquire_key t txn k ~write] is the acquisition half of [apply t
    txn [Write k]] (or [[Read k]]): the caller runs its operation
    inline afterwards and, under the eager strategy, registers its own
    inverse with [Stm.on_abort].  The single-key path of the map
    wrappers: no intent list, no operation closure. *)
val acquire_key : 'k t -> Stm.txn -> 'k -> write:bool -> unit

(** [acquire_stable t txn compute] acquires the intents demanded by the
    current (state-dependent) computation, then re-computes and
    acquires any newly demanded intents, until a fixed point.  This is
    the boosting re-sampling discipline for intents that consult the
    live base state (the §3 counter's threshold test, a queue's
    emptiness test): between sampling and acquisition the state may
    shift and demand stronger synchronization.  Intent keys are
    compared structurally; an acquired write covers a later read of the
    same element. *)
val acquire_stable : 'k t -> Stm.txn -> (unit -> 'k Intent.t list) -> unit
