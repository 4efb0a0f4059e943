(** The publication layer: how a committed intent reaches the shared
    store.  {!Commit_ladder} calls {!publish} once per commit.  A
    [Plan_locks] commit publishes inline; a writing [Serial_gate]
    commit goes through flat-combining group commit unless combining
    is off or the attempt is irrevocable.  Both paths validate,
    linearize and publish through one internal step.  The publication
    list, batch state and linger heuristics stay internal. *)

(** Run every hook even if one raises; re-raise the first failure. *)
val run_hooks : (unit -> unit) list -> unit

(** What the owner still has to do after its intent published, on its
    own domain. *)
type done_t = {
  pd_after : (unit -> unit) list;  (** after-commit hooks, run order *)
  pd_waits : (unit -> unit) list;  (** durable flush waits, run order *)
  pd_failure : exn option;  (** earliest locked-phase hook failure *)
  pd_wrote : bool;  (** tvar writes published: scan wait lists *)
}

(** Publish one validated attempt, inline or through the combiner.
    Raises {!Txn_state.Abort_exn} when the attempt cannot commit
    (failed validation, remote kill, expired deadline). *)
val publish : Txn_state.t -> has_writes:bool -> done_t

(** {1 Group-commit knobs} *)

(** Group commit for Serial_commit; on by default. *)
val set_combining : bool -> unit

val combining : unit -> bool

(** Combiner linger budget in seconds (0 = off, the default). *)
val set_combine_linger : float -> unit

val combine_linger : unit -> float

(** Arm the linger only after recent gate contention; on by
    default. *)
val set_adaptive_linger : bool -> unit

val adaptive_linger : unit -> bool

(** Undrained entries on the publication list (the orphan audit). *)
val pending_publications : unit -> int

(** {1 Combine sessions} *)

(** The current combine session's generation; [None] outside a
    combiner's drain.  Replay logs key cross-transaction merging by it. *)
val session : unit -> int option

(** Defer [f] to the end of the current combine session (before the
    gate releases); outside a session, run it now. *)
val defer_flush : (unit -> unit) -> unit
