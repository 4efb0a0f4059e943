(** The attempt driver: commit/abort execution, the serial-irrevocable
    quiesce protocol, and the starvation-proof escalation ladder that
    {!Stm.atomically}, {!Stm.read_only} and {!Stm.atomic} run root
    transactions through.  One loop drives every episode; attempt [n]
    runs on a rung picked from the config, [n] and the read-only flag:
    read-only snapshot, plain optimistic, priority-boosted optimistic,
    or serial-irrevocable under the quiesce token. *)

(** Episode-level QoS failures, raised only at attempt boundaries (a
    mid-attempt deadline hit aborts the attempt with
    [Abort_exn Timed_out] and is converted at the next boundary).
    {!Stm.atomic} translates both into outcome values; they only escape
    to user code through the façade's outcome-free entry points, which
    never set a deadline or budget. *)
exception Deadline_exceeded

exception Out_of_budget

(** Run one root atomic block to a committed result, retrying through
    the ladder.  Selects the commit protocol once, pools the attempt
    record via {!Txn_state.begin_episode}, and audits/retires every
    attempt.

    [read_only] runs every attempt against a consistent registered
    snapshot ({!Protocol.read_only_proto}): reads come from the tvar
    version chains at the snapshot timestamp, nothing is logged,
    validated or locked, and — absent user exceptions or an armed
    watchdog — the transaction never aborts regardless of concurrent
    writers.  Arms {!Snapshots} on entry.

    [deadline_ns] (absolute {!Clock.now_mono_ns}; 0 = none) bounds the
    episode: checked before every attempt, at validation, and inside
    lock-wait polls; backoff sleeps are clamped to it.
    [attempt_budget] (0 = unlimited) bounds the number of attempts the
    episode may start, independently of [cfg.max_attempts]. *)
val run :
  read_only:bool ->
  deadline_ns:int ->
  attempt_budget:int ->
  Txn_state.config ->
  (Txn_state.t -> 'a) ->
  'a
