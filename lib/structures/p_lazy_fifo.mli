(** Lazy Proustian FIFO queue over the copy-on-write {!Cow_queue}:
    snapshot shadow copies committed by root CAS; [combine] merges the
    enqueue-only transactions of one combiner drain.  Shares
    {!Trait.Queue}'s conflict abstraction; the lazy strategy keeps
    uncommitted effects off the shared queue, so the eager dequeue
    guard is unnecessary. *)

type 'v t

val make :
  ?lap:Trait.lap_choice ->
  ?size_mode:[ `Counter | `Transactional ] ->
  ?combine:bool ->
  unit ->
  'v t

val enqueue : 'v t -> Stm.txn -> 'v -> unit
val dequeue : 'v t -> Stm.txn -> 'v option
val front : 'v t -> Stm.txn -> 'v option
val size : 'v t -> Stm.txn -> int
val committed_size : 'v t -> int
val to_list : 'v t -> 'v list
val ops : 'v t -> 'v Trait.Queue.ops
