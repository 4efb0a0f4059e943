(** Lazy Proustian priority queue over the copy-on-write {!Cow_pqueue}
    — the paper's [LazyPriorityQueue] (§4): snapshot shadow copies
    committed by root CAS; [combine] merges the insert-only
    transactions of one combiner drain.  Same CA as {!P_pqueue}. *)

type 'v t

val make :
  cmp:('v -> 'v -> int) ->
  ?stripes:int ->
  ?lap:Trait.lap_choice ->
  ?size_mode:[ `Counter | `Transactional ] ->
  ?combine:bool ->
  unit ->
  'v t

val insert : 'v t -> Stm.txn -> 'v -> unit
val remove_min : 'v t -> Stm.txn -> 'v option
val min : 'v t -> Stm.txn -> 'v option
val contains : 'v t -> Stm.txn -> 'v -> bool
val size : 'v t -> Stm.txn -> int
val committed_size : 'v t -> int
val ops : 'v t -> 'v Trait.Pqueue.ops
