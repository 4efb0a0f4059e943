(** Generic eager Proustian map (Figure 2a), parameterized by the
    thread-safe base map it wraps.  Operations run against the base
    immediately; each mutation registers an inverse built from its own
    return value.

    Soundness: pessimistic LAP under any STM mode (Theorem 5.1);
    optimistic LAP requires encounter-time conflict detection
    ([Eager_lazy]/[Eager_eager]) — Theorem 5.2 and Figure 1's empty
    quarter. *)

(** Accessors onto a linearizable base map. *)
type ('k, 'v) base = {
  bget : 'k -> 'v option;
  bput : 'k -> 'v -> 'v option;
  bremove : 'k -> 'v option;
  bcontains : 'k -> bool;
}

type ('k, 'v) t

val make :
  base:('k, 'v) base ->
  lap:'k Lock_allocator.t ->
  ?size_mode:[ `Counter | `Transactional ] ->
  ?name:string ->
  unit ->
  ('k, 'v) t

val get : ('k, 'v) t -> Stm.txn -> 'k -> 'v option
val put : ('k, 'v) t -> Stm.txn -> 'k -> 'v -> 'v option
val remove : ('k, 'v) t -> Stm.txn -> 'k -> 'v option
val contains : ('k, 'v) t -> Stm.txn -> 'k -> bool
val size : ('k, 'v) t -> Stm.txn -> int
val committed_size : ('k, 'v) t -> int
val ops : ('k, 'v) t -> ('k, 'v) Trait.Map.ops
