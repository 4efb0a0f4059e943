(** Eager Proustian hash map — {!Proust_concurrent.Chashmap} wrapped by
    the generic eager construction (Figure 2a over ConcurrentHashMap).

    Soundness: pessimistic LAP under any STM mode (Theorem 5.1);
    optimistic LAP only under the [Eager_lazy]/[Eager_eager] STM modes
    (Theorem 5.2 — see the design-space table in {!Proust}). *)

type ('k, 'v) t

val make :
  ?slots:int ->
  ?lap:Trait.lap_choice ->
  ?size_mode:[ `Counter | `Transactional ] ->
  unit ->
  ('k, 'v) t

(** Base-map accessors over a raw backing structure, for callers
    composing their own wrappers. *)
val base_of : ('k, 'v) Proust_concurrent.Chashmap.t -> ('k, 'v) Eager_map.base

val get : ('k, 'v) t -> Stm.txn -> 'k -> 'v option

(** [put t txn k v] binds [k] and returns the previous binding, as seen
    by this transaction. *)
val put : ('k, 'v) t -> Stm.txn -> 'k -> 'v -> 'v option

val remove : ('k, 'v) t -> Stm.txn -> 'k -> 'v option
val contains : ('k, 'v) t -> Stm.txn -> 'k -> bool

(** Committed size plus this transaction's pending delta (Listing 2's
    reified size). *)
val size : ('k, 'v) t -> Stm.txn -> int

(** Committed size, non-transactionally. *)
val committed_size : ('k, 'v) t -> int

(** First-class view for benchmarks and generic drivers. *)
val ops : ('k, 'v) t -> ('k, 'v) Trait.Map.ops

(** The raw backing structure (tests, diagnostics). *)
val backing : ('k, 'v) t -> ('k, 'v) Proust_concurrent.Chashmap.t
