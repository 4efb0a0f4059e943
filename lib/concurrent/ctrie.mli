(** Concurrent trie map with constant-time snapshots — the repo's
    stand-in for Scala's [concurrent.TrieMap] (Prokopec et al.).

    A persistent {!Hamt} sits behind a single atomic root pointer.
    Every update is one {!Root.update} over the matching {!Snapshot}
    step, so every operation is linearizable and lock-free, and
    [snapshot] is one atomic load.  That snapshot
    capability is exactly what the lazy Proustian wrapper's
    snapshot-replay shadow copies require (§4). *)

type ('k, 'v) t
type ('k, 'v) snapshot

val create : ?hash:('k -> int) -> ?equal:('k -> 'k -> bool) -> unit -> ('k, 'v) t
val get : ('k, 'v) t -> 'k -> 'v option
val contains : ('k, 'v) t -> 'k -> bool

(** [put t k v] binds and returns the previous binding. *)
val put : ('k, 'v) t -> 'k -> 'v -> 'v option

val put_if_absent : ('k, 'v) t -> 'k -> 'v -> 'v option
val remove : ('k, 'v) t -> 'k -> 'v option

(** O(1); exact at the linearization point of the load. *)
val size : ('k, 'v) t -> int

val is_empty : ('k, 'v) t -> bool

(** O(1) point-in-time snapshot. *)
val snapshot : ('k, 'v) t -> ('k, 'v) snapshot

(** The atomic root itself, for {!Root.update} steps and wholesale
    snapshot installs by replay logs. *)
val root : ('k, 'v) t -> ('k, 'v) snapshot Atomic.t

(** Iteration over the live map works on an implicit snapshot. *)
val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
val bindings : ('k, 'v) t -> ('k * 'v) list

module Snapshot : sig
  type ('k, 'v) t = ('k, 'v) snapshot

  val find : ('k, 'v) t -> 'k -> 'v option
  val mem : ('k, 'v) t -> 'k -> bool
  val size : ('k, 'v) t -> int
  val add : ('k, 'v) t -> 'k -> 'v -> ('k, 'v) t * 'v option

  (** Binds an absent key only; returns the input itself otherwise. *)
  val put_if_absent : ('k, 'v) t -> 'k -> 'v -> ('k, 'v) t * 'v option

  (** Returns the input itself when [k] is absent. *)
  val remove : ('k, 'v) t -> 'k -> ('k, 'v) t * 'v option

  val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
  val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
  val bindings : ('k, 'v) t -> ('k * 'v) list
end
