(** Concurrent copy-on-write ordered map with O(1) snapshots: a
    persistent AVL behind an atomic root.  Linearizable, lock-free, and
    serves range reads in O(log n + k) key comparisons ({!Avl.range}) —
    the ordered-map base the paper's footnote 4 wishes existed as a
    snapshot-able concurrent collection. *)

type ('k, 'v) t
type ('k, 'v) snapshot

val create : ?compare:('k -> 'k -> int) -> unit -> ('k, 'v) t
val get : ('k, 'v) t -> 'k -> 'v option
val put : ('k, 'v) t -> 'k -> 'v -> 'v option
val remove : ('k, 'v) t -> 'k -> 'v option
val contains : ('k, 'v) t -> 'k -> bool
val min_binding : ('k, 'v) t -> ('k * 'v) option

(** Ascending bindings with [lo <= k <= hi] at a single linearization
    point (an implicit snapshot). *)
val range : ('k, 'v) t -> lo:'k -> hi:'k -> ('k * 'v) list

val size : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool
val snapshot : ('k, 'v) t -> ('k, 'v) snapshot

module Snapshot : sig
  type ('k, 'v) t = ('k, 'v) snapshot

  val find : ('k, 'v) t -> 'k -> 'v option
  val add : ('k, 'v) t -> 'k -> 'v -> ('k, 'v) t * 'v option

  (** Returns the input itself when [k] is absent. *)
  val remove : ('k, 'v) t -> 'k -> ('k, 'v) t * 'v option

  val min_binding : ('k, 'v) t -> ('k * 'v) option
  val max_binding : ('k, 'v) t -> ('k * 'v) option
  val range : ('k, 'v) t -> lo:'k -> hi:'k -> ('k * 'v) list
  val size : ('k, 'v) t -> int
  val bindings : ('k, 'v) t -> ('k * 'v) list
end
