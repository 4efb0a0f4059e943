(** Copy-on-write ordered map with O(1) snapshots: a pure persistent
    B+-tree.  Leaves hold sorted key and value arrays, internal nodes
    separator keys and child arrays; every leaf is at the same depth,
    and every node but the root holds between [fanout / 2] and
    [fanout] entries.  Updates copy one root-to-leaf path, so a
    snapshot is just a value, and a range read walks a few wide leaves
    with keys compared only on its two boundary paths.  The
    ordered-map base the paper's footnote 4 wishes existed as a
    snapshot-able concurrent collection: [P_snap_omap] holds one behind
    a tvar, and {!Root.update} over an [Atomic.t] makes it a lock-free
    concurrent map. *)

type ('k, 'v) snapshot

(** Most keys in a leaf, and most children of an internal node. *)
val fanout : int

(** The empty map ordered by [compare] (default [Stdlib.compare]). *)
val empty : ?compare:('k -> 'k -> int) -> unit -> ('k, 'v) snapshot

module Snapshot : sig
  type ('k, 'v) t = ('k, 'v) snapshot

  val find : ('k, 'v) t -> 'k -> 'v option

  (** Returns the updated map and the previous binding. *)
  val add : ('k, 'v) t -> 'k -> 'v -> ('k, 'v) t * 'v option

  (** Returns the input itself when [k] is absent. *)
  val remove : ('k, 'v) t -> 'k -> ('k, 'v) t * 'v option

  val min_binding : ('k, 'v) t -> ('k * 'v) option
  val max_binding : ('k, 'v) t -> ('k * 'v) option

  (** [range s ~lo ~hi] is the bindings with [lo <= k <= hi], ascending.
      Each bound is binary-searched only on its own root-to-leaf path,
      one search per level (two per level above the node where the
      paths part), and the children between the paths are emitted
      without a comparison: at most
      [2 * depth s * ceil (log2 (fanout + 1))] comparisons for any
      width.  O(log n + k). *)
  val range : ('k, 'v) t -> lo:'k -> hi:'k -> ('k * 'v) list

  val size : ('k, 'v) t -> int
  val bindings : ('k, 'v) t -> ('k * 'v) list

  (** Levels from the root to the leaves; [1] for a lone leaf. *)
  val depth : ('k, 'v) t -> int

  (** Sorted keys, separators that bound their subtrees, leaves all at
      one depth, occupancy within [fanout / 2 .. fanout] below the root
      (an internal root has at least two children), and a size that
      matches the bindings.  For tests. *)
  val well_formed : ('k, 'v) t -> bool
end
