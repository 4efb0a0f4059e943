(** Persistent AVL tree map over ordered keys.  The immutable core of
    {!Cow_omap}, the snapshot-able ordered map the Proustian ordered
    map wraps.  All operations are pure. *)

type ('k, 'v) t

val empty : ('k, 'v) t

(** Levels on the longest root-to-leaf path; [0] for the empty tree. *)
val height : ('k, 'v) t -> int

val find : compare:('k -> 'k -> int) -> 'k -> ('k, 'v) t -> 'v option

(** Returns the updated tree and the previous binding. *)
val add :
  compare:('k -> 'k -> int) -> 'k -> 'v -> ('k, 'v) t -> ('k, 'v) t * 'v option

val remove :
  compare:('k -> 'k -> int) -> 'k -> ('k, 'v) t -> ('k, 'v) t * 'v option

val min_binding : ('k, 'v) t -> ('k * 'v) option
val max_binding : ('k, 'v) t -> ('k * 'v) option
val cardinal : ('k, 'v) t -> int

(** [range ~compare ~lo ~hi t] is the bindings with [lo <= k <= hi],
    ascending.  Keys are compared only on the two boundary paths: at
    most two comparisons per level down to the split node, then one per
    level below it, so at most [2 * height] in all; subtrees inside the
    range are emitted without comparisons.  O(log n + k). *)
val range :
  compare:('k -> 'k -> int) -> lo:'k -> hi:'k -> ('k, 'v) t -> ('k * 'v) list

val bindings : ('k, 'v) t -> ('k * 'v) list

(** AVL balance + ordering invariants, for property tests. *)
val well_formed : compare:('k -> 'k -> int) -> ('k, 'v) t -> bool
