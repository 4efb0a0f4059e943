(** Concurrent ordered map: a lazy-synchronization skiplist
    (Herlihy & Shavit ch. 14, adapted from set to map).

    Per-node locks, optimistic traversal with validation, logical
    deletion via mark bits.  [get]/[contains] are wait-free
    traversals; [put]/[remove] lock at most the predecessor/victim
    nodes at each level.  No snapshots — which is exactly why the
    Proustian wrapper over this structure must use the eager update
    strategy with inverses, unlike the snapshot-able {!Cow_omap}. *)

type ('k, 'v) t

val create : ?compare:('k -> 'k -> int) -> ?max_level:int -> unit -> ('k, 'v) t
val get : ('k, 'v) t -> 'k -> 'v option
val contains : ('k, 'v) t -> 'k -> bool

(** [put t k v] binds and returns the previous binding. *)
val put : ('k, 'v) t -> 'k -> 'v -> 'v option

val remove : ('k, 'v) t -> 'k -> 'v option

(** Quiescently consistent count. *)
val size : ('k, 'v) t -> int

val is_empty : ('k, 'v) t -> bool

(** Smallest live binding at traversal time. *)
val min_binding : ('k, 'v) t -> ('k * 'v) option

(** Largest live binding at traversal time, found down the towers. *)
val max_binding : ('k, 'v) t -> ('k * 'v) option

(** Weakly consistent ascending bindings with [lo <= k <= hi]: seeks
    [lo] down the towers as {!get} does, then walks level 0 to the first
    key above [hi], so O(log n + k) expected comparisons. *)
val range : ('k, 'v) t -> lo:'k -> hi:'k -> ('k * 'v) list

(** Weakly consistent ascending bindings. *)
val bindings : ('k, 'v) t -> ('k * 'v) list
