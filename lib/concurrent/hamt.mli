(** Persistent hash-array-mapped trie.

    The immutable core of {!Ctrie}: 32-way branching on successive
    5-bit slices of the key hash (Bagwell's "Ideal Hash Trees").  All
    operations are pure; updates share structure with the original,
    which is what makes Ctrie snapshots O(1).

    Layout (CHAMP, Steindorfer and Vinju, OOPSLA 2015): every node is
    one array, two 32-bit bitmaps followed by its bindings inline as
    key/value pairs and then its sub-nodes, each found by a
    constant-time popcount of its bitmap below the slot.  A binding
    costs its two slots and stores no hash: the key is rehashed only
    when a second key lands on its chunk and the two move down into a
    sub-node.  Only two or more keys with the same full hash share a
    collision node (the hash and a linear-scan run of pairs).  At
    100,000 int bindings a trie reaches 3.3 words per binding, the
    pair plus its share of the node headers, bitmaps and child slots,
    and a lookup reads one block per level.  The shape is canonical:
    [remove] lifts a sub-node left with one binding, or with a
    collision node as its only entry, into the parent's slot, so churn
    leaves no deep paths.

    The hash and equality functions are supplied per call so that one
    node type serves any key type; {!Ctrie} fixes them once. *)

type ('k, 'v) t

val empty : ('k, 'v) t
val is_empty : ('k, 'v) t -> bool
val find : hash:('k -> int) -> equal:('k -> 'k -> bool) -> 'k -> ('k, 'v) t -> 'v option

(** [add ~hash ~equal k v t] is the updated trie and the previous
    binding of [k], if any. *)
val add :
  hash:('k -> int) ->
  equal:('k -> 'k -> bool) ->
  'k ->
  'v ->
  ('k, 'v) t ->
  ('k, 'v) t * 'v option

val remove :
  hash:('k -> int) ->
  equal:('k -> 'k -> bool) ->
  'k ->
  ('k, 'v) t ->
  ('k, 'v) t * 'v option

val cardinal : ('k, 'v) t -> int
val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
val bindings : ('k, 'v) t -> ('k * 'v) list

(** Structural invariants for property tests: the root is a bitmap
    node; each node's two bitmaps are disjoint and its length is 2 + 2
    per binding + 1 per sub-node; no sub-node holds one binding and no
    children, or nothing, or only a collision node; a collision node
    holds two or more bindings of one full hash; and every entry sits
    on the path its hash dictates. *)
val well_formed : hash:('k -> int) -> ('k, 'v) t -> bool
