(** Persistent hash-array-mapped trie.

    The immutable core of {!Ctrie}: 32-way branching on successive
    5-bit slices of the key hash (Bagwell's "Ideal Hash Trees").  All
    operations are pure; updates share structure with the original,
    which is what makes Ctrie snapshots O(1).

    Layout: an interior node is a 32-bit occupancy bitmap and a dense
    child array, indexed by a constant-time popcount of the bitmap
    below the slot.  A single binding is one 3-word leaf block (header,
    key, value) that stores no hash: the key is rehashed only when an
    insert must split the leaf or bucket it.  Only two or more keys
    with the same full hash share a bucket (hash and association
    list).  At 100,000 int bindings a trie reaches 5.6 words per
    binding, the leaf plus its share of the nodes above it.  The shape
    is canonical: [remove] lifts a leaf or bucket left alone in its
    node into the parent's slot, so churn leaves no deep paths.

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

(** Structural invariants for property tests: bitmap arity matches the
    child array, no empty subtrees, buckets hold at least two bindings
    of one hash, no node has a lone leaf or bucket child, and entries
    sit on the path their hash dictates. *)
val well_formed : hash:('k -> int) -> ('k, 'v) t -> bool
