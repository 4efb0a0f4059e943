(** Lazy Proustian trie map with snapshot shadow copies — the paper's
    [LazyTrieMap] (Figure 2b): the first mutating operation snapshots
    the Ctrie in O(1); commit, behind the STM's locks, installs the
    shadow with one root CAS, or replays the log onto the shared trie
    when a commuting transaction moved the root in between (log
    combining, §9 future work).  Opaque under every STM mode
    (Theorem 5.3). *)

type ('k, 'v) t

val make :
  ?slots:int ->
  ?lap:Trait.lap_choice ->
  ?size_mode:[ `Counter | `Transactional ] ->
  unit ->
  ('k, 'v) t

val get : ('k, 'v) t -> Stm.txn -> 'k -> 'v option
val put : ('k, 'v) t -> Stm.txn -> 'k -> 'v -> 'v option
val remove : ('k, 'v) t -> Stm.txn -> 'k -> 'v option
val contains : ('k, 'v) t -> Stm.txn -> 'k -> bool
val size : ('k, 'v) t -> Stm.txn -> int
val committed_size : ('k, 'v) t -> int
val ops : ('k, 'v) t -> ('k, 'v) Trait.Map.ops
val backing : ('k, 'v) t -> ('k, 'v) Proust_concurrent.Ctrie.t
