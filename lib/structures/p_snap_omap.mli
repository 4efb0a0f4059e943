(** Snapshot ordered map: a persistent AVL behind a single tvar.
    Writers serialize on the root; [range] costs one read-set entry and
    is snapshot-consistent, and under [Multi_version] a
    {!Stm.read_only} transaction scans abort-free against any writer
    load — the structure brownout RO-routing leans on. *)

type ('k, 'v) t

val make : ?compare:('k -> 'k -> int) -> unit -> ('k, 'v) t
val get : ('k, 'v) t -> Stm.txn -> 'k -> 'v option
val contains : ('k, 'v) t -> Stm.txn -> 'k -> bool
val put : ('k, 'v) t -> Stm.txn -> 'k -> 'v -> 'v option
val remove : ('k, 'v) t -> Stm.txn -> 'k -> 'v option
val size : ('k, 'v) t -> Stm.txn -> int

(** Ascending bindings with [lo <= k <= hi] — one root read. *)
val range : ('k, 'v) t -> Stm.txn -> lo:'k -> hi:'k -> ('k * 'v) list

val min_binding : ('k, 'v) t -> Stm.txn -> ('k * 'v) option
val max_binding : ('k, 'v) t -> Stm.txn -> ('k * 'v) option
val bindings : ('k, 'v) t -> Stm.txn -> ('k * 'v) list

val map_ops : ('k, 'v) t -> ('k, 'v) Trait.Map.ops
