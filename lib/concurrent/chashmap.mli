(** Lock-striped concurrent hash map — the repo's stand-in for
    [java.util.concurrent.ConcurrentHashMap].

    Linearizable per-key operations; size is maintained by a striped
    counter and is only quiescently consistent, exactly like the Java
    original.  No snapshot support — which is precisely why the lazy
    Proustian wrapper over this structure must use memoized shadow
    copies rather than snapshots (§4). *)

type ('k, 'v) t

(** [create ()] uses [Hashtbl.hash] and structural equality;
    [stripes] is rounded up to a power of two (default 32). *)
val create : ?stripes:int -> unit -> ('k, 'v) t

val get : ('k, 'v) t -> 'k -> 'v option
val contains : ('k, 'v) t -> 'k -> bool

(** [put t k v] binds [k] to [v] and returns the previous binding. *)
val put : ('k, 'v) t -> 'k -> 'v -> 'v option

(** [put_if_absent t k v] binds only when unbound; returns the existing
    binding otherwise. *)
val put_if_absent : ('k, 'v) t -> 'k -> 'v -> 'v option

val remove : ('k, 'v) t -> 'k -> 'v option

(** [compute t k f] atomically (w.r.t. key [k]) replaces the binding of
    [k] by [f (current binding)]; [None] removes.  Returns the previous
    binding. *)
val compute : ('k, 'v) t -> 'k -> ('v option -> 'v option) -> 'v option

val size : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool

(** Weakly consistent iteration: each stripe is locked in turn. *)
val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
val clear : ('k, 'v) t -> unit

(** Point-in-time-per-stripe association list (tests/debugging). *)
val bindings : ('k, 'v) t -> ('k * 'v) list

(** Longest bucket chain over all stripes' tables, each read under its
    stripe's lock (diagnostics: how well keys spread). *)
val max_bucket_length : ('k, 'v) t -> int
