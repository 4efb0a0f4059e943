(** Lock-striped concurrent hash map — the repo's stand-in for
    [java.util.concurrent.ConcurrentHashMap].

    Linearizable per-key operations; size is maintained by a striped
    counter and is only quiescently consistent, exactly like the Java
    original.  No snapshot support — which is precisely why the lazy
    Proustian wrapper over this structure must use memoized shadow
    copies rather than snapshots (§4).

    Layout: each stripe is one mutex over one flat open-addressed
    array, keys and values inline in adjacent slots.  A key's stripe is
    the top bits of a Fibonacci mix of [Hashtbl.hash k] and its home
    slot the hash's low bits; probing is linear with Robin Hood
    inserts, [remove] shifts the rest of the probe run back so no
    tombstones are left, and a stripe doubles before it passes 4/5
    full and halves when a removal leaves it under 1/4 full.  A
    binding costs its two slots and its share of the free ones: at
    100,000 int bindings about 2.6 words, where a [Hashtbl] bucket
    array plus one chain cell per binding spent 4.7.  Keys are equal
    when [compare] says so, as in Stdlib [Hashtbl]. *)

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

(** Longest distance of a binding from its home slot over all stripes,
    each read under its stripe's lock (diagnostics: how well keys
    spread). *)
val max_probe_length : ('k, 'v) t -> int
