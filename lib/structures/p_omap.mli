(** Proustian ordered map with range queries over the snapshot-able
    {!Cow_omap} — an abstract type beyond sets and maps (§1).

    The key space is cut into [slots] contiguous bands by a monotone
    [index] function; point operations touch their key's band, range
    reads every intersecting band, and min/max observations the whole
    span.  Both update strategies are supported ([strategy]); the lazy
    one commits by installing its shadow with a single root CAS. *)

(** Abstract-state elements of the band conflict abstraction. *)
type 'k element = Point of 'k | Span of 'k * 'k | Everything

type ('k, 'v) t

(** The band conflict abstraction itself, reusable by other ordered
    wrappers (see {!P_skipmap}). *)
val band_ca :
  slots:int -> index:('k -> int) -> 'k element Conflict_abstraction.t

val make :
  ?slots:int ->
  ?lap:Trait.lap_choice ->
  ?strategy:Update_strategy.t ->
  ?size_mode:[ `Counter | `Transactional ] ->
  index:('k -> int) ->
  unit ->
  ('k, 'v) t

val get : ('k, 'v) t -> Stm.txn -> 'k -> 'v option
val put : ('k, 'v) t -> Stm.txn -> 'k -> 'v -> 'v option
val remove : ('k, 'v) t -> Stm.txn -> 'k -> 'v option
val contains : ('k, 'v) t -> Stm.txn -> 'k -> bool

(** Ascending bindings with [lo <= k <= hi]; conflicts exactly with
    updates to keys in intersecting bands. *)
val range : ('k, 'v) t -> Stm.txn -> lo:'k -> hi:'k -> ('k * 'v) list

val min_binding : ('k, 'v) t -> Stm.txn -> ('k * 'v) option
val max_binding : ('k, 'v) t -> Stm.txn -> ('k * 'v) option
val size : ('k, 'v) t -> Stm.txn -> int
val committed_size : ('k, 'v) t -> int

(** Committed bindings, non-transactionally. *)
val bindings : ('k, 'v) t -> ('k * 'v) list

(** Point-operation view for generic map drivers. *)
val map_ops : ('k, 'v) t -> ('k, 'v) Trait.Map.ops
