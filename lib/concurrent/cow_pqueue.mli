(** Concurrent copy-on-write priority queue with O(1) snapshots.

    The paper's authors "designed a new base copy-on-write data
    structure" for their [LazyPriorityQueue] because no existing
    concurrent heap offered efficient snapshots (§4, footnote 4).
    This is that structure: a persistent pairing heap behind an atomic
    root.  Every mutation is one {!Root.update} over the matching
    {!Snapshot} step, and [snapshot] is one load. *)

type 'a t
type 'a snapshot

val create : cmp:('a -> 'a -> int) -> unit -> 'a t
val add : 'a t -> 'a -> unit

(** Smallest element, without removing it. *)
val peek : 'a t -> 'a option

(** Remove and return the smallest element. *)
val poll : 'a t -> 'a option

(** Remove one occurrence of [x]; [true] if something was removed. *)
val remove : 'a t -> 'a -> bool

val contains : 'a t -> 'a -> bool
val size : 'a t -> int
val is_empty : 'a t -> bool

(** O(1) point-in-time snapshot. *)
val snapshot : 'a t -> 'a snapshot

(** The atomic root itself, for {!Root.update} steps and wholesale
    snapshot installs by replay logs. *)
val root : 'a t -> 'a snapshot Atomic.t

module Snapshot : sig
  type 'a t = 'a snapshot

  val peek : 'a t -> 'a option

  (** A state step: the smallest element, and the input itself when
      empty. *)
  val poll : 'a t -> 'a t * 'a option

  val add : 'a t -> 'a -> 'a t
  val remove : 'a t -> 'a -> 'a t * bool
  val contains : 'a t -> 'a -> bool
  val size : 'a t -> int
  val to_sorted_list : 'a t -> 'a list
end
