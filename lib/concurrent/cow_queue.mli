(** Concurrent copy-on-write FIFO queue with O(1) snapshots: a
    persistent queue behind an atomic root, in the mould of
    {!Cow_pqueue}.  Base structure for the lazy Proustian FIFO. *)

type 'a t
type 'a snapshot = 'a Pqueue_fifo.t

val create : unit -> 'a t
val enqueue : 'a t -> 'a -> unit
val dequeue : 'a t -> 'a option
val peek : 'a t -> 'a option
val size : 'a t -> int
val is_empty : 'a t -> bool
val snapshot : 'a t -> 'a snapshot

(** The atomic root itself, for {!Root.update} steps and wholesale
    snapshot installs by replay logs. *)
val root : 'a t -> 'a snapshot Atomic.t

val to_list : 'a t -> 'a list

module Snapshot : sig
  type 'a t = 'a snapshot

  val enqueue : 'a t -> 'a -> 'a t

  (** A state step: the front element, and the input itself when
      empty. *)
  val dequeue : 'a t -> 'a t * 'a option

  val peek : 'a t -> 'a option
  val size : 'a t -> int
  val to_list : 'a t -> 'a list
end
