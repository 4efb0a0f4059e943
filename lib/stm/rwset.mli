(** Log-structured transaction read/write/local sets.

    Flat-array logs replacing the per-attempt [Hashtbl]s of the
    original monolithic STM: validation walks arrays, [or_else] rolls
    back by truncating to a watermark, and a pooled transaction clears
    and reuses the same buffers across attempts (zero steady-state
    allocation on the read/write hot paths).

    Value types are erased internally ([Obj.t] parallel arrays) and
    re-established at the boundary under the uid-uniqueness argument:
    equal tvar uid implies physically the same tvar, hence the same
    value type.  [packed_tvar] is the type-erased view of a tvar; only
    type-agnostic fields are accessed through it. *)

type packed_tvar = unit Tvar.t

val pack : 'a Tvar.t -> packed_tvar

(** Append-only chunked read log of (tvar, observed version) pairs.
    Duplicates are allowed — they only make validation stricter. *)
module Rlog : sig
  type t

  val create : unit -> t
  val size : t -> int

  (** Record that the tvar was read at the given committed version. *)
  val push : t -> 'a Tvar.t -> int -> unit

  val iter : t -> (packed_tvar -> int -> unit) -> unit

  (** Every recorded version is still current and no entry is locked by
      a foreign transaction ([owner] is the auditing transaction's own
      descriptor, whose locks are fine). *)
  val validate : t -> owner:Txn_desc.t -> bool

  (** Empty the log, scrubbing tvar pointers (pool hygiene). *)
  val clear : t -> unit
end

(** Adaptive last-wins write set: parallel append-only arrays, a 62-bit
    summary filter for fast read-after-write misses, backward scan
    while small, an open-addressing [int array] index probed by uid
    once large (no per-write allocation; shrinks back on [clear]).
    Watermarks ([mark] / [floor] / [truncate]) give [or_else] exact
    rollback by truncation: writes at or above the floor update in
    place, writes shadowing a pre-branch entry append. *)
module Wlog : sig
  type t

  val create : unit -> t
  val size : t -> int
  val is_empty : t -> bool

  (** Index of the newest entry for the tvar, or -1. *)
  val find_idx : t -> 'a Tvar.t -> int

  (** Buffered value at an index returned by [find_idx].  Only sound
      with an index obtained for a tvar of matching value type. *)
  val value : t -> int -> 'a

  val write : t -> 'a Tvar.t -> 'a -> unit
  val mark : t -> int
  val floor : t -> int
  val set_floor : t -> int -> unit
  val truncate : t -> int -> unit

  (** Compute the winning (newest-per-uid) entries in ascending uid
      order into a reused internal buffer.  Call before [plan_iter_tv]
      / [publish_plan]. *)
  val build_plan : t -> unit

  (** Winning entries in uid order — the commit lock order. *)
  val plan_iter_tv : t -> (packed_tvar -> unit) -> unit

  (** Write every winning entry back at [version].  Caller holds the
      required locks/gate. *)
  val publish_plan : t -> version:int -> unit

  (** All entries, shadowed ones included (leak audit). *)
  val iter_tvs : t -> (int -> packed_tvar -> unit) -> unit

  val clear : t -> unit

  (** Cell count of the uid index (tests: a cleared log's index is
      back at its initial size). *)
  val index_capacity : t -> int
end

(** Transaction-local values, packed as [exn] by the keys that own
    them; same last-wins / watermark discipline as {!Wlog}. *)
module Llog : sig
  type t

  val create : unit -> t
  val size : t -> int

  (** Index of the newest entry for the key uid, or -1. *)
  val find_idx : t -> int -> int

  (** Value at an index returned by [find_idx]. *)
  val value : t -> int -> exn

  val set : t -> int -> exn -> unit
  val mark : t -> int
  val floor : t -> int
  val set_floor : t -> int -> unit
  val truncate : t -> int -> unit
  val clear : t -> unit
end
