(** Conflict abstractions (§3).

    A conflict abstraction translates an abstract data type's semantic
    notion of conflict into concrete accesses on [M] synchronisation
    slots, such that any two non-commuting operations touch a common
    slot with at least one access being a write (Definition 3.1).

    The paper formalizes this as families of functions
    [f_i^(m,rd), f_i^(m,wr) : args -> state -> bool].  Here the wrapper
    computes the state-dependent part when it builds its intent list
    (exactly as Figure 3's [insert] consults [min] before choosing
    [Read] or [Write] on [PQueueMin]), and the conflict abstraction
    maps each intent to slot accesses.

    The same object drives both lock-allocator policies: a pessimistic
    LAP interprets an access as a read/write lock acquisition on slot
    [i]; an optimistic LAP interprets it as an STM read/write of the
    [i]-th tvar of its region.

    [stripe] is a per-transaction token (the transaction id) that lets
    an abstraction spread {e mutually compatible writers} over several
    sub-slots.  This expresses abstract-state elements like the paper's
    [PQueueMultiSet], which "allows multiple writers or multiple
    readers (but not both simultaneously)": writers write one sub-slot
    each (colliding only at rate 1/width), readers read all of them. *)

type access = { slot : int; write : bool }

type 'k t = {
  slots : int;  (** the region size M, a tuning parameter (§3) *)
  slot_of : ('k -> int) option;
      (** present for per-key abstractions ({!striped}, {!indexed}):
          every intent on key [k] is exactly one access to
          slot [slot_of k], read or write as the intent.  Lock
          allocators use it to acquire a single key without building
          an intent or access list.  [None] for {!exact}, whose
          accesses depend on the intent and the stripe. *)
  accesses : stripe:int -> 'k Intent.t -> access list;
}

(** Key-striped abstraction ("lock striping", §3): intent on key [k]
    becomes one access to slot [hash k mod slots], read or write
    matching the intent. *)
val striped : ?slots:int -> ?hash:('k -> int) -> unit -> 'k t

(** Abstraction over an enumerated abstract state: each element has its
    own slot, via the provided injection into [0, slots). *)
val indexed : slots:int -> index:('k -> int) -> 'k t

(** Fully custom abstraction. *)
val exact : slots:int -> (stripe:int -> 'k Intent.t -> access list) -> 'k t

(** [group ~width ~base] maps an element to a band of [width] sub-slots
    starting at [base]: a write touches the sub-slot selected by the
    transaction's stripe; a read touches the whole band.  Encodes
    multiple-writers-or-multiple-readers elements. *)
val group_accesses : width:int -> base:int -> stripe:int -> 'k Intent.t -> access list

(** [merge accesses] de-duplicates [accesses], keeping the strongest
    mode per slot, in slot order. *)
val merge : access list -> access list

(** [accesses_for t ~stripe intents] is [merge] of every intent's
    accesses. *)
val accesses_for : 'k t -> stripe:int -> 'k Intent.t list -> access list
