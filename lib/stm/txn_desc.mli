(** Transaction descriptors.

    A descriptor is the part of a transaction's state that other
    transactions may inspect and act upon: its identity, age, priority
    and — crucially — its status word, which a contention manager may
    CAS from [Active] to [Aborted] to kill the transaction remotely.
    The victim observes the change at its next STM operation. *)

type status = Active | Committed | Aborted

type t = {
  id : int;  (** unique across all attempts in the process *)
  birth : int;  (** global-clock value when the attempt began *)
  status : status Atomic.t;
  mutable priority : int;
      (** contention-manager karma: work performed so far *)
  irrevocable : bool;
      (** serial-fallback attempts may not be killed remotely *)
  deadline_ns : int;
      (** absolute {!Clock.now_mono_ns} deadline the episode runs
          under, or [0] for none.  Public so deadline-aware contention
          managers can arbitrate earliest-deadline-first and the QoS
          watchdog can spot attempts that outlived their own budget. *)
  mutable owner_word : t option;
      (** [Some] of this descriptor, allocated once by {!create} and
          never reassigned: the value {!Tvar.try_lock} installs in a
          tvar's owner word, so taking a lock allocates nothing.  It
          makes a descriptor cyclic, so compare descriptors with [==],
          never [=]. *)
}

(** Fresh descriptor with a unique id, [Active] status, priority
    carried over from previous attempts of the same atomic block.  The
    arguments are required (not optional) because every attempt builds
    a descriptor, and optional arguments box their values. *)
val create :
  priority:int -> irrevocable:bool -> deadline_ns:int -> birth:int -> t

val is_active : t -> bool
val is_committed : t -> bool
val is_aborted : t -> bool

(** [try_commit t] linearizes the commit: CAS [Active -> Committed].
    Returns [false] if the transaction was aborted remotely first. *)
val try_commit : t -> bool

(** [try_abort t] CASes [Active -> Aborted]; [true] if this call
    performed the transition. *)
val try_abort : t -> bool

(** [try_kill t] is [try_abort t] for remote parties (contention
    managers, fault injection): it refuses to touch an irrevocable
    descriptor, which is what makes the serial fallback
    starvation-proof. *)
val try_kill : t -> bool

val earn : t -> int -> unit
(** Increase priority by the given amount of work. *)

val pp : Format.formatter -> t -> unit
