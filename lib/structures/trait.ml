(** The unified structure-trait layer.

    Every transactional structure in the repository — Proustian
    wrappers, lazy replay-log wrappers, and STM/lock baselines alike —
    exposes one of four first-class trait records ({!Map.ops},
    {!Queue.ops}, {!Pqueue.ops}, {!Counter.ops}).  All four share a
    common {!meta} header describing where the implementation sits in
    the paper's design space (Figure 1): its update strategy, its
    lock-allocation policy, and the STM conflict-detection mode it
    requires to stay opaque.  Benchmarks, the workload registry, and the
    linearizability harness enumerate implementations through this
    header instead of hand-maintained lists. *)

(** STM conflict-detection requirement (Figure 1 / Theorem 5.2).

    [Encounter_time] marks the plain eager/optimistic construction:
    base mutations become visible before commit, so the STM must
    detect conflicts at encounter time ([Eager_lazy] or
    [Eager_eager]).  Pessimistic wrappers hold real abstract locks and
    lazy wrappers keep effects off the shared structure, so both run
    under [Any_mode]. *)
type mode_req = Any_mode | Encounter_time

let mode_req_name = function
  | Any_mode -> "any"
  | Encounter_time -> "encounter-time"

(* Read off Figure 1's one table: an [Encounter_time] structure is an
   optimistic/eager point. *)
let mode_ok req (m : Stm.mode) =
  match req with
  | Any_mode -> true
  | Encounter_time ->
      Proust.compatible
        { lap = Lock_allocator.Optimistic; strategy = Update_strategy.Eager }
        m

(** The shared trait header. *)
type meta = {
  name : string;
  strategy : Update_strategy.t;
  mode_req : mode_req;
  pessimistic : bool;  (** lock-allocation policy is pessimistic *)
  mergeable : bool;
      (** this instance's replay logs batch-merge across transactions
          under the flat-combining group commit ({!Replay_log}) *)
}

let meta ?(pessimistic = false) ?(mergeable = false) ~name ~strategy () =
  let mode_req =
    match strategy with
    | Update_strategy.Eager when not pessimistic -> Encounter_time
    | Update_strategy.Eager | Update_strategy.Lazy -> Any_mode
  in
  { name; strategy; mode_req; pessimistic; mergeable }

(** Derive the header from the wrapper's own abstract lock, so a
    structure cannot drift from the strategy/LAP it actually uses. *)
let meta_of_alock ?mergeable ~name al =
  meta ~name ?mergeable
    ~pessimistic:(Abstract_lock.lap_kind al = Lock_allocator.Pessimistic)
    ~strategy:(Abstract_lock.strategy al) ()

(* ------------------------------------------------------------------ *)
(* Lock-allocator choice (formerly Map_intf)                           *)

(** Choice of lock-allocator policy used by convenience constructors.
    [Optimistic_unvalidated] omits the read-before-write on
    conflict-abstraction slots: the paper's plain eager/optimistic
    construction, opaque only under eager STM conflict detection
    (Theorem 5.2). *)
type lap_choice = Optimistic | Optimistic_unvalidated | Pessimistic

let make_lap (choice : lap_choice) ~(ca : 'k Conflict_abstraction.t) :
    'k Lock_allocator.t =
  match choice with
  | Optimistic -> Lock_allocator.optimistic ~validate_writes:true ~ca ()
  | Optimistic_unvalidated ->
      Lock_allocator.optimistic ~validate_writes:false ~ca ()
  | Pessimistic -> Lock_allocator.pessimistic ~ca ()

(* ------------------------------------------------------------------ *)
(* The four traits                                                    *)

module Map = struct
  (** The transactional map trait (Listing 2), as a first-class record
      so benchmarks and tests can drive any implementation
      uniformly. *)
  type ('k, 'v) ops = {
    meta : meta;
    get : Stm.txn -> 'k -> 'v option;
    put : Stm.txn -> 'k -> 'v -> 'v option;
        (** binds and returns the previous binding *)
    remove : Stm.txn -> 'k -> 'v option;
    contains : Stm.txn -> 'k -> bool;
    size : Stm.txn -> int;
  }
end

module Queue = struct
  (** The transactional FIFO-queue trait, with a two-element abstract
      state in the style of Listing 3:

      - [Head]: the dequeue end.  [dequeue] and [front] operate here.
      - [Tail]: the enqueue end.  [enqueue] operates here.

      Commutativity facts the conflict abstraction encodes:
      - enqueues never commute with each other (they order elements),
        so [Tail] is exclusively written;
      - an enqueue into an {e empty} queue creates the new front, so
        it additionally writes [Head];
      - a dequeue that empties the queue additionally writes [Tail]
        (freezing emptiness against concurrent enqueues that sampled
        the queue as non-empty).

      The state-dependent intents are acquired through
      {!Abstract_lock.acquire_stable}.

      Under the {e eager} update strategy, dequeue additionally reads
      [Tail], making every dequeue conflict with every enqueue.  This
      is not a Definition 3.1 requirement — deq and enq commute on a
      non-empty queue — but an abort-safety one: an eager enqueue is
      visible in the shared base before its transaction commits, and
      without the conflict a concurrent dequeue could drain down to
      and consume the uncommitted element (whose enqueuer may yet
      abort).  The paper's eager priority queue avoids this
      automatically because every [removeMin] already conflicts with
      every [insert] through [PQueueMin]; a FIFO's conflict
      abstraction must pay for it explicitly.  Lazy wrappers keep
      uncommitted effects off the shared structure, so they skip the
      extra read. *)

  type state = Head | Tail

  type 'v ops = {
    meta : meta;
    enqueue : Stm.txn -> 'v -> unit;
    dequeue : Stm.txn -> 'v option;
    front : Stm.txn -> 'v option;
    size : Stm.txn -> int;
  }

  let ca () : state Conflict_abstraction.t =
    Conflict_abstraction.indexed ~slots:2
      ~index:(function Head -> 0 | Tail -> 1)

  (** Extra intent for eager dequeues (see above). *)
  let eager_dequeue_guard = [ Intent.Read Tail ]
end

module Pqueue = struct
  (** The transactional priority-queue trait (Listing 3).

      The abstract state has two elements: [Min], the current minimum,
      and [Multiset], the bag of queued values.  Commutativity is
      expressed against these elements rather than pairwise between
      methods — the "linear in the state space" economy the paper
      claims:

      - [Min] admits multiple readers xor a single writer;
      - [Multiset] admits multiple writers or multiple readers, but
        not both at once (all inserts commute with each other).

      The multiset's writers-compatible-with-writers semantics is
      encoded in the conflict abstraction as a striped band of
      sub-slots ({!Conflict_abstraction.group_accesses}). *)

  type state = Min | Multiset

  type 'v ops = {
    meta : meta;
    insert : Stm.txn -> 'v -> unit;
    remove_min : Stm.txn -> 'v option;
    min : Stm.txn -> 'v option;
    contains : Stm.txn -> 'v -> bool;
    size : Stm.txn -> int;
  }

  (** Conflict abstraction shared by both priority-queue wrappers:
      slot 0 is [Min]; slots 1..stripes are the [Multiset] band. *)
  let ca ~stripes : state Conflict_abstraction.t =
    Conflict_abstraction.exact ~slots:(1 + stripes) (fun ~stripe intent ->
        match Intent.key intent with
        | Min ->
            [
              {
                Conflict_abstraction.slot = 0;
                write = Intent.is_write intent;
              };
            ]
        | Multiset ->
            Conflict_abstraction.group_accesses ~width:stripes ~base:1
              ~stripe intent)
end

module Counter = struct
  (** The non-negative counter trait (§3's running example), the
      registry's view of {!P_counter}: [incr] always succeeds, [decr]
      returns [false] instead of going negative, and [value] is a
      transactional read of the current count. *)
  type ops = {
    meta : meta;
    incr : Stm.txn -> unit;
    decr : Stm.txn -> bool;
    value : Stm.txn -> int;
  }
end

(* ------------------------------------------------------------------ *)
(* Module-style views, for wrappers exposed as modules                 *)

module type MAP = sig
  type ('k, 'v) t

  val get : ('k, 'v) t -> Stm.txn -> 'k -> 'v option
  val put : ('k, 'v) t -> Stm.txn -> 'k -> 'v -> 'v option
  val remove : ('k, 'v) t -> Stm.txn -> 'k -> 'v option
  val contains : ('k, 'v) t -> Stm.txn -> 'k -> bool
  val size : ('k, 'v) t -> Stm.txn -> int
  val ops : ('k, 'v) t -> ('k, 'v) Map.ops
end

module type QUEUE = sig
  type 'v t

  val enqueue : 'v t -> Stm.txn -> 'v -> unit
  val dequeue : 'v t -> Stm.txn -> 'v option
  val front : 'v t -> Stm.txn -> 'v option
  val size : 'v t -> Stm.txn -> int
  val ops : 'v t -> 'v Queue.ops
end

module type PQUEUE = sig
  type 'v t

  val insert : 'v t -> Stm.txn -> 'v -> unit
  val remove_min : 'v t -> Stm.txn -> 'v option
  val min : 'v t -> Stm.txn -> 'v option
  val contains : 'v t -> Stm.txn -> 'v -> bool
  val size : 'v t -> Stm.txn -> int
  val ops : 'v t -> 'v Pqueue.ops
end
