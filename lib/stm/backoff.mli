(** Bounded randomized exponential backoff for contended retry loops. *)

type t

(** [create ()] makes a fresh backoff state.  [ceiling] bounds the
    exponent of the spin window (default [14], i.e. at most [2^14]
    relaxation steps per round).  After [sleep_after] rounds (default
    [6]) each further round additionally sleeps for [sleep] seconds
    (default [1e-6]) so oversubscribed domains yield the core; chaos
    tests tighten both to keep hostile schedules hot. *)
val create : ?ceiling:int -> ?sleep_after:int -> ?sleep:float -> unit -> t

(** [reconfigure t] retunes an existing backoff to new knobs (and the
    default ceiling) and forgets its contention history, without
    re-seeding the RNG.  Used by the
    descriptor pool to reuse one backoff across transaction attempts
    instead of paying [create]'s [Random.State] allocation each time. *)
val reconfigure : t -> sleep_after:int -> sleep:float -> unit

(** [once t] spins for a randomized duration that grows exponentially
    with the number of preceding [once] calls since the last [reset].
    [until_ns], when nonzero, is an absolute {!Clock.now_mono_ns}
    deadline: any degraded-mode OS sleep is clamped so it never runs
    past it (a deadline already in the past sleeps not at all). *)
val once : ?until_ns:int -> t -> unit

(** Forget accumulated contention history. *)
val reset : t -> unit

(** Number of [once] calls since the last reset. *)
val rounds : t -> int

(** Total monotonic nanoseconds spent in degraded-mode sleeps since the
    last {!reconfigure} (monotonic accounting: immune to clock steps). *)
val slept_ns : t -> int
