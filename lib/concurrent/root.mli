(** The one root-update primitive behind every copy-on-write structure
    in this library: a persistent state behind an [Atomic.t] root,
    changed only by pure state steps.  It is the Reagents [Update]
    combinator (Turon, PLDI 2012) over a plain atomic reference. *)

(** [update root f] applies the pure step [f] to the current state and
    installs the result with one compare-and-set, retrying from a fresh
    read until the CAS wins; it returns the step's result.  When [f]
    returns its argument physically unchanged ([s' == s]) nothing is
    written: the read is the linearization point.  [f] may run several
    times, so it must not have side effects. *)
val update : 's Atomic.t -> ('s -> 's * 'r) -> 'r
