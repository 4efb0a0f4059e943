(** Per-scope latency histograms.

    A {e scope} is a string label — the bench harness uses
    ["<impl>/<mode>"] — holding seven log-bucketed histograms:

    - [commit]: attempt-start → successful commit, nanoseconds;
    - [abort_to_retry]: abort → next attempt start on the same domain
      (the backoff/contention-manager stall the paper's §7 abort
      analysis needs);
    - [lock_wait]: time spent inside a single bounded wait on a held
      version-lock, the serial commit gate, or the quiesce token;
    - [wakeup]: parking wakeup latency — a committer's wake
      publication on a parked [retry] waiter to that domain's actual
      resume (recorded by the resuming domain; timer expiries are not
      counted);
    - [combine_batch]: commits published per flat-combining drain (a
      count, not a latency — mean batch size is the summary's
      [mean]);
    - [intended]/[service]: open-system request latency from the
      request's {e intended} arrival time vs from actual admission —
      the coordinated-omission-correct pair fed by the open runner
      (one scope per tenant), not by the STM.

    The calling domain's current scope is domain-local state set with
    {!set_label}; histograms themselves are shared across domains and
    merged by label, so every worker benching the same implementation
    lands in one scope.  All entry points are no-ops (beyond the
    {!Gate} load their callers already did) while metrics are off. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** Set the calling domain's scope label (default ["main"]). *)
val set_label : string -> unit

(** Drop all scopes and their histograms. *)
val reset : unit -> unit

(** Reset one scope's histograms, keeping the scope registered. *)
val reset_scope : string -> unit

type scope_summary = {
  label : string;
  commit : Histogram.summary;
  abort_to_retry : Histogram.summary;
  lock_wait : Histogram.summary;
  wakeup : Histogram.summary;
  combine_batch : Histogram.summary;
  intended : Histogram.summary;
      (** open-system request latency from {e intended} arrival time
          (coordinated-omission-correct: queueing delay included) *)
  service : Histogram.summary;
      (** open-system request latency from actual admission; the gap
          to [intended] is the backlog under overload *)
}

val read_scope : string -> scope_summary option
val scopes : unit -> scope_summary list
val scope_summary_to_json : scope_summary -> Json.t

(** {2 Named gauges}

    Last-write-wins integer gauges for slowly-changing control state
    (e.g. the QoS shedder's admission state and abort-rate EWMA in
    basis points).  Not gated by {!enabled}: writes are rare
    control-plane transitions, never hot-path STM sites. *)

val set_gauge : string -> int -> unit
val gauge : string -> int option

(** All gauges, sorted by name. *)
val gauges : unit -> (string * int) list

(** Instrumentation entry points (called from the STM). *)

val on_attempt_start : unit -> unit

val on_commit : unit -> unit
val on_abort : unit -> unit
val add_lock_wait : int -> unit

(** Record one parking wakeup latency (wake publication → resume),
    nanoseconds; negative samples are dropped. *)
val add_wakeup_latency : int -> unit

(** Record one flat-combining drain of [n] commits ([n < 1] dropped). *)
val add_combiner_batch : int -> unit

(** Record one open-system request latency measured from its intended
    arrival time, nanoseconds (negative samples dropped).  Recorded by
    the open runner, not the STM. *)
val add_intended_latency : int -> unit

(** Record one open-system request latency measured from actual
    admission (service start), nanoseconds. *)
val add_service_latency : int -> unit
