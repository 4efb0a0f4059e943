(** Transaction quality-of-service: admission control and the
    stuck-transaction watchdog.

    Deadlines and retry budgets are enforced inside the attempt
    machinery ({!Txn_desc} carries the deadline, {!Commit_ladder}
    checks both at attempt boundaries); this module holds the control
    loops that sit outside any one transaction.  The three admission
    controllers — {!Shedder}, {!Tenant} and {!Brownout} — share one
    {!Ladder} state machine, one EWMA update and one token bucket.  The
    shedder and the watchdog are off by default; the shedder's disabled
    fast path is a single atomic load. *)

(** The escalation state machine over levels [0..max_level], pure so
    property tests can drive it through arbitrary pressure sequences.
    The {!Shedder} runs it with two levels and dwell 1 (plain
    hysteresis); the {!Brownout} with four. *)
module Ladder : sig
  type config = {
    enter_above : float;  (** pressure climbing one level *)
    exit_below : float;  (** pressure descending one level *)
    dwell : int;  (** consecutive samples required for a move *)
    max_level : int;  (** escalation ceiling *)
  }

  type t = { level : int; up_streak : int; down_streak : int }

  val initial : t

  (** One pressure observation: the successor state and whether the
      level changed.  Samples inside the dead band
      [(exit_below, enter_above)] reset both streaks and never move
      the ladder. *)
  val step : config -> t -> pressure:float -> t * bool
end

(** Admission control: tracks the process-wide abort rate as an EWMA
    over {!Stats} windows; past [degrade_above] the shedder enters
    [Degraded] and {!admit} only lets a token-bucket-shaped trickle of
    new episodes through until the rate falls below [recover_below].
    State and EWMA are published as {!Proust_obs.Metrics} gauges
    (["qos_state"], ["qos_abort_ewma_bp"]). *)
module Shedder : sig
  type config = {
    sample_window : float;  (** seconds between abort-rate samples *)
    alpha : float;  (** EWMA weight of the newest window *)
    degrade_above : float;  (** EWMA abort rate entering [Degraded] *)
    recover_below : float;  (** EWMA abort rate re-entering [Normal] *)
    min_window_attempts : int;
        (** discard windows with fewer attempt starts (noise) *)
    bucket_capacity : float;  (** token-bucket burst size *)
    refill_per_s : float;  (** admissions per second while degraded *)
  }

  val default_config : config
  val enable : ?config:config -> unit -> unit
  val disable : unit -> unit
  val enabled : unit -> bool

  (** Admission check for one episode; [true] when disabled.  Called by
      {!Stm.atomic}, which turns a refusal into the [Shed] outcome. *)
  val admit : unit -> bool

  type state = Normal | Degraded

  val state_name : state -> string

  (** [Normal] while disabled. *)
  val state : unit -> state

  (** Current abort-rate EWMA; [None] before the first valid window
      and while disabled. *)
  val abort_ewma : unit -> float option

  (** Test hook: feed one abort-rate observation directly into the
      EWMA/ladder, bypassing the {!Stats} window sampler. *)
  val inject_sample : float -> unit
end

(** Per-tenant QoS state: a token-bucket admission gate plus abort-rate
    and read-mix EWMAs per tenant, so an antagonist's thrashing is
    charged to the antagonist.  The class ([Gold]/[Bronze]) is what the
    {!Brownout} controller degrades by. *)
module Tenant : sig
  type klass = Gold | Bronze

  val klass_name : klass -> string

  type config = {
    rate : float;  (** sustained admissions/s; [<= 0] means uncapped *)
    burst : float;  (** token-bucket capacity *)
    alpha : float;  (** EWMA weight of the newest episode sample *)
    read_dominated_above : float;
        (** read-mix EWMA at or above which the tenant is
            read-dominated (eligible for brownout RO routing) *)
  }

  val default_config : config

  type t

  val make : ?config:config -> name:string -> klass:klass -> unit -> t
  val name : t -> string
  val klass : t -> klass

  (** Token-bucket admission for one arriving request; also counts the
      arrival.  A refusal is the caller's cue to shed. *)
  val admit : t -> bool

  (** One finished episode: [aborts] is its wasted attempt count,
      [read] whether the body was pure reads.  Feeds the EWMAs and the
      per-tenant counters. *)
  type outcome_kind = Committed | Shed | Timed_out | Budget_exhausted

  val note_outcome : t -> outcome_kind -> read:bool -> aborts:int -> unit

  (** Count one request routed onto the abort-free RO path. *)
  val note_ro_routed : t -> unit

  val abort_ewma : t -> float option
  val read_fraction : t -> float option
  val read_dominated : t -> bool

  (** Per-tenant event counters, one row each of an ordered table. *)
  type counter

  val arrivals : counter
  val admitted : counter
  val committed : counter
  val shed : counter
  val timed_out : counter
  val budget_exhausted : counter
  val ro_routed : counter
  val aborts : counter

  type stats = {
    s_counts : int array;  (** indexed by {!counter}; read with {!count} *)
    s_abort_ewma : float;  (** [0.0] before the first sample *)
    s_read_fraction : float;  (** [0.0] before the first sample *)
  }

  val stats : t -> stats
  val count : stats -> counter -> int

  (** Every counter as [(name, value)], in table order. *)
  val to_assoc : stats -> (string * int) list
end

(** Stepwise graceful degradation under sustained overload, driven by
    admission lag (how far behind its {e intended} arrival a request
    started).  Escalation order: [Normal] → [Route_ro] (read-dominated
    tenants' pure-read requests take the abort-free [Stm.read_only]
    path) → [Shed_bronze] → [Shed_gold]; the {!Ladder} moves one level
    at a time with a hysteresis dead band and a dwell requirement, so
    recovery is stable and flapping signals never move it.  The current
    level is published as the ["brownout_level"] metrics gauge. *)
module Brownout : sig
  type level = Normal | Route_ro | Shed_bronze | Shed_gold

  (** The {!Ladder} level of each brownout level; contractual-gold
      deployments set [max_level] to [level_index Shed_bronze]. *)
  val level_index : level -> int

  val level_of_index : int -> level
  val level_name : level -> string

  type config = {
    ladder : Ladder.config;
    alpha : float;  (** EWMA weight of the newest lag observation *)
    sample_window : float;  (** min seconds between ladder steps *)
    lag_budget : float;
        (** seconds of admission lag counting as pressure 1.0 *)
  }

  val default_config : config

  type t

  val make : ?config:config -> unit -> t
  val level : t -> level

  (** Level changes since creation. *)
  val transitions : t -> int

  (** Highest level reached since creation. *)
  val peak_level : t -> level

  (** Current pressure EWMA; [None] before the first observation. *)
  val pressure : t -> float option

  (** One admission-lag observation in seconds (typically once per
      request): updates the EWMA always, steps the ladder at most once
      per [sample_window]. *)
  val note_lag : t -> lag:float -> unit

  (** Test hook: one pressure observation straight into the ladder,
      bypassing the EWMA and the time gate. *)
  val inject_pressure : t -> float -> unit

  type decision = Admit | Admit_ro | Shed

  val decision_name : decision -> string

  (** Routing for one admitted request of [tenant]; [read_txn] marks a
      pure-read transaction body (the only shape the RO path runs). *)
  val plan : t -> Tenant.t -> read_txn:bool -> decision
end

(** Supervisor domain that scans {!Txn_state.watch_list} for attempts
    running far longer than the observed p99 commit latency and kills
    them via {!Txn_desc.try_kill} (which refuses irrevocable attempts,
    so healthy serial-fallback work is safe by construction).  A stuck
    serial-commit-gate holder aged past [breaker_multiple] thresholds
    gets the gate broken by force — the last rung of the escalation
    ladder. *)
module Watchdog : sig
  type config = {
    interval : float;  (** seconds between scans *)
    p99_multiple : float;
        (** kill threshold as a multiple of observed p99 commit
            latency (max over metrics scopes) *)
    min_age : float;
        (** threshold floor in seconds; the whole threshold when no
            commit latency has been observed *)
    breaker_multiple : float;
        (** gate-breaker threshold, in kill thresholds *)
  }

  val default_config : config

  (** Stuck-attempt kills performed since program start. *)
  val kills : unit -> int

  (** Serial-gate breaks performed since program start. *)
  val breaks : unit -> int

  type t

  (** Arm watch-slot stamping and spawn the supervisor domain. *)
  val start : ?config:config -> unit -> t

  (** Stop and join the supervisor, disarm stamping. *)
  val stop : t -> unit
end
