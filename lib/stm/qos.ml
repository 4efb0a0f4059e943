(* Transaction quality-of-service: admission control and the
   stuck-transaction watchdog.

   Deadlines and retry budgets live in the attempt machinery itself
   (Txn_desc carries the deadline; Commit_ladder enforces both at
   attempt boundaries); this module holds the control loops that sit
   *outside* any one transaction.  The admission controllers —
   [Shedder] (process-wide abort rate), [Tenant] (per-tenant bucket and
   EWMAs) and [Brownout] (class-aware degradation by admission lag) —
   share one pure [Ladder], one EWMA update, one token [Bucket] and one
   sampled controller, [Loop].  [Watchdog] kills attempts stuck far
   past the observed p99 commit latency.

   The shedder and the watchdog are off by default; the shedder's
   disabled fast path is a single atomic load, per the repo-wide
   observability budget. *)

(* ------------------------------------------------------------------ *)
(* Control parts                                                        *)

(* The escalation state machine, kept pure (no clocks, no atomics) so
   qcheck can drive it through arbitrary pressure sequences.  Pressure
   above [enter_above] for [dwell] consecutive samples climbs one level,
   below [exit_below] for [dwell] samples descends one level, and the
   dead band between them holds — so recovery is stable and the level
   never jumps.  At [dwell = 1] and [max_level = 1] this is a plain
   two-state hysteresis: the shedder's Normal/Degraded machine. *)
module Ladder = struct
  type config = {
    enter_above : float;  (* pressure climbing one level *)
    exit_below : float;  (* pressure descending one level *)
    dwell : int;  (* consecutive samples before a move *)
    max_level : int;  (* escalation ceiling *)
  }

  type t = { level : int; up_streak : int; down_streak : int }

  let initial = { level = 0; up_streak = 0; down_streak = 0 }

  (* One pressure observation.  Streaks reset whenever the sample
     falls outside their side of the band, so [dwell] means [dwell]
     *consecutive* samples — a flapping signal never moves the
     ladder.  Returns the successor and whether the level changed. *)
  let step cfg st ~pressure =
    let move by =
      ({ level = st.level + by; up_streak = 0; down_streak = 0 }, true)
    in
    if pressure > cfg.enter_above then
      if st.up_streak + 1 >= cfg.dwell && st.level < cfg.max_level then move 1
      else ({ st with up_streak = st.up_streak + 1; down_streak = 0 }, false)
    else if pressure < cfg.exit_below then
      if st.down_streak + 1 >= cfg.dwell && st.level > 0 then move (-1)
      else ({ st with down_streak = st.down_streak + 1; up_streak = 0 }, false)
    else ({ st with up_streak = 0; down_streak = 0 }, false)
end

(* The EWMA update every controller uses; the first sample seeds it. *)
let ewma ~alpha ~have prev x =
  if have then (alpha *. x) +. ((1.0 -. alpha) *. prev) else x

(* Refill-and-take token bucket: a shaped trickle of admissions. *)
module Bucket = struct
  type t = {
    mu : Mutex.t;
    capacity : float;
    rate : float;  (* tokens per second *)
    mutable tokens : float;
    mutable last_ns : int;
  }

  let make ~capacity ~rate =
    let last_ns = Clock.now_mono_ns () in
    { mu = Mutex.create (); capacity; rate; tokens = capacity; last_ns }

  let take b =
    Mutex.lock b.mu;
    let now = Clock.now_mono_ns () in
    let dt = float_of_int (now - b.last_ns) *. 1e-9 in
    b.last_ns <- now;
    b.tokens <- Float.min b.capacity (b.tokens +. (Float.max 0.0 dt *. b.rate));
    let ok = b.tokens >= 1.0 in
    if ok then b.tokens <- b.tokens -. 1.0;
    Mutex.unlock b.mu;
    ok
end

(* One sampled controller: an EWMA of observations, a [Ladder] stepped
   on that EWMA at most once per window, and the ladder's level
   mirrored into an atomic so admission fast paths never take [mu]. *)
module Loop = struct
  type t = {
    ladder_cfg : Ladder.config;
    alpha : float;
    window_ns : int;
    mu : Mutex.t;
    mutable ewma : float;
    mutable have : bool;
    mutable ladder : Ladder.t;
    mutable transitions : int;
    mutable peak : int;
    next_ns : int Atomic.t;
    level : int Atomic.t;
  }

  (* [defer] makes the first window start now instead of letting the
     first [due] fire immediately. *)
  let make ?(defer = false) ladder_cfg ~alpha ~window =
    let window_ns = int_of_float (window *. 1e9) in
    let first_ns = if defer then Clock.now_mono_ns () + window_ns else 0 in
    { ladder_cfg; alpha; window_ns; mu = Mutex.create (); ewma = 0.0;
      have = false; ladder = Ladder.initial; transitions = 0; peak = 0;
      next_ns = Atomic.make first_ns; level = Atomic.make 0 }

  let level t = Atomic.get t.level
  let value t = if t.have then Some t.ewma else None

  (* The time gate: true for exactly one caller per window, claimed by
     CAS so one domain pays for each window's bookkeeping. *)
  let due t =
    let due = Atomic.get t.next_ns in
    let now = Clock.now_mono_ns () in
    now >= due && Atomic.compare_and_set t.next_ns due (now + t.window_ns)

  (* Fold one observation into the EWMA; [replace] overwrites it
     instead (the test hooks' "straight into the ladder"). *)
  let observe ?(replace = false) t x =
    Mutex.lock t.mu;
    t.ewma <- ewma ~alpha:t.alpha ~have:(t.have && not replace) t.ewma x;
    t.have <- true;
    Mutex.unlock t.mu

  (* Step the ladder on the current EWMA; true when the level moved. *)
  let step t =
    Mutex.lock t.mu;
    let st, changed = Ladder.step t.ladder_cfg t.ladder ~pressure:t.ewma in
    t.ladder <- st;
    if changed then begin
      Atomic.set t.level st.Ladder.level;
      t.transitions <- t.transitions + 1;
      t.peak <- max t.peak st.Ladder.level
    end;
    Mutex.unlock t.mu;
    changed
end

(* ------------------------------------------------------------------ *)
(* The overload shedder                                                 *)

module Shedder = struct
  type config = {
    sample_window : float;
        (* seconds between abort-rate samples of the Stats counters *)
    alpha : float;  (* EWMA weight of the newest window *)
    degrade_above : float;  (* EWMA abort rate that enters Degraded *)
    recover_below : float;  (* EWMA abort rate that re-enters Normal *)
    min_window_attempts : int;
        (* windows with fewer attempt starts than this are discarded:
           a near-idle window's rate is mostly noise *)
    bucket_capacity : float;  (* token bucket burst size *)
    refill_per_s : float;  (* tokens per second while Degraded *)
  }

  let default_config =
    {
      sample_window = 0.01;
      alpha = 0.3;
      degrade_above = 0.7;
      recover_below = 0.4;
      min_window_attempts = 32;
      bucket_capacity = 64.0;
      refill_per_s = 2000.0;
    }

  type state = Normal | Degraded

  let state_name = function Normal -> "normal" | Degraded -> "degraded"

  (* One enabled episode of the shedder.  The bucket is consulted only
     while Degraded: a shaped trickle keeps the system making progress
     (and producing rate samples to recover with) instead of slamming
     shut. *)
  type inst = {
    cfg : config;
    loop : Loop.t;
    bucket : Bucket.t;
    last : Stats.snapshot Atomic.t;
  }

  (* [None] while disabled: [admit]'s whole fast path is this load. *)
  let cur : inst option Atomic.t = Atomic.make None

  let publish_gauges s =
    Proust_obs.Metrics.set_gauge "qos_state" (Loop.level s.loop);
    Proust_obs.Metrics.set_gauge "qos_abort_ewma_bp"
      (int_of_float (s.loop.Loop.ewma *. 10_000.0))

  let apply_rate s rate =
    Loop.observe s.loop rate;
    if Loop.step s.loop then Stats.record_degraded_transition ();
    publish_gauges s

  let sample s =
    let now = Stats.read () in
    let w = Stats.diff (Atomic.exchange s.last now) now in
    if w.Stats.starts >= s.cfg.min_window_attempts then
      apply_rate s (float_of_int w.Stats.aborts /. float_of_int w.Stats.starts)

  let admit () =
    match Atomic.get cur with
    | None -> true
    | Some s ->
        if Loop.due s.loop then sample s;
        Loop.level s.loop = 0 || Bucket.take s.bucket

  let enable ?(config = default_config) () =
    (* Normal/Degraded: the two-level, dwell-1 ladder. *)
    let ladder =
      { Ladder.enter_above = config.degrade_above;
        exit_below = config.recover_below; dwell = 1; max_level = 1 }
    in
    let s =
      {
        cfg = config;
        loop =
          Loop.make ~defer:true ladder ~alpha:config.alpha
            ~window:config.sample_window;
        bucket =
          Bucket.make ~capacity:config.bucket_capacity
            ~rate:config.refill_per_s;
        last = Atomic.make (Stats.read ());
      }
    in
    publish_gauges s;
    Atomic.set cur (Some s)

  let disable () = Atomic.set cur None
  let enabled () = Option.is_some (Atomic.get cur)

  let state () =
    match Atomic.get cur with
    | Some s when Loop.level s.loop > 0 -> Degraded
    | _ -> Normal

  let abort_ewma () =
    Option.bind (Atomic.get cur) (fun s -> Loop.value s.loop)

  (* Test hook: feed one observation straight into the EWMA/ladder
     without waiting for a real Stats window. *)
  let inject_sample rate =
    Option.iter (fun s -> apply_rate s rate) (Atomic.get cur)
end

(* ------------------------------------------------------------------ *)
(* Per-tenant QoS classes                                               *)

(* The shedder above is class-blind: one process-wide EWMA, one token
   bucket, every caller equal at the door.  Multi-tenant service needs
   the opposite: each tenant carries its own admission bucket and its
   own abort/read-mix EWMAs, so an antagonist's thrashing is charged
   to the antagonist — the primitive the brownout controller's
   class-aware degradation is built from. *)
module Tenant = struct
  type klass = Gold | Bronze

  let klass_name = function Gold -> "gold" | Bronze -> "bronze"

  type config = {
    rate : float;
        (* sustained admissions per second; <= 0 means uncapped *)
    burst : float;  (* token-bucket capacity *)
    alpha : float;  (* EWMA weight for the abort-rate/read-mix samples *)
    read_dominated_above : float;
        (* read-mix EWMA at or above which the tenant counts as
           read-dominated (eligible for RO routing under brownout) *)
  }

  let default_config =
    { rate = 0.0; burst = 32.0; alpha = 0.05; read_dominated_above = 0.75 }

  (* The counter table.  Rows are declared in JSON key order; each
     row's value is its index into [t.counts].  One unstriped cell per
     counter: tenants are few and bump each counter once per request,
     so the 16-way striping Stats uses would be overkill here. *)
  type counter = int

  let rows = ref []

  let row name =
    rows := name :: !rows;
    List.length !rows - 1

  let arrivals = row "arrivals"
  let admitted = row "admitted"
  let committed = row "committed"
  let shed = row "shed"
  let timed_out = row "timed_out"
  let budget_exhausted = row "budget_exhausted"
  let ro_routed = row "ro_routed"
  let aborts = row "aborts"
  let names = Array.of_list (List.rev !rows)

  type t = {
    name : string;
    klass : klass;
    cfg : config;
    counts : int Atomic.t array;
    bucket : Bucket.t;
    mu : Mutex.t;
    mutable abort_ewma : float;
    mutable read_ewma : float;
    mutable have_sample : bool;
  }

  let make ?(config = default_config) ~name ~klass () =
    {
      name;
      klass;
      cfg = config;
      counts = Array.init (Array.length names) (fun _ -> Atomic.make 0);
      bucket = Bucket.make ~capacity:config.burst ~rate:config.rate;
      mu = Mutex.create ();
      abort_ewma = 0.0;
      read_ewma = 0.0;
      have_sample = false;
    }

  let name t = t.name
  let klass t = t.klass
  let bump t c = Atomic.incr t.counts.(c)

  (* Token-bucket admission; one call per arriving request.  A refusal
     is the caller's cue to count a shed — the bucket itself stays
     outcome-agnostic. *)
  let admit t =
    bump t arrivals;
    let ok = t.cfg.rate <= 0.0 || Bucket.take t.bucket in
    if ok then bump t admitted;
    ok

  (* One finished episode's observations: the abort-rate sample is the
     episode's wasted-attempt share (a clean first-attempt commit is
     0.0; a deadline/budget failure is 1.0 — everything it did was
     waste), the read-mix sample is 1.0 for a pure-read episode. *)
  type outcome_kind = Committed | Shed | Timed_out | Budget_exhausted

  let observe t ~read abort_sample =
    Mutex.lock t.mu;
    let alpha = t.cfg.alpha and have = t.have_sample in
    t.abort_ewma <- ewma ~alpha ~have t.abort_ewma abort_sample;
    t.read_ewma <- ewma ~alpha ~have t.read_ewma (if read then 1.0 else 0.0);
    t.have_sample <- true;
    Mutex.unlock t.mu

  let note_outcome t kind ~read ~aborts:n =
    if n > 0 then ignore (Atomic.fetch_and_add t.counts.(aborts) n);
    match kind with
    | Committed ->
        bump t committed;
        observe t ~read (float_of_int n /. float_of_int (n + 1))
    | Shed -> bump t shed
    | Timed_out ->
        bump t timed_out;
        observe t ~read 1.0
    | Budget_exhausted ->
        bump t budget_exhausted;
        observe t ~read 1.0

  let note_ro_routed t = bump t ro_routed
  let abort_ewma t = if t.have_sample then Some t.abort_ewma else None
  let read_fraction t = if t.have_sample then Some t.read_ewma else None

  let read_dominated t =
    t.have_sample && t.read_ewma >= t.cfg.read_dominated_above

  type stats = {
    s_counts : int array;
    s_abort_ewma : float;
    s_read_fraction : float;
  }

  let stats t =
    {
      s_counts = Array.map Atomic.get t.counts;
      s_abort_ewma = t.abort_ewma;
      s_read_fraction = t.read_ewma;
    }

  let count s c = s.s_counts.(c)
  let to_assoc s = List.combine (Array.to_list names) (Array.to_list s.s_counts)
end

(* ------------------------------------------------------------------ *)
(* The brownout controller                                              *)

(* Stepwise graceful degradation under sustained overload: a [Loop]
   over the four levels below.  [Route_ro] sends read-dominated
   tenants' pure-read requests onto the abort-free [Stm.read_only]
   MVCC path, so they stop competing for write locks at zero shed
   cost; [Shed_bronze] turns bronze away and keeps gold's full
   service; [Shed_gold] turns everyone away.  Deployments that treat
   gold admission as contractual cap [max_level] at [Shed_bronze] (the
   opensystem bench does): "shed bronze before gold, never gold".

   Pressure is admission lag — how far behind its *intended* arrival a
   request started — over [lag_budget].  Lag is the honest open-system
   overload signal: abort storms, convoys and parked queues all surface
   as lag, and it falls to zero once degradation relieves the system. *)
module Brownout = struct
  type level = Normal | Route_ro | Shed_bronze | Shed_gold

  let level_index = function
    | Normal -> 0
    | Route_ro -> 1
    | Shed_bronze -> 2
    | Shed_gold -> 3

  let level_of_index = function
    | 0 -> Normal
    | 1 -> Route_ro
    | 2 -> Shed_bronze
    | _ -> Shed_gold

  let level_name = function
    | Normal -> "normal"
    | Route_ro -> "route-ro"
    | Shed_bronze -> "shed-bronze"
    | Shed_gold -> "shed-gold"

  type config = {
    ladder : Ladder.config;
    alpha : float;  (* EWMA weight of the newest lag observation *)
    sample_window : float;  (* min seconds between ladder steps *)
    lag_budget : float;
        (* seconds of admission lag that count as pressure 1.0 *)
  }

  let default_config =
    {
      ladder =
        { Ladder.enter_above = 1.0; exit_below = 0.4; dwell = 3;
          max_level = 3 };
      alpha = 0.2;
      sample_window = 0.01;
      lag_budget = 0.005;
    }

  type t = { cfg : config; loop : Loop.t }

  let make ?(config = default_config) () =
    {
      cfg = config;
      loop =
        Loop.make config.ladder ~alpha:config.alpha
          ~window:config.sample_window;
    }

  let level t = level_of_index (Loop.level t.loop)
  let transitions t = t.loop.Loop.transitions
  let peak_level t = level_of_index t.loop.Loop.peak
  let pressure t = Loop.value t.loop

  let step t =
    if Loop.step t.loop then
      Proust_obs.Metrics.set_gauge "brownout_level" (Loop.level t.loop)

  (* One admission-lag observation (seconds), typically once per
     request.  The EWMA updates every call; the ladder only steps once
     per [sample_window]. *)
  let note_lag t ~lag =
    Loop.observe t.loop (Float.max 0.0 lag /. t.cfg.lag_budget);
    if Loop.due t.loop then step t

  let inject_pressure t p =
    Loop.observe ~replace:true t.loop p;
    step t

  type decision = Admit | Admit_ro | Shed

  let decision_name = function
    | Admit -> "admit"
    | Admit_ro -> "admit-ro"
    | Shed -> "shed"

  (* Class-aware routing for one admitted request.  [read_txn] says the
     request's transaction body is pure reads (the only shape the
     abort-free RO path can run). *)
  let plan t tenant ~read_txn =
    let route_ro () =
      if read_txn && Tenant.read_dominated tenant then Admit_ro else Admit
    in
    match level t with
    | Normal -> Admit
    | Route_ro -> route_ro ()
    | Shed_bronze ->
        if Tenant.klass tenant = Tenant.Bronze then Shed else route_ro ()
    | Shed_gold -> Shed
end

(* ------------------------------------------------------------------ *)
(* The stuck-transaction watchdog                                       *)

module Watchdog = struct
  type config = {
    interval : float;  (* seconds between scans *)
    p99_multiple : float;
        (* kill threshold as a multiple of the observed p99 commit
           latency (max across Metrics scopes) *)
    min_age : float;
        (* seconds: floor under the kill threshold, and the whole
           threshold when no commit latency has been observed yet *)
    breaker_multiple : float;
        (* gate-breaker threshold as a multiple of the kill threshold *)
  }

  let default_config =
    { interval = 0.01; p99_multiple = 16.0; min_age = 0.05; breaker_multiple = 4.0 }

  let kills_c = Atomic.make 0
  let breaks_c = Atomic.make 0
  let kills () = Atomic.get kills_c
  let breaks () = Atomic.get breaks_c

  (* The kill threshold adapts to the workload: a healthy long-running
     analytics transaction under a slow protocol is not "stuck" if
     commits of its ilk routinely take that long.  With metrics off (no
     samples) the static [min_age] floor is the whole threshold. *)
  let threshold_ns cfg =
    let floor_ns = int_of_float (cfg.min_age *. 1e9) in
    let p99 =
      List.fold_left
        (fun acc (s : Proust_obs.Metrics.scope_summary) ->
          if s.commit.Proust_obs.Histogram.count > 0 then
            max acc s.commit.Proust_obs.Histogram.p99
          else acc)
        0
        (Proust_obs.Metrics.scopes ())
    in
    if p99 = 0 then floor_ns
    else max floor_ns (int_of_float (cfg.p99_multiple *. float_of_int p99))

  (* One pass over the watch slots.  Escalation ladder:

     1. an attempt older than the threshold is killed through
        [Txn_desc.try_kill] — the same CAS a contention manager uses,
        so the victim unwinds through the ordinary abort path with all
        its lock hygiene.  [try_kill] refuses irrevocable descriptors,
        which is what keeps healthy serial-fallback attempts safe from
        false kills by construction;
     2. if the stuck attempt holds the serial commit gate and has aged
        past [breaker_multiple] thresholds, the kill evidently did not
        free the gate (e.g. the holder is wedged past its last liveness
        check, or died mid-publish): break the gate by force so the
        rest of the system stops convoying behind it.  This is a
        last-resort availability-over-purity move and is counted
        separately in [breaks]. *)
  let scan_once ?(config = default_config) () =
    let thr = threshold_ns config in
    let brk = int_of_float (config.breaker_multiple *. float_of_int thr) in
    let now = Clock.now_mono_ns () in
    List.iter
      (fun (ws : Txn_state.watch_slot) ->
        match Atomic.get ws.Txn_state.ws_desc with
        | None -> ()
        | Some d ->
            let age = now - Atomic.get ws.Txn_state.ws_start_ns in
            if age > thr && Txn_desc.is_active d then begin
              if Txn_desc.try_kill d then begin
                Stats.record_watchdog_kill ();
                Atomic.incr kills_c
              end
            end;
            if
              age > brk
              && (not d.Txn_desc.irrevocable)
              && Atomic.get Txn_state.commit_gate = d.Txn_desc.id
            then
              if Atomic.compare_and_set Txn_state.commit_gate d.Txn_desc.id 0
              then begin
                Stats.record_watchdog_kill ();
                Atomic.incr breaks_c
              end)
      (Txn_state.watch_list ())

  type t = { stop_flag : bool Atomic.t; dom : unit Domain.t }

  let start ?(config = default_config) () =
    Txn_state.set_watchdog true;
    let stop_flag = Atomic.make false in
    let dom =
      Domain.spawn (fun () ->
          while not (Atomic.get stop_flag) do
            scan_once ~config ();
            Unix.sleepf config.interval
          done)
    in
    { stop_flag; dom }

  let stop t =
    Atomic.set t.stop_flag true;
    Domain.join t.dom;
    Txn_state.set_watchdog false
end
