(** The open-system runner: a shared pool of service domains works a
    merged, pre-scheduled stream of per-tenant requests, each stamped
    with its {e intended} arrival time, and every request is measured
    from that intended time — so queueing delay stays in the latency
    numbers (coordinated-omission-correct, unlike the closed-loop
    {!Runner}, which silently re-times its schedule around the
    system's own slowness).

    The pool is shared across tenants deliberately: that is the real
    overload topology, where one tenant's backlog delays everyone
    head-of-line, and it is exactly what per-class admission control
    must fix — a {!Qos.Brownout} shed decision costs microseconds, so
    shedding the antagonist at admission drains its backlog before the
    well-behaved tenant's requests queue behind it.

    Each tenant brings its own arrival process, key distribution,
    QoS-class token bucket ({!Qos.Tenant}) and deadline; the optional
    brownout controller is consulted per request and fed the
    admission-lag pressure signal.  Latencies land in the
    {!Proust_obs.Metrics} scope named after the tenant — the
    [intended]/[service] histogram pair with p999 — so isolation is
    measurable per tenant, not just in aggregate. *)

module Metrics = Proust_obs.Metrics
module T = Proust_structures.Trait

type tenant_spec = {
  ts_name : string;
  ts_klass : Qos.Tenant.klass;
  ts_process : Arrivals.process;
  ts_dist : Arrivals.key_dist;
  ts_keys : int;
  ts_write_fraction : float;
  ts_ops_per_txn : int;
  ts_deadline : float;  (** per-request deadline, seconds *)
  ts_max_attempts : int option;
      (** per-request retry budget; [None] = deadline only.  A tight
          budget makes a contention-thrashing class fail fast with
          [Budget_exhausted] instead of occupying a pool worker for
          the whole deadline. *)
  ts_qos : Qos.Tenant.config;
}

let tenant_spec ?(dist = Arrivals.Uniform) ?(keys = 1_000_000)
    ?(write_fraction = 0.2) ?(ops_per_txn = 2) ?(deadline = 0.05)
    ?max_attempts ?(qos = Qos.Tenant.default_config) ~name ~klass process =
  {
    ts_name = name;
    ts_klass = klass;
    ts_process = process;
    ts_dist = dist;
    ts_keys = keys;
    ts_write_fraction = write_fraction;
    ts_ops_per_txn = ops_per_txn;
    ts_deadline = deadline;
    ts_max_attempts = max_attempts;
    ts_qos = qos;
  }

type tenant_result = {
  tr_name : string;
  tr_klass : Qos.Tenant.klass;
  tr_stats : Qos.Tenant.stats;
  tr_goodput : float;  (** committed requests per second *)
  tr_offered : float;  (** scheduled arrivals per second *)
  tr_latency : Metrics.scope_summary option;
      (** the tenant's metrics scope: [intended]/[service] histograms
          (nanoseconds) with p999 *)
  tr_max_lag_s : float;  (** worst admission lag observed, seconds *)
}

type result = {
  o_duration : float;
  o_offered : float;  (** total scheduled arrivals per second *)
  o_brownout_peak : Qos.Brownout.level option;
  o_brownout_transitions : int;
  o_tenants : tenant_result list;
  o_stats : Stats.snapshot;  (** STM activity during the run *)
}

(* Per-tenant run state shared by the pool. *)
type tenant_rt = {
  rt_spec : tenant_spec;
  rt_tenant : Qos.Tenant.t;
  rt_ops : Workload.op array;  (* schedule length * ops_per_txn *)
  rt_max_lag_ns : int Atomic.t;
}

(* One merged-stream request: intended offset, tenant index, and the
   request's index within its tenant's op stream. *)
type req = { rq_off : float; rq_tenant : int; rq_idx : int }

let note_max_lag rt ns =
  let rec bump () =
    let cur = Atomic.get rt.rt_max_lag_ns in
    if ns > cur && not (Atomic.compare_and_set rt.rt_max_lag_ns cur ns) then
      bump ()
  in
  if ns > 0 then bump ()

(* Sleep-then-spin to an absolute monotonic time: sleepf gets within a
   millisecond, the spin takes out scheduler wake jitter. *)
let wait_until target =
  let dt = target -. Clock.now_mono () in
  if dt > 0.0015 then Unix.sleepf (dt -. 0.001);
  while Clock.now_mono () < target do
    Domain.cpu_relax ()
  done

(* One pool worker: serves requests [w, w + W, w + 2W, ...] of the
   merged stream, in intended-time order.  Never re-anchors: a worker
   running behind schedule issues the backlog immediately and the lag
   lands in the intended histogram — that is the whole point.  Past
   [cutoff] (run end plus the drain allowance) any remaining backlog
   is shed at the harness so a hopelessly overloaded cell still
   terminates — the sheds stay in the tenant's accounting. *)
let worker ?config ?brownout ~ro_ok ~t0 ~cutoff ~workers
    ~(apply : Stm.txn -> Workload.op -> unit) (reqs : req array)
    (rts : tenant_rt array) w =
  let n = Array.length reqs in
  let j = ref w in
  while !j < n do
    let rq = reqs.(!j) in
    let rt = rts.(rq.rq_tenant) in
    let spec = rt.rt_spec in
    let ten = rt.rt_tenant in
    Metrics.set_label spec.ts_name;
    if Clock.now_mono () > cutoff then begin
      (* Harness drain cutoff: account the arrival, shed the work. *)
      ignore (Qos.Tenant.admit ten);
      Qos.Tenant.note_outcome ten Qos.Tenant.Shed ~read:false ~aborts:0
    end
    else begin
      let intended = t0 +. rq.rq_off in
      wait_until intended;
      let o = spec.ts_ops_per_txn in
      let base = rq.rq_idx * o in
      let read_txn = ref true in
      for i = base to base + o - 1 do
        match rt.rt_ops.(i) with
        | Workload.Get _ -> ()
        | Workload.Put _ | Workload.Remove _ -> read_txn := false
      done;
      let read_txn = !read_txn in
      let decide () =
        if not (Qos.Tenant.admit ten) then Qos.Brownout.Shed
        else
          match brownout with
          | None -> Qos.Brownout.Admit
          | Some b -> Qos.Brownout.plan b ten ~read_txn
      in
      let now = Clock.now_mono () in
      let lag = now -. intended in
      note_max_lag rt (int_of_float (lag *. 1e9));
      (* Every request — served or shed — feeds the pressure signal:
         a controller that only heard from survivors could never
         recover once it sheds everything. *)
      Option.iter (fun b -> Qos.Brownout.note_lag b ~lag) brownout;
      match decide () with
      | Qos.Brownout.Shed ->
          Qos.Tenant.note_outcome ten Qos.Tenant.Shed ~read:read_txn ~aborts:0
      | (Qos.Brownout.Admit | Qos.Brownout.Admit_ro) as d ->
          let ro = d = Qos.Brownout.Admit_ro && ro_ok && read_txn in
          if ro then Qos.Tenant.note_ro_routed ten;
          let start = Clock.now_mono () in
          let runs = ref 0 in
          let outcome =
            Stm.atomic ?config ?max_attempts:spec.ts_max_attempts
              ~read_only:ro ~deadline:(start +. spec.ts_deadline) (fun txn ->
                incr runs;
                for i = base to base + o - 1 do
                  apply txn rt.rt_ops.(i)
                done)
          in
          let fin = Clock.now_mono () in
          let aborts = max 0 (!runs - 1) in
          (* Every executed episode lands in the latency pair —
             including timeouts, whose cost is the deadline plus the
             queueing that preceded it.  Recording only commits would
             be survivor bias: overload would *improve* the numbers. *)
          Metrics.add_intended_latency
            (int_of_float ((fin -. intended) *. 1e9));
          Metrics.add_service_latency (int_of_float ((fin -. start) *. 1e9));
          let kind =
            match outcome with
            | Stm.Outcome.Committed () -> Qos.Tenant.Committed
            | Stm.Outcome.Timed_out -> Qos.Tenant.Timed_out
            | Stm.Outcome.Budget_exhausted -> Qos.Tenant.Budget_exhausted
            | Stm.Outcome.Shed -> Qos.Tenant.Shed
          in
          Qos.Tenant.note_outcome ten kind ~read:read_txn ~aborts
    end;
    j := !j + workers
  done

(** [run ?seed ?config ?brownout ?workers ?prefill ~duration ~entry
    tenants] — one open-system run of [duration] seconds against a map
    registry entry, served by a shared pool of [workers] domains.
    Schedules and op streams are deterministic from [seed] (default
    [PROUST_SEED]); service timing of course is not.  RO routing is
    honoured only when the effective STM mode is [Multi_version] (the
    abort-free snapshot path needs version chains).  Metrics are
    force-enabled for the run and the tenants' scopes reset, so
    [tr_latency] is always populated.  [workers] defaults to the
    machine (capped at 4, one core left for the coordinator):
    oversubscribing domains turns scheduler timeslices into a
    double-digit-ms latency floor. *)
let run ?seed ?config ?brownout ?workers ?(prefill = 10_000)
    ?(warmup = 0.0) ?(drain = 0.25) ~duration ~(entry : Registry.entry)
    (tenants : tenant_spec list) =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> max 1 (min 4 (Domain.recommended_domain_count () - 1))
  in
  let make_ops =
    match entry.Registry.target with
    | Registry.Map make -> make
    | _ ->
        invalid_arg
          ("Open_runner.run: registry entry " ^ entry.Registry.name
         ^ " is not a map")
  in
  let config = match config with Some c -> Some c | None -> entry.Registry.config in
  let ro_ok =
    (match config with
    | Some c -> c.Stm.mode
    | None -> (Stm.get_default_config ()).Stm.mode)
    = Stm.Multi_version
  in
  let ops = make_ops () in
  (* Sequential prefill: covers the unscrambled-Zipf / hotset key
     prefix every skewed tenant hammers. *)
  let prefill_n =
    List.fold_left (fun acc ts -> min acc ts.ts_keys) prefill tenants
  in
  for k = 0 to prefill_n - 1 do
    Stm.atomically ?config (fun txn -> ignore (ops.T.Map.put txn k k))
  done;
  let apply txn op = Workload.apply_op ops txn op in
  let scheds = ref [] in
  let rts =
    Array.of_list
      (List.mapi
         (fun i ts ->
           let sched_rng = Arrivals.rng ?seed ~salt:[ i; 1 ] () in
           let ops_rng = Arrivals.rng ?seed ~salt:[ i; 2 ] () in
           (* Size the candidate pool by the *peak* rate — for a
              bursty process a window that skews on-heavy would
              exhaust a mean-rate pool mid-run and silently stop
              offering traffic — plus 20% headroom; offsets past
              [duration] are dropped at the merge (and never
              accounted as arrivals). *)
           let rate =
             match ts.ts_process with
             | Arrivals.Poisson { rate } -> rate
             | Arrivals.Bursty { rate_on; rate_off; _ } ->
                 Float.max rate_on rate_off
           in
           let count =
             max 1 (int_of_float (ceil (rate *. duration *. 1.2)) + 16)
           in
           let sched = Arrivals.schedule sched_rng ts.ts_process ~count in
           scheds := (i, sched) :: !scheds;
           let kg = Arrivals.keygen ts.ts_dist ~keys:ts.ts_keys in
           {
             rt_spec = ts;
             rt_tenant =
               Qos.Tenant.make ~config:ts.ts_qos ~name:ts.ts_name
                 ~klass:ts.ts_klass ();
             rt_ops =
               Arrivals.ops ops_rng kg ~write_fraction:ts.ts_write_fraction
                 ~count:(count * ts.ts_ops_per_txn);
             rt_max_lag_ns = Atomic.make 0;
           })
         tenants)
  in
  (* Merge the tenant schedules into one intended-time-ordered stream;
     the shared pool strides over it. *)
  let reqs =
    List.concat_map
      (fun (i, sched) ->
        let l = ref [] in
        Array.iteri
          (fun idx off ->
            if off <= duration then
              l := { rq_off = off; rq_tenant = i; rq_idx = idx } :: !l)
          sched;
        !l)
      !scheds
    |> Array.of_list
  in
  Array.sort (fun a b -> compare a.rq_off b.rq_off) reqs;
  let offered = Array.make (Array.length rts) 0 in
  Array.iter
    (fun rq -> offered.(rq.rq_tenant) <- offered.(rq.rq_tenant) + 1)
    reqs;
  let was_enabled = Metrics.enabled () in
  Metrics.enable ();
  Array.iter (fun rt -> Metrics.reset_scope rt.rt_spec.ts_name) rts;
  let before = Stats.read () in
  (* Absolute run origin: far enough out that every worker is spawned
     and waiting before the first arrival is due. *)
  let t0 = Clock.now_mono () +. 0.05 +. (0.005 *. float_of_int workers) in
  let cutoff = t0 +. duration +. drain in
  let domains =
    List.init workers (fun w ->
        Domain.spawn (fun () ->
            worker ?config ?brownout ~ro_ok ~t0 ~cutoff ~workers ~apply reqs
              rts w))
  in
  (* Warmup window: let admission control find its level, then zero the
     latency scopes so the reported percentiles are steady-state.  The
     counters (sheds, timeouts, ...) deliberately stay whole-run. *)
  if warmup > 0.0 then begin
    wait_until (t0 +. warmup);
    Array.iter (fun rt -> Metrics.reset_scope rt.rt_spec.ts_name) rts
  end;
  List.iter Domain.join domains;
  let after = Stats.read () in
  if not was_enabled then Metrics.disable ();
  let tenant_result i rt =
    let st = Qos.Tenant.stats rt.rt_tenant in
    {
      tr_name = rt.rt_spec.ts_name;
      tr_klass = rt.rt_spec.ts_klass;
      tr_stats = st;
      tr_goodput =
        float_of_int Qos.Tenant.(count st committed) /. duration;
      tr_offered = float_of_int offered.(i) /. duration;
      tr_latency = Metrics.read_scope rt.rt_spec.ts_name;
      tr_max_lag_s = float_of_int (Atomic.get rt.rt_max_lag_ns) *. 1e-9;
    }
  in
  let tenant_results = Array.to_list (Array.mapi tenant_result rts) in
  {
    o_duration = duration;
    o_offered =
      float_of_int (Array.length reqs) /. duration;
    o_brownout_peak = Option.map Qos.Brownout.peak_level brownout;
    o_brownout_transitions =
      (match brownout with Some b -> Qos.Brownout.transitions b | None -> 0);
    o_tenants = tenant_results;
    o_stats = Stats.diff before after;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

module J = Proust_obs.Json

let tenant_to_json (tr : tenant_result) =
  let s = tr.tr_stats in
  J.Obj
    ([
       ("tenant", J.String tr.tr_name);
       ("class", J.String (Qos.Tenant.klass_name tr.tr_klass));
     ]
    @ List.map (fun (k, v) -> (k, J.Int v)) (Qos.Tenant.to_assoc s)
    @ [
        ("abort_ewma", J.Float s.Qos.Tenant.s_abort_ewma);
        ("read_fraction", J.Float s.Qos.Tenant.s_read_fraction);
        ("offered_rps", J.Float tr.tr_offered);
        ("goodput_rps", J.Float tr.tr_goodput);
        ("max_lag_s", J.Float tr.tr_max_lag_s);
        ( "latency_ns",
          match tr.tr_latency with
          | Some s -> Metrics.scope_summary_to_json s
          | None -> J.Null );
      ])

let to_json (r : result) =
  J.Obj
    [
      ("duration_s", J.Float r.o_duration);
      ("offered_rps", J.Float r.o_offered);
      ( "brownout_peak",
        match r.o_brownout_peak with
        | Some l -> J.String (Qos.Brownout.level_name l)
        | None -> J.Null );
      ("brownout_transitions", J.Int r.o_brownout_transitions);
      ("tenants", J.List (List.map tenant_to_json r.o_tenants));
      ( "stats",
        J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Stats.to_assoc r.o_stats))
      );
    ]
