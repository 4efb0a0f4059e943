(* The open-system robustness machinery: shard gates and the hot-key
   decorator, snapshot range scans on the single-root ordered map, the
   open runner's accounting contract, brownout-protected tenant
   isolation end to end, and the adaptive combine linger.

   Runs are sized for a single-core CI box: tiny arrival rates, short
   windows, and ordering/accounting assertions rather than latency
   bounds. *)

open Util
module C = Proust_concurrent
module S = Proust_structures
module W = Proust_workload
module A = W.Arrivals

(* -- Shard gates ----------------------------------------------------- *)

let test_shard_gate_basics () =
  let g = C.Shard_gate.create ~shards:5 ~spin:8 () in
  check ci "shards round up to a power of two" 8 (C.Shard_gate.shards g);
  let sh = C.Shard_gate.shard_of g 12345 in
  check cb "shard in range" true (sh >= 0 && sh < 8);
  check cb "uncontended acquire" true (C.Shard_gate.try_acquire g sh);
  check ci "no heat when uncontended" 0 (C.Shard_gate.heat g sh);
  (* Same shard, held: bounded spin then bypass, heat recorded. *)
  check cb "contended acquire bypasses" false (C.Shard_gate.try_acquire g sh);
  check cb "contention recorded" true (C.Shard_gate.heat g sh >= 1);
  check cb "bypass recorded" true (C.Shard_gate.bypasses g >= 1);
  let hot, heat = C.Shard_gate.hottest g in
  check ci "hottest shard" sh hot;
  check cb "hottest heat" true (heat >= 1);
  C.Shard_gate.release g sh;
  check cb "acquire after release" true (C.Shard_gate.try_acquire g sh);
  C.Shard_gate.release g sh;
  (* Other shards are independent. *)
  let other = (sh + 1) land 7 in
  check cb "sibling shard free" true (C.Shard_gate.try_acquire g other);
  C.Shard_gate.release g other

(* The decorator must release its shards on both commit and abort —
   if a path leaked the hold, the second transaction on the same key
   would register heat/bypass (it never gets the gate back). *)
let test_hot_gate_releases () =
  let hg = S.Hot_gate.make ~shards:4 ~spin:4 () in
  let m = S.P_hashmap.make ~slots:64 () in
  let ops = S.Hot_gate.wrap hg (S.P_hashmap.ops m) in
  let g = S.Hot_gate.gate hg in
  let put k v =
    Stm.atomically ~config:eager_struct_cfg (fun txn ->
        ignore (ops.S.Trait.Map.put txn k v))
  in
  put 1 10;
  put 1 11;
  put 1 12;
  check ci "no heat from serial re-puts (gate released at commit)" 0
    (C.Shard_gate.total_heat g);
  check copt_i "writes all landed" (Some 12)
    (Stm.atomically ~config:eager_struct_cfg (fun txn ->
         ops.S.Trait.Map.get txn 1));
  (* Aborting transaction: the on-abort hook must release too. *)
  (match
     Stm.atomically ~config:eager_struct_cfg (fun txn ->
         ignore (ops.S.Trait.Map.put txn 2 20);
         raise Exit)
   with
  | exception Exit -> ()
  | () -> Alcotest.fail "raising body committed");
  put 2 21;
  check ci "no heat after aborted holder (gate released at abort)" 0
    (C.Shard_gate.total_heat g);
  check copt_i "aborted put left nothing" (Some 21)
    (Stm.atomically ~config:eager_struct_cfg (fun txn ->
         ops.S.Trait.Map.get txn 2))

(* -- Snapshot ordered map: RO range scans ----------------------------- *)

let test_snap_omap_range () =
  let m = S.P_snap_omap.make () in
  Stm.atomically ~config:mvcc_cfg (fun txn ->
      for k = 1 to 100 do
        ignore (S.P_snap_omap.put m txn k (k * 10))
      done);
  let r =
    Stm.atomically ~config:mvcc_cfg (fun txn ->
        S.P_snap_omap.range m txn ~lo:40 ~hi:44)
  in
  check cb "range ascending and bounded" true
    (r = [ (40, 400); (41, 410); (42, 420); (43, 430); (44, 440) ]);
  check copt_i "min binding"
    (Some 1)
    (Stm.atomically ~config:mvcc_cfg (fun txn ->
         Option.map fst (S.P_snap_omap.min_binding m txn)));
  check copt_i "max binding"
    (Some 100)
    (Stm.atomically ~config:mvcc_cfg (fun txn ->
         Option.map fst (S.P_snap_omap.max_binding m txn)))

(* Satellite contract: under [Multi_version], a [read_only] scan runs
   abort-free against live writers and still sees a consistent
   snapshot.  Writers maintain an invariant (k and k+1000 always hold
   the same value); any torn scan would catch a half-applied pair. *)
let test_snap_omap_ro_scan_under_writers () =
  with_seed_note @@ fun () ->
  let m = S.P_snap_omap.make () in
  Stm.atomically ~config:mvcc_cfg (fun txn ->
      for k = 0 to 99 do
        ignore (S.P_snap_omap.put m txn k 0);
        ignore (S.P_snap_omap.put m txn (k + 1000) 0)
      done);
  let stop = Atomic.make false in
  let writers =
    List.init 2 (fun w ->
        Domain.spawn (fun () ->
            let st = Random.State.make [| sub_seed 40; w |] in
            while not (Atomic.get stop) do
              let k = Random.State.int st 100 in
              let v = Random.State.int st 1_000_000 in
              Stm.atomically ~config:mvcc_cfg (fun txn ->
                  ignore (S.P_snap_omap.put m txn k v);
                  ignore (S.P_snap_omap.put m txn (k + 1000) v))
            done))
  in
  let before = Stats.read () in
  let scans = 200 in
  for _ = 1 to scans do
    match
      Stm.atomic ~config:mvcc_cfg ~read_only:true (fun txn ->
          ( S.P_snap_omap.range m txn ~lo:0 ~hi:99,
            S.P_snap_omap.range m txn ~lo:1000 ~hi:1099 ))
    with
    | Stm.Outcome.Committed (lo, hi) ->
        check ci "scan sees all 100 low keys" 100 (List.length lo);
        List.iter2
          (fun (k, v) (k', v') ->
            if k' <> k + 1000 || v' <> v then
              Alcotest.failf "torn snapshot at key %d: %d vs %d" k v v')
          lo hi
    | _ -> Alcotest.fail "read-only scan did not commit"
  done;
  Atomic.set stop true;
  List.iter Domain.join writers;
  let d = Stats.diff before (Stats.read ()) in
  check ci "read-only scans never aborted" 0 d.Stats.ro_aborts

(* -- Open runner: accounting and determinism -------------------------- *)

let tiny_tenants =
  [
    W.Open_runner.tenant_spec ~name:"t-gold" ~klass:Qos.Tenant.Gold
      ~keys:1_000 ~write_fraction:0.2 ~deadline:0.5
      (A.Poisson { rate = 400.0 });
    W.Open_runner.tenant_spec ~name:"t-bronze" ~klass:Qos.Tenant.Bronze
      ~dist:(A.Hotset { hot = 4; fraction = 0.9 })
      ~keys:1_000 ~write_fraction:0.8 ~deadline:0.5
      (A.Poisson { rate = 400.0 });
  ]

let run_tiny ?brownout ?seed () =
  let entry =
    match W.Registry.find "omap-snap" with
    | Some e -> e
    | None -> Alcotest.fail "omap-snap not registered"
  in
  W.Open_runner.run ?brownout ?seed ~workers:2 ~prefill:100 ~duration:0.4
    ~entry tiny_tenants

let test_open_runner_accounting () =
  with_seed_note @@ fun () ->
  let r = run_tiny () in
  check ci "two tenants" 2 (List.length r.W.Open_runner.o_tenants);
  List.iter
    (fun tr ->
      let n = Qos.Tenant.count tr.W.Open_runner.tr_stats in
      let resolved =
        Qos.Tenant.(n committed + n shed + n timed_out + n budget_exhausted)
      in
      check ci
        (tr.W.Open_runner.tr_name ^ ": every arrival resolves exactly once")
        (n Qos.Tenant.arrivals) resolved;
      check cb
        (tr.W.Open_runner.tr_name ^ ": arrivals happened")
        true
        (n Qos.Tenant.arrivals > 0);
      match tr.W.Open_runner.tr_latency with
      | None -> Alcotest.fail "latency scope missing"
      | Some sc ->
          let module O = Proust_obs in
          let intended = sc.O.Metrics.intended and service = sc.O.Metrics.service in
          check cb
            (tr.W.Open_runner.tr_name ^ ": intended histogram populated")
            true
            (intended.O.Histogram.count > 0);
          check ci
            (tr.W.Open_runner.tr_name
           ^ ": one intended sample per executed episode")
            intended.O.Histogram.count service.O.Histogram.count;
          (* Intended latency includes queueing before service start:
             pointwise it can only exceed the service time, so the
             means must be ordered. *)
          check cb
            (tr.W.Open_runner.tr_name ^ ": intended mean >= service mean")
            true
            (intended.O.Histogram.mean >= service.O.Histogram.mean))
    r.W.Open_runner.o_tenants

let test_open_runner_schedule_deterministic () =
  with_seed_note @@ fun () ->
  let arrivals r =
    List.map
      (fun tr ->
        ( tr.W.Open_runner.tr_name,
          Qos.Tenant.(count tr.W.Open_runner.tr_stats arrivals) ))
      r.W.Open_runner.o_tenants
  in
  let a = run_tiny ~seed:11 () and b = run_tiny ~seed:11 () in
  check cb "same seed: identical arrival counts" true (arrivals a = arrivals b);
  let c = run_tiny ~seed:12 () in
  check cb "different seed: different schedule" true (arrivals a <> arrivals c)

(* The per-tenant JSON object's keys, in order, with each counter
   bumped a distinct number of times so a counter bound to the wrong
   key reads as a wrong value. *)
let test_tenant_json_keys () =
  let t =
    Qos.Tenant.make
      ~config:{ Qos.Tenant.default_config with rate = 1e-6; burst = 2.0 }
      ~name:"t" ~klass:Qos.Tenant.Bronze ()
  in
  let times n f = for _ = 1 to n do f () done in
  let outcome kind n ~aborts =
    times n (fun () -> Qos.Tenant.note_outcome t kind ~read:false ~aborts:0);
    Qos.Tenant.note_outcome t kind ~read:false ~aborts
  in
  (* A burst of 2: 9 arrivals, 2 admitted. *)
  times 9 (fun () -> ignore (Qos.Tenant.admit t));
  outcome Qos.Tenant.Committed 2 ~aborts:0;
  outcome Qos.Tenant.Shed 3 ~aborts:0;
  outcome Qos.Tenant.Timed_out 4 ~aborts:0;
  outcome Qos.Tenant.Budget_exhausted 5 ~aborts:8;
  times 7 (fun () -> Qos.Tenant.note_ro_routed t);
  let tr =
    {
      W.Open_runner.tr_name = "t";
      tr_klass = Qos.Tenant.Bronze;
      tr_stats = Qos.Tenant.stats t;
      tr_goodput = 0.0;
      tr_offered = 0.0;
      tr_latency = None;
      tr_max_lag_s = 0.0;
    }
  in
  let fields =
    match W.Open_runner.tenant_to_json tr with
    | Proust_obs.Json.Obj kvs -> kvs
    | _ -> Alcotest.fail "tenant JSON is not an object"
  in
  check (Alcotest.list cs) "tenant JSON keys, in order"
    [
      "tenant"; "class"; "arrivals"; "admitted"; "committed"; "shed";
      "timed_out"; "budget_exhausted"; "ro_routed"; "aborts"; "abort_ewma";
      "read_fraction"; "offered_rps"; "goodput_rps"; "max_lag_s";
      "latency_ns";
    ]
    (List.map fst fields);
  List.iter
    (fun (key, v) ->
      check cb (key ^ " value") true
        (List.assoc key fields = Proust_obs.Json.Int v))
    [
      ("arrivals", 9); ("admitted", 2); ("committed", 3); ("shed", 4);
      ("timed_out", 5); ("budget_exhausted", 6); ("ro_routed", 7);
      ("aborts", 8);
    ]

(* End-to-end isolation contract: under an escalated controller capped
   at [Shed_bronze], the runner sheds every bronze request and not one
   gold request.  Whether a real overload escalates the ladder is
   machine-dependent (the CI bench gate proves that half); here the
   controller is pre-escalated through its public pressure hook and
   pinned ([exit_below = 0.0] can never be undercut — pressure is
   strictly positive), so the class-enforcement path is deterministic
   on any hardware. *)
let test_brownout_never_sheds_gold () =
  with_seed_note @@ fun () ->
  let entry =
    match W.Registry.find "omap-snap" with
    | Some e -> e
    | None -> Alcotest.fail "omap-snap not registered"
  in
  let brownout =
    Qos.Brownout.make
      ~config:
        {
          Qos.Brownout.default_config with
          ladder =
            {
              Qos.Brownout.default_config.ladder with
              dwell = 1;
              exit_below = 0.0;
              max_level = Qos.Brownout.(level_index Shed_bronze);
            };
        }
      ()
  in
  Qos.Brownout.inject_pressure brownout 2.0;
  Qos.Brownout.inject_pressure brownout 2.0;
  check cb "controller pre-escalated" true
    (Qos.Brownout.level brownout = Qos.Brownout.Shed_bronze);
  let tenants =
    [
      W.Open_runner.tenant_spec ~name:"g" ~klass:Qos.Tenant.Gold ~keys:1_000
        ~write_fraction:0.2 ~deadline:0.5
        (A.Poisson { rate = 400.0 });
      W.Open_runner.tenant_spec ~name:"b" ~klass:Qos.Tenant.Bronze
        ~dist:(A.Hotset { hot = 2; fraction = 0.95 })
        ~keys:1_000 ~write_fraction:0.9 ~deadline:0.5 ~max_attempts:2
        (A.Poisson { rate = 400.0 });
    ]
  in
  let r =
    W.Open_runner.run ~brownout ~workers:1 ~prefill:100 ~duration:0.4 ~entry
      tenants
  in
  let find n =
    List.find (fun tr -> tr.W.Open_runner.tr_name = n) r.W.Open_runner.o_tenants
  in
  let gold = find "g" and bronze = find "b" in
  let gs = Qos.Tenant.count gold.W.Open_runner.tr_stats
  and bs = Qos.Tenant.count bronze.W.Open_runner.tr_stats in
  check ci "gold never shed" 0 (gs Qos.Tenant.shed);
  check cb "gold committed work" true (gs Qos.Tenant.committed > 0);
  check ci "every bronze arrival shed" (bs Qos.Tenant.arrivals)
    (bs Qos.Tenant.shed);
  check ci "no bronze commit slipped through" 0 (bs Qos.Tenant.committed);
  check cb "peak level reported" true
    (r.W.Open_runner.o_brownout_peak = Some Qos.Brownout.Shed_bronze)

(* -- Adaptive combine linger ------------------------------------------ *)

(* Adaptive mode must suppress the combiner's post-commit dwell when
   the gate saw no contention: a solo Serial_commit committer with a
   fat linger budget returns promptly with adaptivity on, and dwells
   the budget with it off.  Bounds are deliberately loose (single-core
   CI): on-path under half the budget, off-path over half. *)
let test_adaptive_linger_solo () =
  let linger = 0.4 in
  let saved_adaptive = Stm.adaptive_linger () in
  let cfg = cfg_of_mode Stm.Serial_commit in
  let tv = Tvar.make 0 in
  let solo () =
    let t0 = Clock.now_mono () in
    Stm.atomically ~config:cfg (fun txn -> Stm.write txn tv (Stm.read txn tv + 1));
    Clock.now_mono () -. t0
  in
  Fun.protect
    ~finally:(fun () ->
      Stm.set_combine_linger 0.;
      Stm.set_adaptive_linger saved_adaptive)
    (fun () ->
      Stm.set_combine_linger linger;
      Stm.set_adaptive_linger true;
      let fast = solo () in
      check cb
        (Printf.sprintf "adaptive on: solo commit skips the dwell (%.3fs)" fast)
        true
        (fast < linger /. 2.0);
      Stm.set_adaptive_linger false;
      let slow = solo () in
      check cb
        (Printf.sprintf "adaptive off: combiner dwells the budget (%.3fs)" slow)
        true
        (slow >= linger /. 2.0))

let suite =
  [
    test "shard gate: acquire/bypass/heat accounting" test_shard_gate_basics;
    test "hot-gate decorator releases on commit and abort"
      test_hot_gate_releases;
    test "snapshot omap range scans" test_snap_omap_range;
    slow "RO scans stay consistent and abort-free under writers"
      test_snap_omap_ro_scan_under_writers;
    slow "open runner resolves every arrival exactly once"
      test_open_runner_accounting;
    slow "open runner schedules are seed-deterministic"
      test_open_runner_schedule_deterministic;
    test "tenant JSON keys and counter values" test_tenant_json_keys;
    slow "brownout capped at shed-bronze never sheds gold"
      test_brownout_never_sheds_gold;
    test "adaptive linger arms only under contention"
      test_adaptive_linger_solo;
  ]
