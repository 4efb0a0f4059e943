(* The observability layer: gate discipline, trace rings under
   multi-domain load, histogram bucket math and merge laws, the Chrome
   exporter's output shape, metrics scopes and their JSON key order,
   the Stats.to_assoc contract the bench JSON/CSV columns derive from,
   and kind-dependent Stats.diff under concurrent updates. *)

open Util
module Obs = Proust_obs

let with_obs_off f =
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.disable ();
      Obs.Metrics.disable ())
    f

(* -- gate ------------------------------------------------------------ *)

let test_gate_off () =
  with_obs_off (fun () ->
      Obs.Trace.disable ();
      Obs.Metrics.disable ();
      check ci "gate word is 0 when everything is off" 0 (Obs.Gate.get ());
      Obs.Trace.enable ();
      check cb "trace bit set"
        true
        (Obs.Gate.get () land Obs.Gate.trace_bit <> 0);
      check cb "metrics bit clear"
        true
        (Obs.Gate.get () land Obs.Gate.metrics_bit = 0);
      Obs.Metrics.enable ();
      Obs.Trace.disable ();
      check cb "metrics bit survives trace disable"
        true
        (Obs.Gate.get () land Obs.Gate.metrics_bit <> 0))

let test_disabled_noop () =
  with_obs_off (fun () ->
      Obs.Trace.disable ();
      Obs.Trace.clear ();
      Obs.Trace.emit ~tick:0 ~txn:0 Obs.Trace.Commit;
      check ci "emit while disabled records nothing" 0 (Obs.Trace.emitted ());
      check ci "no retained events" 0 (List.length (Obs.Trace.events ()));
      Obs.Metrics.disable ();
      Obs.Metrics.reset ();
      Obs.Metrics.set_label "off-scope";
      Obs.Metrics.on_attempt_start ();
      Obs.Metrics.on_commit ();
      Obs.Metrics.add_lock_wait 123;
      (match Obs.Metrics.read_scope "off-scope" with
      | None -> ()
      | Some s ->
          check ci "no commits recorded while disabled" 0
            s.Obs.Metrics.commit.Obs.Histogram.count);
      Obs.Metrics.set_label "main")

(* -- trace rings ----------------------------------------------------- *)

let test_ring_multi_domain () =
  with_seed_note (fun () ->
      with_obs_off (fun () ->
          let domains = 4 and per_domain = 2_000 in
          (* Small rings force wraparound on every domain. *)
          Obs.Trace.enable ~capacity:256 ();
          spawn_all domains (fun d ->
              for i = 1 to per_domain do
                Obs.Trace.emit ~tick:i ~txn:d
                  (Obs.Trace.Attempt_start { attempt = i })
              done);
          let emitted = Obs.Trace.emitted () in
          let dropped = Obs.Trace.dropped () in
          let retained = Obs.Trace.events () in
          check ci "every emit counted" (domains * per_domain) emitted;
          check ci "retained + dropped = emitted" emitted
            (List.length retained + dropped);
          (* Each domain's ring kept its newest events. *)
          List.iter
            (fun d ->
              let mine =
                List.filter (fun e -> e.Obs.Trace.txn = d) retained
              in
              check cb
                (Printf.sprintf "domain %d retained its tail" d)
                true
                (List.for_all
                   (fun e -> e.Obs.Trace.tick > per_domain - 512)
                   mine
                && mine <> []))
            (List.init domains (fun d -> d));
          (* events () promises timestamp order. *)
          let rec sorted = function
            | a :: (b :: _ as rest) ->
                a.Obs.Trace.ns <= b.Obs.Trace.ns && sorted rest
            | _ -> true
          in
          check cb "events in timestamp order" true (sorted retained)))

let test_enable_clears () =
  with_obs_off (fun () ->
      Obs.Trace.enable ();
      Obs.Trace.emit ~tick:1 ~txn:1 Obs.Trace.Commit;
      check ci "one event" 1 (Obs.Trace.emitted ());
      Obs.Trace.enable ();
      check ci "re-enable clears counters" 0 (Obs.Trace.emitted ());
      check ci "re-enable clears events" 0 (List.length (Obs.Trace.events ())))

(* -- histograms ------------------------------------------------------ *)

let test_bucket_roundtrip () =
  (* The bucket lower bound never exceeds the value, and the relative
     bucket width stays within the advertised ~1/16 bound. *)
  List.iter
    (fun v ->
      let lo = Obs.Histogram.bucket_lower (Obs.Histogram.bucket_index v) in
      check cb (Printf.sprintf "lower bound <= %d" v) true (lo <= v);
      if v >= 32 then
        check cb
          (Printf.sprintf "relative error at %d" v)
          true
          (float_of_int (v - lo) /. float_of_int v <= 1.0 /. 16.0 +. 1e-9))
    [ 0; 1; 2; 15; 16; 17; 100; 1_000; 65_535; 1_000_000; max_int / 2 ]

let test_histogram_stats () =
  let h = Obs.Histogram.create () in
  for v = 1 to 1_000 do
    Obs.Histogram.record h v
  done;
  check ci "count" 1_000 (Obs.Histogram.count h);
  check ci "max is exact" 1_000 (Obs.Histogram.max_value h);
  let p50 = Obs.Histogram.percentile h 50.0 in
  check cb "p50 near 500" true (p50 >= 400 && p50 <= 512);
  let p99 = Obs.Histogram.percentile h 99.0 in
  check cb "p99 near 990" true (p99 >= 900 && p99 <= 1_000);
  let s = Obs.Histogram.summarize h in
  check ci "summary count" 1_000 s.Obs.Histogram.count;
  check cb "mean near 500" true
    (s.Obs.Histogram.mean > 400.0 && s.Obs.Histogram.mean < 600.0)

let of_list vs =
  let h = Obs.Histogram.create () in
  List.iter (fun v -> Obs.Histogram.record h (abs v)) vs;
  h

let prop_merge_associative (xs, ys, zs) =
  let a = of_list xs and b = of_list ys and c = of_list zs in
  let l = Obs.Histogram.merge (Obs.Histogram.merge a b) c in
  let r = Obs.Histogram.merge a (Obs.Histogram.merge b c) in
  Obs.Histogram.buckets l = Obs.Histogram.buckets r
  && Obs.Histogram.count l = List.length xs + List.length ys + List.length zs
  && Obs.Histogram.max_value l = Obs.Histogram.max_value r

let prop_merge_commutative (xs, ys) =
  let a = of_list xs and b = of_list ys in
  Obs.Histogram.buckets (Obs.Histogram.merge a b)
  = Obs.Histogram.buckets (Obs.Histogram.merge b a)

let test_histogram_concurrent () =
  with_seed_note (fun () ->
      let h = Obs.Histogram.create () in
      let domains = 4 and per_domain = 10_000 in
      spawn_all domains (fun d ->
          let rng = Random.State.make [| sub_seed 71; d |] in
          for _ = 1 to per_domain do
            Obs.Histogram.record h (Random.State.int rng 1_000_000)
          done);
      check ci "no lost increments under contention" (domains * per_domain)
        (Obs.Histogram.count h))

(* -- chrome exporter ------------------------------------------------- *)

let run_traced_workload () =
  let r = Tvar.make 0 in
  spawn_all 2 (fun _ ->
      for _ = 1 to 200 do
        Stm.atomically (fun txn -> Stm.write txn r (Stm.read txn r + 1))
      done)

let test_chrome_parses () =
  with_obs_off (fun () ->
      Obs.Trace.enable ();
      run_traced_workload ();
      (* Uncontended increments may commit without ever waiting on a
         lock, so plant one instant-class event deterministically. *)
      Obs.Trace.emit ~tick:0 ~txn:0 (Obs.Trace.Lock_wait { held_by = 1 });
      let json_str = Obs.Json.to_string (Obs.Trace.to_chrome ()) in
      Obs.Trace.disable ();
      match Obs.Json.parse json_str with
      | Error msg -> Alcotest.failf "chrome trace does not re-parse: %s" msg
      | Ok j -> (
          (match Obs.Json.member "displayTimeUnit" j with
          | Some (Obs.Json.String _) -> ()
          | _ -> Alcotest.fail "missing displayTimeUnit");
          match Obs.Json.member "traceEvents" j with
          | Some (Obs.Json.List evs) ->
              check cb "has events" true (evs <> []);
              let phases = Hashtbl.create 8 in
              List.iter
                (fun e ->
                  (* Every event carries the Chrome-required fields. *)
                  List.iter
                    (fun k ->
                      if Obs.Json.member k e = None then
                        Alcotest.failf "event missing %s field" k)
                    [ "ph"; "pid"; "name" ];
                  match Obs.Json.member "ph" e with
                  | Some (Obs.Json.String ph) ->
                      Hashtbl.replace phases ph ()
                  | _ -> Alcotest.fail "ph is not a string")
                evs;
              (* Metadata (thread names), complete spans for attempts,
                 and instants must all be present for this workload. *)
              List.iter
                (fun ph ->
                  check cb ("phase " ^ ph ^ " present") true
                    (Hashtbl.mem phases ph))
                [ "M"; "X"; "i" ]
          | _ -> Alcotest.fail "traceEvents missing or not a list"))

let test_chrome_file () =
  with_obs_off (fun () ->
      Obs.Trace.enable ();
      Obs.Trace.emit ~tick:1 ~txn:1 (Obs.Trace.Attempt_start { attempt = 1 });
      Obs.Trace.emit ~tick:2 ~txn:1 Obs.Trace.Commit;
      let file = Filename.temp_file "proust_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Obs.Trace.dump_chrome_file file;
          let ic = open_in_bin file in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          match Obs.Json.parse s with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "dumped file does not parse: %s" msg))

(* -- metrics scopes -------------------------------------------------- *)

let test_metrics_scopes () =
  with_obs_off (fun () ->
      Obs.Metrics.enable ();
      Obs.Metrics.reset ();
      Obs.Metrics.set_label "scope-a";
      for _ = 1 to 50 do
        Obs.Metrics.on_attempt_start ();
        Obs.Metrics.on_commit ()
      done;
      Obs.Metrics.add_lock_wait 5_000;
      Obs.Metrics.set_label "main";
      match Obs.Metrics.read_scope "scope-a" with
      | None -> Alcotest.fail "scope-a not registered"
      | Some s ->
          check cs "label" "scope-a" s.Obs.Metrics.label;
          check ci "commit count" 50 s.Obs.Metrics.commit.Obs.Histogram.count;
          check ci "lock-wait count" 1
            s.Obs.Metrics.lock_wait.Obs.Histogram.count;
          check cb "lock-wait magnitude" true
            (s.Obs.Metrics.lock_wait.Obs.Histogram.max >= 4_096);
          (* reset_scope keeps the scope but zeroes its histograms. *)
          Obs.Metrics.reset_scope "scope-a";
          (match Obs.Metrics.read_scope "scope-a" with
          | Some s ->
              check ci "reset_scope zeroes commits" 0
                s.Obs.Metrics.commit.Obs.Histogram.count
          | None -> Alcotest.fail "reset_scope dropped the scope");
          (* The JSON summary carries the histogram sections. *)
          let j = Obs.Metrics.scope_summary_to_json s in
          List.iter
            (fun k ->
              check cb ("summary has " ^ k) true (Obs.Json.member k j <> None))
            [ "commit"; "abort_to_retry"; "lock_wait" ])

let test_metrics_from_stm () =
  with_obs_off (fun () ->
      Obs.Metrics.enable ();
      Obs.Metrics.reset ();
      Obs.Metrics.set_label "stm-smoke";
      let r = Tvar.make 0 in
      for _ = 1 to 25 do
        Stm.atomically (fun txn -> Stm.write txn r (Stm.read txn r + 1))
      done;
      Obs.Metrics.set_label "main";
      match Obs.Metrics.read_scope "stm-smoke" with
      | None -> Alcotest.fail "stm instrumentation never reached metrics"
      | Some s ->
          check ci "one commit sample per transaction" 25
            s.Obs.Metrics.commit.Obs.Histogram.count)

(* -- Stats.to_assoc contract ---------------------------------------- *)

(* The exported key order is the JSON/CSV column order. *)
let stats_keys =
  [
    "starts"; "commits"; "aborts"; "conflicts"; "remote_aborts";
    "lock_waits"; "extensions"; "killed_aborts"; "explicit_aborts";
    "fallbacks"; "injected_faults"; "timeouts"; "budget_exhausted";
    "shed"; "watchdog_kills"; "degraded_transitions"; "minor_words";
    "log_appends"; "fsync_batches"; "fsync_batch_size_p50";
    "fsync_batch_size_p99"; "recoveries"; "torn_tail_truncations";
    "parks"; "wakeups"; "spurious_wakeups"; "retry_polls";
    "wait_list_max"; "versions_installed"; "versions_gced";
    "ro_snapshot_reads"; "ro_commits"; "ro_aborts"; "version_chain_max";
    "combined_commits"; "combiner_elections";
  ]

(* Set-style gauges (the fsync batch-size percentiles) and high-water
   gauges (wait_list_max, version_chain_max): [diff] carries the later
   reading.  Every other key is an event counter and subtracts. *)
let is_gauge k =
  List.mem k
    [ "fsync_batch_size_p50"; "fsync_batch_size_p99"; "wait_list_max";
      "version_chain_max" ]

let check_diff_by_kind a b =
  let d = Stats.to_assoc (Stats.diff a b) in
  List.iter2
    (fun (ka, va) ((kb, vb), (kd, vd)) ->
      check cs "same key order" ka kb;
      check cs "same key order in diff" ka kd;
      check ci ("diff of " ^ ka) (if is_gauge ka then vb else vb - va) vd)
    (Stats.to_assoc a)
    (List.combine (Stats.to_assoc b) d);
  d

let test_stats_to_assoc () =
  check (Alcotest.list cs) "to_assoc keys, in order" stats_keys
    (List.map fst (Stats.to_assoc (Stats.read ())));
  let a = Stats.read () in
  let r = Tvar.make 0 in
  Stm.atomically (fun txn -> Stm.write txn r 1);
  let d = check_diff_by_kind a (Stats.read ()) in
  check cb "the txn committed" true (List.assoc "commits" d >= 1)

let test_metrics_json_keys () =
  with_obs_off (fun () ->
      Obs.Metrics.enable ();
      Obs.Metrics.reset ();
      Obs.Metrics.set_label "json-keys";
      (* Histogram i of the JSON order gets i + 1 samples, so a key
         bound to the wrong histogram shows as a wrong count. *)
      Obs.Metrics.on_attempt_start ();
      Obs.Metrics.on_commit ();
      for _ = 1 to 2 do
        Obs.Metrics.on_abort ();
        Obs.Metrics.on_attempt_start ()
      done;
      let times n f = for _ = 1 to n do f () done in
      times 3 (fun () -> Obs.Metrics.add_lock_wait 100);
      times 4 (fun () -> Obs.Metrics.add_wakeup_latency 100);
      times 5 (fun () -> Obs.Metrics.add_combiner_batch 3);
      times 6 (fun () -> Obs.Metrics.add_intended_latency 100);
      times 7 (fun () -> Obs.Metrics.add_service_latency 100);
      (* Below-floor samples are dropped. *)
      Obs.Metrics.add_wakeup_latency (-1);
      Obs.Metrics.add_combiner_batch 0;
      Obs.Metrics.add_intended_latency (-1);
      Obs.Metrics.add_service_latency (-1);
      Obs.Metrics.set_label "main";
      let hists =
        [ "commit"; "abort_to_retry"; "lock_wait"; "wakeup"; "combine_batch";
          "intended"; "service" ]
      in
      match Obs.Metrics.read_scope "json-keys" with
      | None -> Alcotest.fail "json-keys scope not registered"
      | Some s -> (
          match Obs.Metrics.scope_summary_to_json s with
          | Obs.Json.Obj fields ->
              check (Alcotest.list cs) "summary keys, in order"
                ("label" :: hists) (List.map fst fields);
              List.iteri
                (fun i k ->
                  check ci (k ^ " count") (i + 1)
                    (match Obs.Json.member "count" (List.assoc k fields) with
                    | Some (Obs.Json.Int n) -> n
                    | _ -> -1))
                hists
          | _ -> Alcotest.fail "summary is not a JSON object"))

(* Kind-dependent [diff] under concurrent updates: two domains apply
   random sequences of every counter recorder, the bulk adds (with
   non-positive amounts, which are no-ops), the high-water notes and
   the fsync percentile setter between two [read]s. *)
let recorders =
  Stats.
    [
      ("starts", record_start); ("commits", record_commit);
      ("aborts", record_abort); ("conflicts", record_conflict);
      ("remote_aborts", record_remote_abort);
      ("lock_waits", record_lock_wait); ("extensions", record_extension);
      ("killed_aborts", record_killed_abort);
      ("explicit_aborts", record_explicit_abort);
      ("fallbacks", record_fallback);
      ("injected_faults", record_injected_fault);
      ("timeouts", record_timeout);
      ("budget_exhausted", record_budget_exhausted); ("shed", record_shed);
      ("watchdog_kills", record_watchdog_kill);
      ("degraded_transitions", record_degraded_transition);
      ("log_appends", record_log_append);
      ("fsync_batches", record_fsync_batch); ("recoveries", record_recovery);
      ("torn_tail_truncations", record_torn_tail_truncation);
      ("parks", record_park); ("wakeups", record_wakeup);
      ("spurious_wakeups", record_spurious_wakeup);
      ("retry_polls", record_retry_poll);
      ("versions_installed", record_version_install);
      ("ro_snapshot_reads", record_ro_snapshot_read);
      ("ro_commits", record_ro_commit); ("ro_aborts", record_ro_abort);
      ("combiner_elections", record_combiner_election);
    ]

let adders =
  Stats.
    [
      ("minor_words", add_minor_words);
      ("combined_commits", add_combined_commits);
      ("versions_gced", add_versions_gced);
      ("ro_snapshot_reads", add_ro_snapshot_reads);
    ]

type stats_op =
  | Bump of int
  | Add of int * int
  | Note_wait of int
  | Note_chain of int
  | Fsync of int * int

let gen_stats_op =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun i -> Bump i) (int_bound (List.length recorders - 1)));
        ( 3,
          map2
            (fun i n -> Add (i, n))
            (int_bound (List.length adders - 1))
            (int_range (-3) 1000) );
        (1, map (fun n -> Note_wait n) (int_bound 1000));
        (1, map (fun n -> Note_chain n) (int_bound 1000));
        ( 1,
          map2 (fun p50 p99 -> Fsync (p50, p99)) (int_bound 64) (int_bound 64)
        );
      ])

let apply_stats_op = function
  | Bump i -> snd (List.nth recorders i) ()
  | Add (i, n) -> snd (List.nth adders i) n
  | Note_wait n -> Stats.note_wait_list_len n
  | Note_chain n -> Stats.note_version_chain_len n
  | Fsync (p50, p99) -> Stats.set_fsync_batch_percentiles ~p50 ~p99

let prop_stats_diff (ops0, ops1) =
  let a = Stats.read () in
  let per_domain = [| ops0; ops1 |] in
  spawn_all 2 (fun d -> List.iter apply_stats_op per_domain.(d));
  let b = Stats.read () in
  let d = check_diff_by_kind a b in
  let totals = Hashtbl.create 16 and high_water = Hashtbl.create 2 in
  let update tbl k f =
    Hashtbl.replace tbl k (f (Option.value ~default:0 (Hashtbl.find_opt tbl k)))
  in
  List.iter
    (function
      | Bump i -> update totals (fst (List.nth recorders i)) succ
      | Add (i, n) -> update totals (fst (List.nth adders i)) (( + ) (max n 0))
      | Note_wait n -> update high_water "wait_list_max" (max n)
      | Note_chain n -> update high_water "version_chain_max" (max n)
      | Fsync _ -> ())
    (ops0 @ ops1);
  Hashtbl.iter
    (fun k n -> check ci ("exact total of " ^ k) n (List.assoc k d))
    totals;
  Hashtbl.iter
    (fun k n -> check cb ("high-water " ^ k) true (List.assoc k d >= n))
    high_water;
  true

let suite =
  [
    test "gate bits" test_gate_off;
    test "disabled sites are no-ops" test_disabled_noop;
    test "enable clears prior state" test_enable_clears;
    slow "ring buffers: multi-domain wraparound" test_ring_multi_domain;
    test "histogram bucket roundtrip" test_bucket_roundtrip;
    test "histogram percentiles" test_histogram_stats;
    qcheck ~count:100 "histogram merge associative"
      QCheck2.Gen.(
        triple
          (list (int_bound 2_000_000))
          (list (int_bound 2_000_000))
          (list (int_bound 2_000_000)))
      prop_merge_associative;
    qcheck ~count:100 "histogram merge commutative"
      QCheck2.Gen.(pair (list (int_bound 2_000_000)) (list (int_bound 2_000_000)))
      prop_merge_commutative;
    slow "histogram concurrent recording" test_histogram_concurrent;
    test "chrome trace re-parses with required fields" test_chrome_parses;
    test "chrome trace file dump" test_chrome_file;
    test "metrics scopes and reset" test_metrics_scopes;
    test "stm commits land in the active scope" test_metrics_from_stm;
    test "Stats.to_assoc contract" test_stats_to_assoc;
    test "metrics summary JSON keys and order" test_metrics_json_keys;
    qcheck ~count:50 "Stats.diff by kind under 2-domain updates"
      QCheck2.Gen.(pair (list_size (int_bound 200) gen_stats_op)
        (list_size (int_bound 200) gen_stats_op))
      prop_stats_diff;
  ]
