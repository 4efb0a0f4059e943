(* The repository benchmark: four fixed workloads driven through the
   library's public APIs, timed from this file.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--git-rev REV]

   With --trace 0 the run is untraced and reports the end-to-end
   metrics; with --trace 1 it reports the per-layer metrics of a
   separate traced run.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  See
   README.md in this directory. *)

module S = Proust_structures
module T = S.Trait
module W = Proust_workload
module D = Proust_durable
module Obs = Proust_obs
module J = Obs.Json
open Perfbench

(* ------------------------------------------------------------------ *)
(* Fixed parameters                                                     *)

let domains = 2
let setup_min_reps = 3
let setup_max_reps = 101
let setup_min_s = 1.0
let warmup_s = 0.5
let trace_capacity = 1 lsl 20
let window_ns = 1_000_000_000

(* Traced phases stop after this many requests per domain, so every
   library trace event fits the rings ([Trace.dropped () = 0]). *)
let traced_cap = 30_000

(* scan-open's offered load, in requests per second: the nominal rate
   the end-to-end latencies are measured at, and the absolute ladder
   the traced run climbs to find the sustained rate.  Constants, never
   recalibrated at run time. *)
let scan_nominal_rate = 20_000.
let scan_ladder = [ 10_000.; 20_000.; 40_000.; 60_000.; 80_000. ]
let scan_p99_limit_us = 20_000.
let scan_deadline_s = 0.05
(* scan-open's open-loop service domains.  One: with both vCPUs of the
   2-vCPU development host busy, a spinning domain lost up to a quarter
   of its time in descheduled gaps of up to ~50 ms, against a few
   percent with one busy, and every such gap lands on the
   intended-time latency of the requests queued behind it.  The
   back-to-back capacity stretches run on [domains], so read-only
   scans race the puts there. *)
let scan_domains = 1

(* durable-commit's group-commit linger: the flusher waits this long
   after the first append of a batch before it writes and fsyncs.
   With no linger the commit latency follows the shared disk's fsync
   latency, which drifted by a third from one set of runs to the next
   on the 2-vCPU development host.  A commit waits about the linger
   plus one fsync (0.6-1.0 ms there), so the longer the linger, the
   smaller the share of the commit latency the disk decides: at 2 ms
   ten-seed spreads of txn_p50_us reached 0.10. *)
let durable_batch_delay_s = 0.004

(* ------------------------------------------------------------------ *)
(* Command line and environment                                         *)

type cli = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  rev : string;
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let parse_cli () =
  let workload = ref "" and seed = ref None and seconds = ref 10. in
  let trace = ref false and rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 traced run");
      ("--git-rev", Arg.Set_string rev, "REV revision to echo");
    ]
    (fun a -> die "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match !seed with
  | None -> die "--seed is required"
  | Some seed ->
      if !seconds <= 0. then die "--seconds must be positive";
      { workload = !workload; seed; seconds = !seconds; trace = !trace; rev = !rev }

(* Any PROUST_* knob but the seed would silently change the program
   being measured (mode, combining, linger, retry mode, ...). *)
let refuse_knobs () =
  let bad =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun kv ->
           let k =
             match String.index_opt kv '=' with
             | Some i -> String.sub kv 0 i
             | None -> kv
           in
           if String.starts_with ~prefix:"PROUST_" k && k <> "PROUST_SEED"
           then Some k
           else None)
  in
  if bad <> [] then
    die "refusing to run with %s set: unset it to measure the pinned configuration"
      (String.concat ", " bad)

(* Library knobs every workload pins through public setters. *)
let pin_knobs () =
  Stm.set_combining true;
  Stm.set_combine_linger 0.;
  Stm.set_adaptive_linger true;
  Stm.set_retry_mode Stm.Park;
  Snapshots.set_max_versions 8

let config_of mode = { (Stm.get_default_config ()) with Stm.mode; cm = Contention.passive () }

(* Independent RNG streams from the seed: [rng seed [purpose; domain]]. *)
let rng seed salt = Random.State.make (Array.of_list (seed :: salt))

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                  *)

let now_ns = Clock.now_mono_ns
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let sleep_until_ns t =
  let dt = float_of_int (t - now_ns ()) *. 1e-9 in
  if dt > 0. then Unix.sleepf dt

let timed_s f =
  let t0 = Clock.now_mono () in
  let r = f () in
  (r, Clock.now_mono () -. t0)

(* Set-up is building the workload's state: structures, prefill, and
   the redo log with its flusher domain.  Spawning the client domains
   is left out: on the 2-vCPU development host spawning and joining two
   domains took 2-3 ms against 0.7 ms to build map-contended's map, and
   its median over 101 repetitions moved by ~80% between sets of runs.
   Set up at least [setup_min_reps] times and until [setup_min_s] has
   passed (at most [setup_max_reps]), keeping the last build; set-up
   time is the median.  Each build starts from a collected heap, and
   earlier builds are torn down. *)
let setup_median build teardown =
  let rec go i acc =
    Gc.full_major ();
    let env, dt = timed_s build in
    let acc = dt :: acc in
    let spent = List.fold_left ( +. ) 0. acc in
    if i >= setup_max_reps || (i >= setup_min_reps && spent >= setup_min_s) then
      (env, Pct.median_float acc)
    else begin
      teardown env;
      go (i + 1) acc
    end
  in
  go 1 []

let gc_words () =
  let g = Gc.quick_stat () in
  (g.Gc.minor_words, g.Gc.minor_collections, g.Gc.major_collections)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* The live heap: the workload's structures and inputs.  Samples and
   spans are kept off-heap, so the benchmark's bookkeeping is not in
   it. *)
let live_heap_mb () =
  Gc.full_major ();
  mb (Gc.stat ()).Gc.live_words

let heap_peak_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

(* One measured stretch of a closed loop. *)
type phase = {
  n : int;  (** requests completed inside the window *)
  total : int;  (** requests completed including warm-up *)
  wall_s : float;
  cpu_s : float;
  lat : int array list;  (** per client, per call, ns *)
  cyc : int array list;  (** per client, completion to completion, ns *)
  stats : Stats.snapshot;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  windows : (float * float) list;  (** per second: requests/s, CPU us/request *)
  heap_live_mb : float;  (** live heap after the phase, after a full major GC *)
}

type client = {
  c_lat : Pct.Buf.t;
  c_cyc : Pct.Buf.t;
  mutable c_first : int;
  mutable c_last : int;
  mutable c_total : int;
}

type pending = {
  go : bool Atomic.t;
  t_warm : int ref;
  t_stop : int ref;
  clients : client array;
  finished : int Atomic.t;  (** clients done recording *)
  ds : unit Domain.t list;
  warmup_ns : int;
  seconds_ns : int;
}

(* Spawn the closed-loop clients; they wait for [run_phase].  [step d]
   is built on domain [d] and runs its [i]th request.  A client
   records from the end of warm-up until [seconds] have passed or it
   has completed [cap] requests.  A closed-loop client intends each
   request the moment its previous one completes, so the cycle time
   is its intended-time latency. *)
let spawn_phase ?(domains = domains) ?(cap = max_int) ~warmup ~seconds
    (step : int -> int -> unit) =
  let go = Atomic.make false and t_warm = ref 0 and t_stop = ref 0 in
  let finished = Atomic.make 0 in
  let clients =
    Array.init domains (fun _ ->
        {
          c_lat = Pct.Buf.create ~cap:65536 ();
          c_cyc = Pct.Buf.create ~cap:65536 ();
          c_first = 0;
          c_last = 0;
          c_total = 0;
        })
  in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let c = clients.(d) in
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            let i = ref 0 in
            while now_ns () < !t_warm do
              step d !i;
              incr i
            done;
            let prev = ref (now_ns ()) and count = ref 0 in
            c.c_first <- !prev;
            while !prev < !t_stop && !count < cap do
              let t0 = now_ns () in
              step d !i;
              let t1 = now_ns () in
              Pct.Buf.push c.c_lat (t1 - t0);
              Pct.Buf.push c.c_cyc (t1 - !prev);
              prev := t1;
              incr i;
              incr count
            done;
            c.c_last <- !prev;
            c.c_total <- !i;
            Atomic.incr finished))
  in
  {
    go;
    t_warm;
    t_stop;
    clients;
    finished;
    ds;
    warmup_ns = int_of_float (warmup *. 1e9);
    seconds_ns = int_of_float (seconds *. 1e9);
  }

let run_phase p =
  let t = now_ns () in
  p.t_warm := t + p.warmup_ns;
  p.t_stop := !(p.t_warm) + p.seconds_ns;
  Atomic.set p.go true;
  sleep_until_ns !(p.t_warm);
  let cpu0 = cpu () and w0, mi0, ma0 = gc_words () and st0 = Stats.read () in
  (* One-second windows: rate and CPU per request in each. *)
  let count () =
    Array.fold_left (fun a c -> a + Pct.Buf.length c.c_lat) 0 p.clients
  in
  let windows = ref [] and prev = ref (now_ns (), cpu0, count ()) in
  let j = ref 1 and all = Array.length p.clients in
  while !j <= p.seconds_ns / window_ns && Atomic.get p.finished < all do
    sleep_until_ns (!(p.t_warm) + (!j * window_ns));
    incr j;
    let t1 = now_ns () and c1 = cpu () and n1 = count () in
    let t0, c0, n0 = !prev in
    if n1 > n0 then
      windows :=
        ( float_of_int (n1 - n0) /. (float_of_int (t1 - t0) *. 1e-9),
          (c1 -. c0) /. float_of_int (n1 - n0) *. 1e6 )
        :: !windows;
    prev := (t1, c1, n1)
  done;
  List.iter Domain.join p.ds;
  let cpu1 = cpu () and w1, mi1, ma1 = gc_words () and st1 = Stats.read () in
  let heap_live_mb = live_heap_mb () in
  let cs = Array.to_list p.clients in
  let first = List.fold_left (fun a c -> min a c.c_first) max_int cs in
  let last = List.fold_left (fun a c -> max a c.c_last) 0 cs in
  let lat = List.map (fun c -> Pct.Buf.to_array c.c_lat) cs in
  {
    n = List.fold_left (fun a l -> a + Array.length l) 0 lat;
    total = List.fold_left (fun a c -> a + c.c_total) 0 cs;
    wall_s = float_of_int (last - first) *. 1e-9;
    cpu_s = cpu1 -. cpu0;
    lat;
    cyc = List.map (fun c -> Pct.Buf.to_array c.c_cyc) cs;
    stats = Stats.diff st0 st1;
    minor_words = w1 -. w0;
    minor_gcs = mi1 - mi0;
    major_gcs = ma1 - ma0;
    windows = !windows;
    heap_live_mb;
  }

(* Whole-phase figures, and their medians over the one-second windows
   (what the end-to-end metrics report: a window in which the host
   throttled or descheduled the process moves one sample, not the
   result). *)
let whole_rate ph = float_of_int ph.n /. ph.wall_s
let whole_cpu_us ph = ph.cpu_s /. float_of_int (max 1 ph.n) *. 1e6

let window_notes ph =
  ( "windows",
    J.List (List.rev_map (fun (r, c) -> J.List [ J.Float r; J.Float c ]) ph.windows) )

let txn_per_s ph =
  match ph.windows with
  | [] -> whole_rate ph
  | ws -> Pct.median_float (List.map fst ws)

let cpu_us_per_txn ph =
  match ph.windows with
  | [] -> whole_cpu_us ph
  | ws -> Pct.median_float (List.map snd ws)

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

type outcome = {
  correct : (unit, string) result;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * J.t) list;  (** echoed before the result line *)
}

(* A percentile of nanosecond sample streams (one per client, each in
   time order), in microseconds: the median over about one-second
   windows of each window's exact percentile (see {!Pct.windowed}).
   With [note], the percentile used, the sample count and the window
   count are noted under that name. *)
let windowed_us ?note ~seconds ~q (streams : int array list) =
  let windows = max 1 (int_of_float (Float.round seconds)) in
  match Pct.windowed ~max_chunks:windows ~q streams with
  | None -> 0.
  | Some w ->
      let us = w.Pct.w_value /. 1e3 in
      Option.iter
        (fun (notes, name) ->
          notes :=
            ( name,
              J.Obj
                [
                  ("value_us", J.Float us);
                  ("percentile", J.Float w.Pct.w_q);
                  ("samples", J.Int w.Pct.w_count);
                  ("windows", J.Int w.Pct.w_windows);
                ] )
            :: !notes)
        note;
      us

(* The end-to-end metrics, plus figures the 2-vCPU development host
   could not hold steady from one set of runs to the next (wall-clock
   throughput, CPU per request, tails, intended-time latency, peak
   heap), which are noted but not bounded. *)
let end_to_end ~notes ~seconds ~setup_s ~txn_per_s ~cpu_us ~heap_live_mb ~lat
    ~intended =
  let pct name q streams = windowed_us ~note:(notes, name) ~seconds ~q streams in
  let t50 = pct "txn_p50_us" 50. lat in
  ignore (pct "txn_p99_us" 99. lat);
  ignore (pct "intended_p50_us" 50. intended);
  ignore (pct "intended_p99_us" 99. intended);
  notes :=
    ("txn_per_s", J.Float txn_per_s)
    :: ("cpu_us_per_txn", J.Float cpu_us)
    :: ("heap_peak_mb", J.Float (heap_peak_mb ()))
    :: !notes;
  [
    m "txn_p50_us" "us" t50;
    m "heap_live_mb" "MB" heap_live_mb;
    m "setup_s" "s" setup_s;
  ]

(* Everything a traced window yields; workload-specific numbers come in
   [extra] and default to 0 where a layer is not on the path. *)
let per_layer_names =
  [
    ("stm.self_us_per_txn", "us");
    ("stm.minor_words_per_txn", "words");
    ("stm.commit_ratio", "ratio");
    ("stm.aborts_per_ktxn", "count");
    ("stm.conflicts_per_ktxn", "count");
    ("stm.fallbacks_per_ktxn", "count");
    ("stm.abort_to_retry_ns_p99", "ns");
    ("stm.lock_waits_per_ktxn", "count");
    ("stm.lock_wait_ns_p99", "ns");
    ("stm.commit_ns_p50", "ns");
    ("stm.commit_ns_p99", "ns");
    ("stm.combine_batch_mean", "count");
    ("stm.gate_acquisitions_per_ktxn", "count");
    ("stm.versions_installed_per_ktxn", "count");
    ("stm.versions_gced_per_ktxn", "count");
    ("stm.version_chain_max", "count");
    ("stm.ro_aborts", "count");
    ("stm.timeouts", "count");
    ("stm.budget_exhausted", "count");
    ("core.alock_acquires_per_txn", "count");
    ("core.cm_decisions_per_ktxn", "count");
    ("core.replay_ops_per_txn", "count");
    ("structures.get_ns_p50", "ns");
    ("structures.put_ns_p50", "ns");
    ("structures.remove_ns_p50", "ns");
    ("structures.range_ns_p50", "ns");
    ("structures.op_share", "ratio");
    ("structures.wasted_op_share", "ratio");
    ("durable.appends_per_txn", "count");
    ("durable.log_bytes_per_txn", "bytes");
    ("durable.fsync_batches_per_ktxn", "count");
    ("durable.fsync_batch_p50", "count");
    ("durable.fsync_batch_p99", "count");
    ("durable.recovery_records", "count");
    ("durable.recovery_us_per_record", "us");
    ("durable.recovery_s", "s");
    ("workload.txn_per_s", "1/s");
    ("workload.cpu_us_per_txn", "us");
    ("workload.txn_p99_us", "us");
    ("workload.intended_p50_us", "us");
    ("workload.intended_p99_us", "us");
    ("workload.heap_peak_mb", "MB");
    ("workload.gen_lag_max_us", "us");
    ("workload.realized_rate_per_s", "1/s");
    ("workload.backlog_end", "count");
    ("workload.sustained_rate_per_s", "1/s");
    ("workload.failed_share", "ratio");
    ("gc.minor_collections_per_ktxn", "count");
    ("gc.major_collections_per_ktxn", "count");
    ("obs.trace_overhead_pct", "%");
    ("obs.trace_dropped", "count");
  ]

type traced = {
  t_txns : int;  (** requests in the traced window *)
  t_stats : Stats.snapshot;
  t_minor_words : float;
  t_minor_gcs : int;
  t_major_gcs : int;
}

let traced_of_phase ph =
  {
    t_txns = ph.n;
    t_stats = ph.stats;
    t_minor_words = ph.minor_words;
    t_minor_gcs = ph.minor_gcs;
    t_major_gcs = ph.major_gcs;
  }

let start_tracing () =
  Spans.clear ();
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Obs.Trace.enable ~capacity:trace_capacity ()

let stop_tracing () =
  Obs.Trace.disable ();
  Obs.Metrics.disable ()

let trace_dir = ".perfbench"

let per_layer ~workload ~(tr : traced) ~overhead_pct ~extra =
  let events = Obs.Trace.events () in
  let sp = Spans.summarize () in
  (try
     if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
     Spans.write_chrome (Filename.concat trace_dir (workload ^ ".trace.json")) events
   with Sys_error e -> prerr_endline ("perfbench: trace not written: " ^ e));
  let n = float_of_int (max 1 tr.t_txns) in
  let per_k x = float_of_int x /. n *. 1000. in
  let st = tr.t_stats in
  let count f = List.fold_left (fun a (e : Obs.Trace.event) -> a + f e.kind) 0 events in
  let alocks = count (function Obs.Trace.Alock_acquire _ -> 1 | _ -> 0) in
  let cms = count (function Obs.Trace.Cm_decide _ -> 1 | _ -> 0) in
  let replay = count (function Obs.Trace.Replay_apply { ops } -> ops | _ -> 0) in
  let p50_of k =
    match List.assoc k sp.Spans.by_kind with
    | [||] -> 0.
    | a -> float_of_int (Pct.at (Pct.sorted a) 50.)
  in
  let scope = Obs.Metrics.read_scope "main" in
  let h f = match scope with Some s -> f s | None -> 0. in
  let hp f = h (fun s -> float_of_int (f s)) in
  let ep_ns = float_of_int (max 1 sp.Spans.episode_ns) in
  let base =
    [
      ( "stm.self_us_per_txn",
        float_of_int (sp.Spans.episode_ns - sp.Spans.op_ns)
        /. float_of_int (max 1 sp.Spans.episodes)
        /. 1e3 );
      ("stm.minor_words_per_txn", tr.t_minor_words /. n);
      ( "stm.commit_ratio",
        float_of_int st.Stats.commits /. float_of_int (max 1 st.Stats.starts) );
      ("stm.aborts_per_ktxn", per_k st.Stats.aborts);
      ("stm.conflicts_per_ktxn", per_k st.Stats.conflicts);
      ("stm.fallbacks_per_ktxn", per_k st.Stats.fallbacks);
      ("stm.abort_to_retry_ns_p99", hp (fun s -> s.Obs.Metrics.abort_to_retry.Obs.Histogram.p99));
      ("stm.lock_waits_per_ktxn", per_k st.Stats.lock_waits);
      ("stm.lock_wait_ns_p99", hp (fun s -> s.Obs.Metrics.lock_wait.Obs.Histogram.p99));
      ("stm.commit_ns_p50", hp (fun s -> s.Obs.Metrics.commit.Obs.Histogram.p50));
      ("stm.commit_ns_p99", hp (fun s -> s.Obs.Metrics.commit.Obs.Histogram.p99));
      ("stm.combine_batch_mean", h (fun s -> s.Obs.Metrics.combine_batch.Obs.Histogram.mean));
      ("stm.gate_acquisitions_per_ktxn", per_k st.Stats.combiner_elections);
      ("stm.versions_installed_per_ktxn", per_k st.Stats.versions_installed);
      ("stm.versions_gced_per_ktxn", per_k st.Stats.versions_gced);
      ("stm.version_chain_max", float_of_int st.Stats.version_chain_max);
      ("stm.ro_aborts", float_of_int st.Stats.ro_aborts);
      ("stm.timeouts", float_of_int st.Stats.timeouts);
      ("stm.budget_exhausted", float_of_int st.Stats.budget_exhausted);
      ("core.alock_acquires_per_txn", float_of_int alocks /. n);
      ("core.cm_decisions_per_ktxn", per_k cms);
      ("core.replay_ops_per_txn", float_of_int replay /. n);
      ("structures.get_ns_p50", p50_of Spans.Get);
      ("structures.put_ns_p50", p50_of Spans.Put);
      ("structures.remove_ns_p50", p50_of Spans.Remove);
      ("structures.range_ns_p50", p50_of Spans.Range);
      ("structures.op_share", float_of_int sp.Spans.op_ns /. ep_ns);
      ( "structures.wasted_op_share",
        float_of_int sp.Spans.wasted_op_ns /. float_of_int (max 1 sp.Spans.op_ns) );
      ("durable.appends_per_txn", float_of_int st.Stats.log_appends /. n);
      ("durable.fsync_batches_per_ktxn", per_k st.Stats.fsync_batches);
      ("durable.fsync_batch_p50", float_of_int st.Stats.fsync_batch_size_p50);
      ("durable.fsync_batch_p99", float_of_int st.Stats.fsync_batch_size_p99);
      ("gc.minor_collections_per_ktxn", per_k tr.t_minor_gcs);
      ("gc.major_collections_per_ktxn", per_k tr.t_major_gcs);
      ("obs.trace_overhead_pct", overhead_pct);
      ("obs.trace_dropped", float_of_int (Obs.Trace.dropped ()));
      ("workload.heap_peak_mb", heap_peak_mb ());
    ]
  in
  let value name =
    match List.assoc_opt name extra with
    | Some v -> v
    | None -> Option.value (List.assoc_opt name base) ~default:0.
  in
  List.map (fun (name, u) -> m name u (value name)) per_layer_names

(* Unbounded whole-workload figures of a closed loop's untraced phase. *)
let closed_extras ~seconds u =
  [
    ("workload.txn_per_s", txn_per_s u);
    ("workload.cpu_us_per_txn", cpu_us_per_txn u);
    ("workload.txn_p99_us", windowed_us ~seconds ~q:99. u.lat);
    ("workload.intended_p50_us", windowed_us ~seconds ~q:50. u.cyc);
    ("workload.intended_p99_us", windowed_us ~seconds ~q:99. u.cyc);
  ]

let overhead ~untraced ~traced = (untraced -. traced) /. untraced *. 100.

(* A closed loop's untraced run: one measured stretch and its
   end-to-end metrics. *)
let closed_untraced cli ~notes ~setup_s step =
  let ph = run_phase (spawn_phase ~warmup:warmup_s ~seconds:cli.seconds step) in
  notes := window_notes ph :: !notes;
  ( ph,
    end_to_end ~notes ~seconds:cli.seconds ~setup_s ~txn_per_s:(txn_per_s ph)
      ~cpu_us:(cpu_us_per_txn ph) ~heap_live_mb:ph.heap_live_mb ~lat:ph.lat
      ~intended:ph.cyc )

(* A closed loop's traced run: an untraced stretch of half the run,
   then a traced one of at most [traced_cap] requests per domain.
   Returns both stretches and a function from the workload's own
   per-layer figures to the full per-layer metrics. *)
let closed_traced cli ~untraced ~traced =
  let half = cli.seconds /. 2. in
  let u = run_phase (spawn_phase ~warmup:warmup_s ~seconds:half untraced) in
  let p = spawn_phase ~cap:traced_cap ~warmup:0. ~seconds:half traced in
  start_tracing ();
  let t = run_phase p in
  stop_tracing ();
  let layers extra =
    per_layer ~workload:cli.workload ~tr:(traced_of_phase t)
      ~overhead_pct:(overhead ~untraced:(whole_rate u) ~traced:(whole_rate t))
      ~extra:(closed_extras ~seconds:half u @ extra)
  in
  (u, t, layers)

(* ------------------------------------------------------------------ *)
(* Shared request plumbing                                              *)

(* One STM call, with an [Episode] span and per-attempt counting when
   traced. *)
let episode ~traced run body =
  if not traced then run body
  else begin
    let c = Spans.ctx () in
    Spans.begin_request c;
    let t0 = Spans.now () in
    let r = run (Spans.counting c body) in
    Spans.add c Spans.Episode ~t0 ~t1:(Spans.now ());
    r
  end

(* Committed bindings of keys [0, keys), read back in chunks. *)
let read_back ~config (o : (int, int) T.Map.ops) ~keys =
  let out = Array.make keys None in
  let chunk = 1000 in
  let rec go lo =
    if lo < keys then begin
      Stm.atomically ~config (fun txn ->
          for k = lo to min keys (lo + chunk) - 1 do
            out.(k) <- o.T.Map.get txn k
          done);
      go (lo + chunk)
    end
  in
  go 0;
  out

let prefill ~config (o : (int, int) T.Map.ops) keys value =
  let chunk = 1000 in
  let n = Array.length keys in
  let rec go lo =
    if lo < n then begin
      Stm.atomically ~config (fun txn ->
          for i = lo to min n (lo + chunk) - 1 do
            ignore (o.T.Map.put txn keys.(i) (value keys.(i)))
          done);
      go (lo + chunk)
    end
  in
  go 0

let map_entry name =
  match W.Registry.find name with
  | Some ({ W.Registry.target = W.Registry.Map make; _ } as e) -> (e, make)
  | _ -> die "registry has no map entry %s" name

let tag_note name v = (name, J.String v)

(* ------------------------------------------------------------------ *)
(* transfer-uniform                                                     *)

let transfer cli =
  let accounts = 100_000 and initial = 1_000 and pool = 1 lsl 16 in
  let config = config_of Stm.Lazy_lazy in
  let _, mk_checking = map_entry "lazy-memo" in
  let _, mk_savings = map_entry "lazy-snap" in
  (* Inputs: per domain, a cycle of (from, to, amount) transfers and
     16-account audits. *)
  let inputs =
    Array.init domains (fun d ->
        let r = rng cli.seed [ 1; d ] in
        let tr =
          Array.init pool (fun _ ->
              ( Random.State.int r accounts,
                Random.State.int r accounts,
                1 + Random.State.int r 100 ))
        in
        let audits = Array.init (pool / 8 * 16) (fun _ -> Random.State.int r accounts) in
        (tr, audits))
  in
  let all_keys = Array.init accounts Fun.id in
  let build () =
    let checking = mk_checking () and savings = mk_savings () in
    prefill ~config checking all_keys (fun _ -> initial);
    prefill ~config savings all_keys (fun _ -> initial);
    (checking, savings)
  in
  let (checking, savings), setup_build = setup_median build ignore in
  let get o txn k = Option.value (o.T.Map.get txn k) ~default:0 in
  let step ~traced (checking, savings) d =
    let tr, audits = inputs.(d) in
    let run body = Stm.atomically ~config body in
    fun i ->
      if i mod 8 = 7 then begin
        let base = i / 8 mod (pool / 8) * 16 in
        ignore
          (episode ~traced run (fun txn ->
               let s = ref 0 in
               for j = 0 to 15 do
                 let o = if j < 8 then checking else savings in
                 s := !s + get o txn audits.(base + j)
               done;
               !s))
      end
      else begin
        let a, b, amt = tr.(i mod pool) in
        episode ~traced run (fun txn ->
            ignore (checking.T.Map.put txn a (get checking txn a - amt));
            ignore (savings.T.Map.put txn b (get savings txn b + amt)))
      end
  in
  let check () =
    let sum o =
      Array.map (Option.value ~default:0) (read_back ~config o ~keys:accounts)
    in
    Checks.conservation ~expected:(2 * accounts * initial)
      (Array.append (sum checking) (sum savings))
  in
  let notes =
    ref
      [
        tag_note "mode" (Stm.mode_name config.Stm.mode);
        tag_note "checking" "lazy-memo";
        tag_note "savings" "lazy-snap";
      ]
  in
  if not cli.trace then begin
    let ph, metrics =
      closed_untraced cli ~notes ~setup_s:setup_build
        (step ~traced:false (checking, savings))
    in
    { correct = check (); attempted = ph.n; failed = 0; metrics; notes = !notes }
  end
  else begin
    let u, t, layers =
      closed_traced cli
        ~untraced:(step ~traced:false (checking, savings))
        ~traced:(step ~traced:true (Spans.timed_map checking, Spans.timed_map savings))
    in
    { correct = check (); attempted = u.n + t.n; failed = 0; metrics = layers []; notes = !notes }
  end

(* ------------------------------------------------------------------ *)
(* map-contended                                                        *)

let contended cli =
  let entry, make = map_entry "eager-opt" in
  let config =
    match entry.W.Registry.config with
    | Some c -> { c with Stm.cm = Contention.passive () }
    | None -> config_of Stm.Eager_lazy
  in
  let spec =
    { W.Workload.key_range = 1024; write_fraction = 1.0; ops_per_txn = 16; total_ops = 0 }
  in
  let pool = 1 lsl 13 in
  let o = spec.W.Workload.ops_per_txn in
  let streams =
    Array.init domains (fun d ->
        W.Workload.stream ~seed:(Hashtbl.hash (cli.seed, 2, d)) spec ~count:(pool * o))
  in
  let prefill_keys = Array.init (spec.W.Workload.key_range / 2) (fun i -> 2 * i) in
  let build () =
    let ops = make () in
    prefill ~config ops prefill_keys Fun.id;
    ops
  in
  let ops, setup_build = setup_median build ignore in
  let delta = Array.make domains 0 in
  let step ~traced ops d =
    let stream = streams.(d) in
    let run body = Stm.atomically ~config body in
    fun i ->
      let base = i mod pool * o in
      let dn =
        episode ~traced run (fun txn ->
            let dn = ref 0 in
            for j = base to base + o - 1 do
              match stream.(j) with
              | W.Workload.Get k -> ignore (ops.T.Map.get txn k)
              | W.Workload.Put (k, v) ->
                  if ops.T.Map.put txn k v = None then incr dn
              | W.Workload.Remove k ->
                  if ops.T.Map.remove txn k <> None then decr dn
            done;
            !dn)
      in
      delta.(d) <- delta.(d) + dn
  in
  let check () =
    let final = Stm.atomically ~config (fun txn -> ops.T.Map.size txn) in
    Checks.size ~prefill:(Array.length prefill_keys)
      ~delta:(Array.fold_left ( + ) 0 delta) ~final
  in
  let notes =
    ref
      [
        tag_note "mode" (Stm.mode_name config.Stm.mode);
        tag_note "entry" entry.W.Registry.name;
        ("key_range", J.Int spec.W.Workload.key_range);
        ("u", J.Float spec.W.Workload.write_fraction);
        ("o", J.Int o);
      ]
  in
  if not cli.trace then begin
    let ph, metrics = closed_untraced cli ~notes ~setup_s:setup_build (step ~traced:false ops) in
    { correct = check (); attempted = ph.n; failed = 0; metrics; notes = !notes }
  end
  else begin
    let u, t, layers =
      closed_traced cli ~untraced:(step ~traced:false ops)
        ~traced:(step ~traced:true (Spans.timed_map ops))
    in
    { correct = check (); attempted = u.n + t.n; failed = 0; metrics = layers []; notes = !notes }
  end

(* ------------------------------------------------------------------ *)
(* durable-commit                                                       *)

type durable_env = {
  log : D.Redo_log.t;
  path : string;
  ops : (int, int) T.Map.ops;  (** durable view *)
  base : (int, int) T.Map.ops;
}

let durable cli =
  let entry, make = map_entry "lazy-memo-combine" in
  let config = config_of Stm.Serial_commit in
  let keys = 100_000 in
  let spec =
    { W.Workload.key_range = keys; write_fraction = 0.5; ops_per_txn = 4; total_ops = 0 }
  in
  let o = spec.W.Workload.ops_per_txn in
  let pool = 1 lsl 15 in
  let streams =
    Array.init domains (fun d ->
        W.Workload.stream ~seed:(Hashtbl.hash (cli.seed, 3, d)) spec ~count:(pool * o))
  in
  let prefill_keys = Array.init (keys / 2) (fun i -> 2 * i) in
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let unacked = Atomic.make 0 in
  let on_commit ~lsn:_ ~acked = if not acked then Atomic.incr unacked in
  let builds = ref 0 in
  let build () =
    incr builds;
    let path =
      Filename.concat trace_dir
        (Printf.sprintf "durable-%d-%d.redo" (Unix.getpid ()) !builds)
    in
    D.Temp.cleanup path;
    let base = make () in
    prefill ~config base prefill_keys Fun.id;
    let log = D.Redo_log.create ~batch_delay:durable_batch_delay_s ~path () in
    let ops =
      D.Durable_map.ops (D.Durable_map.wrap ~on_commit ~fmt:D.Frame.Intent ~log base)
    in
    { log; path; ops; base }
  in
  let teardown e =
    D.Redo_log.close e.log;
    D.Temp.cleanup e.path
  in
  let env, setup_build = setup_median build teardown in
  let step ~traced ops d =
    let stream = streams.(d) in
    let run body = Stm.atomically ~config body in
    fun i ->
      let base = i mod pool * o in
      episode ~traced run (fun txn ->
          for j = base to base + o - 1 do
            W.Workload.apply_op ops txn stream.(j)
          done)
  in
  (* Recovery: replay the closed log into a fresh, identically
     prefilled structure; it must equal the live committed state. *)
  let recover ~traced =
    let live = read_back ~config env.base ~keys in
    D.Redo_log.close env.log;
    let fresh = make () in
    prefill ~config fresh prefill_keys Fun.id;
    let c = Spans.ctx () in
    if traced then Spans.begin_request c;
    let t0 = Spans.now () in
    let report = D.Recovery.run env.path in
    D.Durable_map.replay report fresh;
    let t1 = Spans.now () in
    if traced then Spans.add c Spans.Recover ~t0 ~t1;
    let replayed = read_back ~config fresh ~keys in
    D.Temp.cleanup env.path;
    ( Checks.replay ~live ~replayed,
      List.length report.D.Recovery.records,
      float_of_int (t1 - t0) *. 1e-9 )
  in
  let log_bytes_per_txn total =
    float_of_int (D.Redo_log.bytes_appended env.log) /. float_of_int (max 1 total)
  in
  let notes =
    ref
      [
        tag_note "mode" (Stm.mode_name config.Stm.mode);
        tag_note "entry" entry.W.Registry.name;
        tag_note "record_format" "intent";
        tag_note "flush_policy"
          (Printf.sprintf
             "real fsync per flusher batch; batch_delay %g s; no simulated fsync_delay"
             durable_batch_delay_s);
        ("u", J.Float spec.W.Workload.write_fraction);
        ("o", J.Int o);
        ("keys", J.Int keys);
      ]
  in
  if not cli.trace then begin
    let ph, metrics =
      closed_untraced cli ~notes ~setup_s:setup_build (step ~traced:false env.ops)
    in
    let bytes = log_bytes_per_txn ph.total in
    let verdict, records, recovery_s = recover ~traced:false in
    notes :=
      ("log_bytes_per_txn", J.Float bytes)
      :: ("recovery_s", J.Float recovery_s)
      :: ("recovery_records", J.Int records)
      :: !notes;
    let failed = Atomic.get unacked in
    { correct = verdict; attempted = ph.n; failed; metrics; notes = !notes }
  end
  else begin
    let u, t, layers =
      closed_traced cli ~untraced:(step ~traced:false env.ops)
        ~traced:(step ~traced:true (Spans.timed_map env.ops))
    in
    let bytes = log_bytes_per_txn (u.total + t.total) in
    let verdict, records, recovery_s = recover ~traced:true in
    let failed = Atomic.get unacked in
    let metrics =
      layers
        [
          ("durable.log_bytes_per_txn", bytes);
          ("durable.recovery_records", float_of_int records);
          ("durable.recovery_s", recovery_s);
          ("durable.recovery_us_per_record", recovery_s *. 1e6 /. float_of_int (max 1 records));
          ("workload.failed_share", float_of_int failed /. float_of_int (u.n + t.n));
        ]
    in
    { correct = verdict; attempted = u.n + t.n; failed; metrics; notes = !notes }
  end

(* ------------------------------------------------------------------ *)
(* scan-open                                                            *)

type req = Scan of int | Put2 of int * int

let scan cli =
  let keys = 100_000 and width = 64 in
  let config = config_of Stm.Multi_version in
  let kg = W.Arrivals.keygen (W.Arrivals.Zipf { s = 0.99; scramble = true }) ~keys in
  let gen_reqs salt count =
    let r = rng cli.seed [ 4; salt ] in
    Array.init count (fun _ ->
        if Random.State.float r 1.0 < 0.8 then Scan (W.Arrivals.next_key kg r)
        else Put2 (W.Arrivals.next_key kg r, W.Arrivals.next_key kg r))
  in
  let schedule salt rate seconds =
    let count = int_of_float (rate *. seconds) in
    let offs = W.Arrivals.schedule (rng cli.seed [ 5; salt ]) (W.Arrivals.Poisson { rate }) ~count in
    (offs, gen_reqs (100 + salt) count)
  in
  let pool = 1 lsl 16 in
  let cap_reqs = Array.init domains (fun d -> gen_reqs d pool) in
  let all_keys = Array.init keys Fun.id in
  let build () =
    let t = S.P_snap_omap.make () in
    let ops = S.P_snap_omap.map_ops t in
    prefill ~config ops all_keys Fun.id;
    (t, ops)
  in
  let (t, raw_ops), setup_build = setup_median build ignore in
  let bad_scans = Atomic.make 0 and failed = Atomic.make 0 in
  (* One request: a read-only range scan, or a two-key put under a
     deadline.  Returns whether it committed. *)
  let serve ~traced ops v = function
    | Scan lo ->
        let body txn =
          let range () = S.P_snap_omap.range t txn ~lo ~hi:(lo + width - 1) in
          if traced then Spans.timed (Spans.ctx ()) Spans.Range range else range ()
        in
        let run body = Stm.atomic ~config ~read_only:true body in
        (match episode ~traced run body with
        | Stm.Outcome.Committed l ->
            (match Checks.scan ~keys ~width ~lo (List.map fst l) with
            | Ok () -> ()
            | Error _ -> Atomic.incr bad_scans);
            true
        | _ -> false)
    | Put2 (a, b) ->
        let run body =
          Stm.atomic ~config ~deadline:(Clock.now_mono () +. scan_deadline_s) body
        in
        Stm.Outcome.to_option
          (episode ~traced run (fun txn ->
               ignore (ops.T.Map.put txn a v);
               ignore (ops.T.Map.put txn b v)))
        <> None
  in
  let step ~traced ops d =
    let rs = cap_reqs.(d) in
    fun i -> if not (serve ~traced ops i rs.(i mod pool)) then Atomic.incr failed
  in
  (* One open-loop stretch at [rate]: returns the run, the per-request
     accounting, the window's counters and the requests that did not
     commit (deadline missed, or skipped at the cutoff). *)
  let open_loop ~traced ~salt ~rate ~seconds =
    let offs, reqs = schedule salt rate seconds in
    let n = Array.length offs in
    let served = Array.make n 0 in
    let ops = if traced then Spans.timed_map raw_ops else raw_ops in
    let next = Atomic.make 0 and lost = Atomic.make 0 in
    let t0 = Clock.now_mono () +. 0.05 in
    let r = Openloop.create ~t0 offs in
    let cutoff = t0 +. seconds +. 1.0 in
    let serve_i i =
      if traced then begin
        let c = Spans.ctx () in
        Spans.begin_request c;
        Spans.add c Spans.Admit
          ~t0:(int_of_float (r.Openloop.intended.(i) *. 1e9))
          ~t1:(Spans.now ())
      end;
      if not (serve ~traced ops (salt * 1_000_000 + i) reqs.(i)) then Atomic.incr lost;
      served.(i) <- served.(i) + 1
    in
    let skip i =
      Atomic.incr lost;
      served.(i) <- served.(i) + 1
    in
    let st0 = Stats.read () and w0, mi0, ma0 = gc_words () in
    let ds =
      List.init scan_domains (fun _ ->
          Domain.spawn (fun () ->
              Openloop.worker ~cutoff ~skip ~clock:Openloop.real_clock ~next r ~serve:serve_i))
    in
    List.iter Domain.join ds;
    let st1 = Stats.read () and w1, mi1, ma1 = gc_words () in
    let tr =
      {
        t_txns = n;
        t_stats = Stats.diff st0 st1;
        t_minor_words = w1 -. w0;
        t_minor_gcs = mi1 - mi0;
        t_major_gcs = ma1 - ma0;
      }
    in
    (r, served, tr, t0 +. seconds, Atomic.get lost)
  in
  let accounting served (tr : traced) = Checks.accounting ~served ~ro_aborts:tr.t_stats.Stats.ro_aborts in
  (* Read-only aborts over the whole run, warm-ups included. *)
  let st_begin = Stats.read () in
  let ro_ok () = Checks.no_ro_aborts (Stats.diff st_begin (Stats.read ())).Stats.ro_aborts in
  let scans_ok () =
    match Atomic.get bad_scans with
    | 0 -> Ok ()
    | b -> Error (Printf.sprintf "%d range scans returned the wrong keys" b)
  in
  let notes =
    ref
      [
        tag_note "mode" (Stm.mode_name config.Stm.mode);
        tag_note "structure" "omap-snap";
        ("nominal_rate_per_s", J.Float scan_nominal_rate);
        ("ladder_per_s", J.List (List.map (fun r -> J.Float r) scan_ladder));
        ("p99_limit_us", J.Float scan_p99_limit_us);
        ("scan_width", J.Int width);
        ("put_deadline_s", J.Float scan_deadline_s);
      ]
  in
  if not cli.trace then begin
    (* Capacity: the same request mix served back to back. *)
    let p = spawn_phase ~warmup:warmup_s ~seconds:(cli.seconds /. 3.) (step ~traced:false raw_ops) in
    let cap = run_phase p in
    let r, served, tr, _, lost =
      open_loop ~traced:false ~salt:1 ~rate:scan_nominal_rate ~seconds:(cli.seconds *. 2. /. 3.)
    in
    let metrics =
      end_to_end ~notes ~seconds:cli.seconds ~setup_s:setup_build ~txn_per_s:(txn_per_s cap)
        ~cpu_us:(cpu_us_per_txn cap) ~heap_live_mb:cap.heap_live_mb
        ~lat:[ Openloop.samples r `Service ]
        ~intended:[ Openloop.samples r `Intended ]
    in
    let n = Array.length served in
    {
      correct = Checks.all [ ro_ok (); accounting served tr; scans_ok () ];
      attempted = cap.n + n;
      failed = Atomic.get failed + lost;
      metrics;
      notes = !notes;
    }
  end
  else begin
    let s = cli.seconds in
    let u = run_phase (spawn_phase ~warmup:warmup_s ~seconds:(s /. 8.) (step ~traced:false raw_ops)) in
    let p = spawn_phase ~cap:traced_cap ~warmup:0. ~seconds:(s /. 8.) (step ~traced:true (Spans.timed_map raw_ops)) in
    start_tracing ();
    let tcap = run_phase p in
    (* The traced open stretch at the nominal rate, traced afresh so the
       per-layer counts cover it alone. *)
    start_tracing ();
    let r, served, tr, t_end, lost =
      open_loop ~traced:true ~salt:1 ~rate:scan_nominal_rate ~seconds:(s /. 4.)
    in
    stop_tracing ();
    let lag = Openloop.samples r `Lateness in
    let n = Array.length served in
    let first = r.Openloop.intended.(0) and last_start = Array.fold_left Float.max 0. r.Openloop.start in
    (* The ladder, untraced: one stretch per rung.  Rungs above capacity
       are expected to miss deadlines; they count in the ladder notes,
       not in [failed]. *)
    let rung_s = s /. 2. /. float_of_int (List.length scan_ladder) in
    let oks = ref [ accounting served tr ] in
    let nominal_service_p99 = ref 0. and nominal_intended_p50 = ref 0. in
    let rung_lost = ref [] in
    let rungs =
      List.mapi
        (fun i rate ->
          let rr, sv, trr, rend, rl = open_loop ~traced:false ~salt:(10 + i) ~rate ~seconds:rung_s in
          oks := accounting sv trr :: !oks;
          rung_lost := rl :: !rung_lost;
          if rate = scan_nominal_rate then begin
            nominal_service_p99 :=
              windowed_us ~seconds:rung_s ~q:99. [ Openloop.samples rr `Service ];
            nominal_intended_p50 :=
              windowed_us ~seconds:rung_s ~q:50. [ Openloop.samples rr `Intended ]
          end;
          let p99 =
            match Pct.tail ~q:99. (Pct.sorted (Openloop.samples rr `Intended)) with
            | Some t -> float_of_int t.Pct.value /. 1e3
            | None -> Float.infinity
          in
          { Ladder.rate; p99_us = p99; backlog_end = Openloop.backlog_at rr rend })
        scan_ladder
    in
    notes :=
      ( "ladder",
        J.List
          (List.map2
             (fun (g : Ladder.rung) rl ->
               J.Obj
                 [
                   ("rate", J.Float g.Ladder.rate);
                   ("intended_p99_us", J.Float g.Ladder.p99_us);
                   ("backlog_end", J.Int g.Ladder.backlog_end);
                   ("not_committed", J.Int rl);
                 ])
             rungs (List.rev !rung_lost)) )
      :: !notes;
    let failed = Atomic.get failed + lost in
    let nominal =
      List.find (fun (g : Ladder.rung) -> g.Ladder.rate = scan_nominal_rate) rungs
    in
    let extra =
      [
        ("workload.txn_per_s", txn_per_s u);
        ("workload.cpu_us_per_txn", cpu_us_per_txn u);
        ("workload.txn_p99_us", !nominal_service_p99);
        ("workload.intended_p50_us", !nominal_intended_p50);
        ("workload.intended_p99_us", nominal.Ladder.p99_us);
        ( "workload.gen_lag_max_us",
          float_of_int (Array.fold_left max 0 lag) /. 1e3 );
        ("workload.realized_rate_per_s", float_of_int n /. (last_start -. first));
        ("workload.backlog_end", float_of_int (Openloop.backlog_at r t_end));
        ("workload.sustained_rate_per_s", Ladder.sustained ~limit_us:scan_p99_limit_us rungs);
        ("workload.failed_share", float_of_int failed /. float_of_int (u.n + tcap.n + n));
      ]
    in
    let metrics =
      per_layer ~workload:cli.workload ~tr
        ~overhead_pct:(overhead ~untraced:(whole_rate u) ~traced:(whole_rate tcap))
        ~extra
    in
    {
      correct = Checks.all (ro_ok () :: scans_ok () :: !oks);
      attempted = u.n + tcap.n + n;
      failed;
      metrics;
      notes = !notes;
    }
  end

(* ------------------------------------------------------------------ *)

let workloads =
  [
    ("transfer-uniform", transfer);
    ("map-contended", contended);
    ("durable-commit", durable);
    ("scan-open", scan);
  ]

let () =
  refuse_knobs ();
  let cli = parse_cli () in
  let run =
    match List.assoc_opt cli.workload workloads with
    | Some f -> f
    | None ->
        die "unknown workload %S (one of: %s)" cli.workload
          (String.concat ", " (List.map fst workloads))
  in
  pin_knobs ();
  let config =
    J.Obj
      [
        ("workload", J.String cli.workload);
        ("seed", J.Int cli.seed);
        ("seconds", J.Float cli.seconds);
        ("trace", J.Bool cli.trace);
        ("git_rev", J.String cli.rev);
        ("nproc", J.Int (Domain.recommended_domain_count ()));
        ("domains", J.Int domains);
        ("combining", J.Bool (Stm.combining ()));
        ("combine_linger_s", J.Float (Stm.combine_linger ()));
        ("adaptive_linger", J.Bool (Stm.adaptive_linger ()));
        ( "retry_mode",
          J.String (match Stm.retry_mode () with Stm.Park -> "park" | Stm.Poll -> "poll") );
        ("max_versions", J.Int (Snapshots.max_versions ()));
        ("cm", J.String "passive");
        ("ocamlrunparam", J.String (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
      ]
  in
  Printf.printf "config %s\n%!" (J.to_string config);
  let o = run cli in
  Printf.printf "notes %s\n" (J.to_string (J.Obj (List.rev o.notes)));
  List.iter
    (fun x -> Printf.printf "metric %-36s %14.4f %s\n" x.m_name x.m_value x.m_unit)
    o.metrics;
  (match o.correct with
  | Ok () -> ()
  | Error e -> Printf.printf "check FAILED: %s\n" e);
  let result =
    J.Obj
      [
        ("correct", J.Bool (Result.is_ok o.correct));
        ("attempted", J.Int o.attempted);
        ("failed", J.Int o.failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun x -> (x.m_name, J.Obj [ ("value", J.Float x.m_value); ("unit", J.String x.m_unit) ]))
               o.metrics) );
      ]
  in
  print_endline (J.to_string result);
  exit (if Result.is_ok o.correct then 0 else 1)
