(** Tests for the benchmark substrate: workload generation, the
    implementation registry and the throughput runner. *)

open Util
module W = Proust_workload
module T = Proust_structures.Trait

let spec ~u ~o =
  { W.Workload.key_range = 64; write_fraction = u; ops_per_txn = o; total_ops = 1_000 }

let test_stream_deterministic () =
  let s1 = W.Workload.stream ~seed:7 (spec ~u:0.5 ~o:4) ~count:100 in
  let s2 = W.Workload.stream ~seed:7 (spec ~u:0.5 ~o:4) ~count:100 in
  check cb "same seed, same stream" true (s1 = s2);
  let s3 = W.Workload.stream ~seed:8 (spec ~u:0.5 ~o:4) ~count:100 in
  check cb "different seed differs" true (s1 <> s3)

let classify = function
  | W.Workload.Get _ -> `R
  | W.Workload.Put _ | W.Workload.Remove _ -> `W

let test_write_fraction () =
  let count = 20_000 in
  let s = W.Workload.stream ~seed:1 (spec ~u:0.25 ~o:1) ~count in
  let writes =
    Array.fold_left (fun n op -> if classify op = `W then n + 1 else n) 0 s
  in
  let frac = float_of_int writes /. float_of_int count in
  check cb
    (Printf.sprintf "write fraction ~0.25 (got %.3f)" frac)
    true
    (frac > 0.22 && frac < 0.28)

let test_extremes () =
  let all p s = Array.for_all p s in
  check cb "u=0 all reads" true
    (all
       (fun op -> classify op = `R)
       (W.Workload.stream ~seed:1 (spec ~u:0.0 ~o:1) ~count:2_000));
  check cb "u=1 all writes" true
    (all
       (fun op -> classify op = `W)
       (W.Workload.stream ~seed:1 (spec ~u:1.0 ~o:1) ~count:2_000))

let test_keys_in_range () =
  let s = W.Workload.stream ~seed:3 (spec ~u:0.5 ~o:1) ~count:5_000 in
  check cb "all keys in range" true
    (Array.for_all
       (fun op ->
         let k =
           match op with
           | W.Workload.Get k | W.Workload.Put (k, _) | W.Workload.Remove k -> k
         in
         k >= 0 && k < 64)
       s)

let test_txn_count () =
  check ci "exact division" 10 (W.Workload.txn_count (spec ~u:0.0 ~o:100) ~count:1_000);
  check ci "ragged tail" 11 (W.Workload.txn_count (spec ~u:0.0 ~o:100) ~count:1_001)

let entry name = Option.get (W.Registry.find name)

let test_runner_end_to_end () =
  let r =
    W.Runner.run_entry ~trials:2 ~warmup:0 ~threads:2 ~spec:(spec ~u:0.5 ~o:4)
      (entry "lazy-memo-combine")
  in
  check ci "two trials" 2 (List.length r.W.Runner.trials_ms);
  check cb "positive time" true (r.W.Runner.mean_ms > 0.0);
  check cb "throughput sane" true (r.W.Runner.throughput > 0.0);
  (* per trial: 32 prefill txns + 1000/2 ops in 4-op txns per thread *)
  check cb "commits recorded" true (r.W.Runner.stats.Stats.commits > 0)

(* Over 1,024 keys, Zipf(0.99) gives key 0 about 13% of the draws;
   uniform keys give it about 0.1%. *)
let test_zipf_skews_keys () =
  let spec = { (spec ~u:0.0 ~o:1) with W.Workload.key_range = 1024 } in
  let count = 20_000 in
  let share dist =
    let s = W.Workload.stream ~seed:5 ~dist spec ~count in
    let hits =
      Array.fold_left (fun n op -> if op = W.Workload.Get 0 then n + 1 else n) 0 s
    in
    float_of_int hits /. float_of_int count
  in
  let zipf = share (W.Workload.Zipf 0.99) and uniform = share W.Workload.Uniform in
  check cb (Printf.sprintf "zipf: key 0 takes %.3f > 0.05" zipf) true (zipf > 0.05);
  check cb
    (Printf.sprintf "uniform: key 0 takes %.4f < 0.01" uniform)
    true (uniform < 0.01);
  let draw () = W.Workload.stream ~seed:9 ~dist:(W.Workload.Zipf 0.99) spec ~count:500 in
  check cb "seeded zipf stream deterministic" true (draw () = draw ())

(* Every worker index runs once, and the window spans the slowest
   worker: it cannot be shorter than the longest sleep. *)
let test_timed_window () =
  let n = 3 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  let sleep i = 0.01 *. float_of_int (i + 1) in
  let dt =
    W.Runner.timed n (fun i () ->
        Atomic.incr runs.(i);
        Unix.sleepf (sleep i))
  in
  Array.iteri
    (fun i c -> check ci (Printf.sprintf "worker %d ran once" i) 1 (Atomic.get c))
    runs;
  check cb "window covers the longest sleep" true (dt >= sleep (n - 1))

let test_report_renders () =
  let r =
    W.Runner.run_entry ~trials:1 ~warmup:0 ~threads:1 ~spec:(spec ~u:0.5 ~o:1)
      (entry "predication")
  in
  (* smoke: the printers do not raise *)
  W.Report.header ();
  W.Report.row ~name:"test" r;
  let tmp = Filename.temp_file "proust" ".csv" in
  let oc = open_out tmp in
  W.Report.csv_header oc;
  W.Report.csv_row oc ~name:"test" r;
  close_out oc;
  let ic = open_in tmp in
  let header = input_line ic in
  let row = input_line ic in
  close_in ic;
  Sys.remove tmp;
  check cb "csv header" true (String.length header > 0);
  check cb "csv row mentions impl" true (String.length row > 4)

(* Each registry key names one entry, and [find] builds an entry that
   carries the key as its name and as the meta name of the ops it
   builds, so metrics scopes and trace labels match the key. *)
let test_registry_names () =
  let names = W.Registry.names () in
  check ci "keys unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun k ->
      match W.Registry.find k with
      | None -> Alcotest.failf "find %S: no entry" k
      | Some e ->
          check cs "entry name" k e.W.Registry.name;
          check cs (k ^ ": entry meta name") k e.W.Registry.meta.T.name;
          let built =
            match e.W.Registry.target with
            | W.Registry.Map make -> (make ()).T.Map.meta
            | W.Registry.Queue make -> (make ()).T.Queue.meta
            | W.Registry.Pqueue make -> (make ()).T.Pqueue.meta
            | W.Registry.Counter make -> (make ()).T.Counter.meta
          in
          check cs (k ^ ": built ops' meta name") k built.T.name)
    names;
  check cb "unknown key" true
    (Option.is_none (W.Registry.find "no-such-entry"))

let suite =
  [
    test "stream deterministic" test_stream_deterministic;
    test "write fraction honored" test_write_fraction;
    test "u extremes" test_extremes;
    test "keys in range" test_keys_in_range;
    test "txn count" test_txn_count;
    test "zipf stream skews keys" test_zipf_skews_keys;
    test "timed window" test_timed_window;
    test "registry keys name their entries" test_registry_names;
    slow "runner end to end" test_runner_end_to_end;
    slow "report renders" test_report_renders;
  ]
