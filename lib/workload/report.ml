(** Table/series/JSON rendering for benchmark output: one row (or JSON
    cell) per measured cell, in the shape of the paper's Figure 4
    series (time in ms to process the operation stream, per
    implementation and thread count).

    The machine-readable shapes — CSV columns and the
    ["proust-bench/v1"] JSON report — derive their STM-counter fields
    from {!Stats.to_assoc}, so a new counter shows up in every output
    format without touching this module. *)

module J = Proust_obs.Json

let header () =
  Printf.printf "%-30s %5s %5s %4s %10s %9s %12s %9s %9s %7s %6s %6s\n" "impl"
    "u" "o" "t" "mean(ms)" "sd(ms)" "ops/s" "commits" "aborts" "fallbk" "shed"
    "tmout";
  Printf.printf "%s\n" (String.make 122 '-')

let row ~name (r : Runner.result) =
  Printf.printf "%-30s %5.2f %5d %4d %10.2f %9.2f %12.0f %9d %9d %7d %6d %6d\n%!"
    name r.Runner.spec.Workload.write_fraction
    r.Runner.spec.Workload.ops_per_txn r.Runner.threads r.Runner.mean_ms
    r.Runner.stddev_ms r.Runner.throughput r.Runner.stats.Stats.commits
    r.Runner.stats.Stats.aborts r.Runner.stats.Stats.fallbacks
    r.Runner.stats.Stats.shed r.Runner.stats.Stats.timeouts

let stat_keys () = List.map fst (Stats.to_assoc (Stats.read ()))

let csv_header oc =
  output_string oc "impl,u,o,threads,mean_ms,stddev_ms,ops_per_s";
  List.iter (fun k -> Printf.fprintf oc ",%s" k) (stat_keys ());
  output_char oc '\n'

let csv_row oc ~name (r : Runner.result) =
  Printf.fprintf oc "%s,%.2f,%d,%d,%.3f,%.3f,%.0f" name
    r.Runner.spec.Workload.write_fraction r.Runner.spec.Workload.ops_per_txn
    r.Runner.threads r.Runner.mean_ms r.Runner.stddev_ms r.Runner.throughput;
  List.iter
    (fun (_, v) -> Printf.fprintf oc ",%d" v)
    (Stats.to_assoc r.Runner.stats);
  output_char oc '\n'

let section title = Printf.printf "\n=== %s ===\n%!" title

(* ------------------------------------------------------------------ *)
(* JSON report: the BENCH_*.json format.                               *)

let json_cell ~name ~axes (r : Runner.result) =
  J.Obj
    ((("impl", J.String name) :: axes)
    @ [
      ("u", J.Float r.Runner.spec.Workload.write_fraction);
      ("o", J.Int r.Runner.spec.Workload.ops_per_txn);
      ("threads", J.Int r.Runner.threads);
      ("key_range", J.Int r.Runner.spec.Workload.key_range);
      ("total_ops", J.Int r.Runner.spec.Workload.total_ops);
      ("mean_ms", J.Float r.Runner.mean_ms);
      ("stddev_ms", J.Float r.Runner.stddev_ms);
      ("trials_ms", J.List (List.map (fun t -> J.Float t) r.Runner.trials_ms));
      ("ops_per_s", J.Float r.Runner.throughput);
      (* Derived allocation figure the CI regression gate keys on. *)
      ( "minor_words_per_commit",
        if r.Runner.stats.Stats.commits = 0 then J.Null
        else
          J.Float
            (float_of_int r.Runner.stats.Stats.minor_words
            /. float_of_int r.Runner.stats.Stats.commits) );
      ( "stats",
        J.Obj
          (List.map (fun (k, v) -> (k, J.Int v)) (Stats.to_assoc r.Runner.stats))
      );
      ( "latency_ns",
        match r.Runner.latency with
        | Some s -> Proust_obs.Metrics.scope_summary_to_json s
        | None -> J.Null );
      ])

(** The report envelope: [config] carries run-level settings (host
    facts, CLI flags, STM mode) as caller-chosen fields. *)
let json_report ~config cells =
  J.Obj
    [
      ("schema", J.String "proust-bench/v1");
      ("config", J.Obj config);
      ("cells", J.List cells);
    ]

let write_json ~file ~config cells =
  J.write_file file (json_report ~config cells)
