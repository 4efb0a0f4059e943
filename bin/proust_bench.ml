(* Command-line benchmark driver for custom parameter sweeps.

     proust_bench --impl lazy-memo,fifo-lazy --threads 1,2,4 -u 0.5,1.0 \
                  -o 1,16 --ops 100000 --mode eager-lazy --cm karma \
                  --csv out.csv --json report.json --trace trace.json

   The `bench/main.exe` harness regenerates the paper's fixed grids;
   this tool explores arbitrary points of the space.  Implementations
   are enumerated from the workload registry, so maps, FIFO queues and
   priority queues are all benchable; an entry whose trait header
   requires encounter-time conflict detection is upgraded to
   eager-lazy if the requested mode cannot host it (Figure 1).

   --json writes a "proust-bench/v1" report (and enables metrics, so
   cells carry commit/abort-retry/lock-wait latency percentiles);
   --trace enables tracing and writes a Chrome trace_event file
   loadable in Perfetto. *)

module W = Proust_workload
module S = Proust_structures
module Obs = Proust_obs

let run impls threads_list u_list o_list ops key_range trials slots mode cm csv
    json trace =
  let config =
    {
      (Stm.get_default_config ()) with
      Stm.mode = Stm.Mode.of_string mode;
      cm;
    }
  in
  if json <> None then Obs.Metrics.enable ();
  if trace <> None then Obs.Trace.enable ();
  let cells = ref [] in
  let csv_oc = Option.map open_out csv in
  Option.iter W.Report.csv_header csv_oc;
  W.Report.header ();
  let entries =
    List.map
      (fun name ->
        match W.Registry.find ~slots name with
        | Some e ->
            (* Honour the requested mode unless the entry's trait
               header rules it out (Theorem 5.2); then upgrade to
               eager-lazy, as the registry would. *)
            let config =
              if
                S.Trait.mode_ok e.W.Registry.meta.S.Trait.mode_req
                  config.Stm.mode
              then config
              else { config with Stm.mode = Stm.Eager_lazy }
            in
            { e with W.Registry.config = Some config }
        | None ->
            invalid_arg
              (Printf.sprintf "unknown impl %s (known: %s)" name
                 (String.concat ", " (W.Registry.names ()))))
      impls
  in
  List.iter
    (fun u ->
      List.iter
        (fun o ->
          let spec =
            {
              W.Workload.key_range;
              write_fraction = u;
              ops_per_txn = o;
              total_ops = ops;
            }
          in
          List.iter
            (fun (e : W.Registry.entry) ->
              let name = e.W.Registry.name in
              List.iter
                (fun threads ->
                  let r =
                    W.Runner.run_entry ~trials ~warmup:1 ~threads ~spec e
                  in
                  W.Report.row ~name r;
                  Option.iter (fun oc -> W.Report.csv_row oc ~name r) csv_oc;
                  if json <> None then
                    cells := W.Report.json_cell ~name r :: !cells)
                threads_list)
            entries)
        o_list)
    u_list;
  Option.iter close_out csv_oc;
  Option.iter
    (fun file ->
      let jstr s = Obs.Json.String s in
      let config_fields =
        [
          ("impls", Obs.Json.List (List.map jstr impls));
          ( "threads",
            Obs.Json.List (List.map (fun t -> Obs.Json.Int t) threads_list) );
          ("u", Obs.Json.List (List.map (fun u -> Obs.Json.Float u) u_list));
          ("o", Obs.Json.List (List.map (fun o -> Obs.Json.Int o) o_list));
          ("ops", Obs.Json.Int ops);
          ("key_range", Obs.Json.Int key_range);
          ("trials", Obs.Json.Int trials);
          ("slots", Obs.Json.Int slots);
          ("mode", jstr mode);
          ("cm", jstr cm.Proust_stm.Contention.name);
          ("ocaml", jstr Sys.ocaml_version);
          ("unix_time", Obs.Json.Float (Unix.gettimeofday ()));
        ]
      in
      W.Report.write_json ~file ~config:config_fields (List.rev !cells);
      Printf.printf "wrote JSON report: %s (%d cells)\n%!" file
        (List.length !cells))
    json;
  Option.iter
    (fun file ->
      Obs.Trace.dump_chrome_file file;
      Printf.printf "wrote Chrome trace: %s (%d events, %d dropped)\n%!" file
        (Obs.Trace.emitted ()) (Obs.Trace.dropped ()))
    trace

open Cmdliner

let impls_arg =
  let doc =
    "Comma-separated implementations from the registry: "
    ^ String.concat ", " (W.Registry.names ())
  in
  Arg.(value & opt (list string) [ "lazy-memo" ] & info [ "impl" ] ~doc)

let threads_arg =
  Arg.(value & opt (list int) [ 1; 2; 4 ] & info [ "threads"; "t" ] ~doc:"Thread counts")

let u_arg =
  Arg.(
    value
    & opt (list float) [ 0.5 ]
    & info [ "u" ] ~doc:"Comma-separated write fractions in [0,1]")

let o_arg =
  Arg.(
    value
    & opt (list int) [ 16 ]
    & info [ "o" ] ~doc:"Comma-separated operations per transaction")

let ops_arg =
  Arg.(value & opt int 50_000 & info [ "ops" ] ~doc:"Total operations per cell")

let keys_arg =
  Arg.(value & opt int 1024 & info [ "keys" ] ~doc:"Key range")

let trials_arg = Arg.(value & opt int 3 & info [ "trials" ] ~doc:"Measured trials")

let slots_arg =
  Arg.(value & opt int 1024 & info [ "slots"; "M" ] ~doc:"Conflict-abstraction region size")

let mode_arg =
  Arg.(
    value
    & opt string "lazy-lazy"
    & info [ "mode" ]
        ~doc:
          (Printf.sprintf "STM conflict detection: %s"
             (String.concat ", " (Stm.Mode.names ()))))

let cm_arg =
  let managers =
    List.map
      (fun (cm : Proust_stm.Contention.t) -> (cm.Proust_stm.Contention.name, cm))
      (Proust_stm.Contention.all ())
  in
  Arg.(
    value
    & opt (enum managers) (List.assoc "passive" managers)
    & info [ "cm" ]
        ~doc:
          (Printf.sprintf "Contention manager: %s"
             (String.concat ", " (List.map fst managers))))

let csv_arg =
  Arg.(value & opt (some string) None & info [ "csv" ] ~doc:"Also write CSV to $(docv)")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ]
        ~doc:
          "Write a proust-bench/v1 JSON report (with latency percentiles) to \
           $(docv)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:"Record a Chrome trace_event file (Perfetto-loadable) to $(docv)")

let cmd =
  let doc = "Proust structure-throughput benchmark (custom sweeps)" in
  Cmd.v
    (Cmd.info "proust_bench" ~doc)
    Term.(
      const run $ impls_arg $ threads_arg $ u_arg $ o_arg $ ops_arg $ keys_arg
      $ trials_arg $ slots_arg $ mode_arg $ cm_arg $ csv_arg $ json_arg
      $ trace_arg)

let () = exit (Cmd.eval cmd)
