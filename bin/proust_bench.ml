(* Command-line benchmark driver: the one design-space grid.

     proust_bench --impl lazy-memo,fifo-lazy --threads 1,2,4 -u 0.5,1.0 \
                  -o 1,16 --ops 100000 --mode lazy-lazy,eager-lazy \
                  --cm passive,karma --slots 64,1024 --keys 1024 \
                  --dist uniform,zipf:0.99 --csv out.csv --json report.json

   Every axis takes a comma list and the run is their product, over
   registry entries (maps, FIFO queues, priority queues, counters).  An
   entry whose trait header forbids a requested mode (Theorem 5.2) runs
   under eager-lazy (Registry.under), said once; a cell whose effective
   configuration already ran is not run again; a non-uniform --dist
   skips the entries whose streams have no key distribution.  Rows name
   the entry plus each axis that varies.  FIG4 and the ablations are
   command lines of this tool (EXPERIMENTS.md "Recipes").

   --json writes a "proust-bench/v1" report whose cells record the mode,
   cm, slots, key range and dist they ran under (and enables metrics, so
   cells carry latency percentiles); --trace writes a Chrome trace_event
   file loadable in Perfetto. *)

module W = Proust_workload
module Obs = Proust_obs
module J = Proust_obs.Json

let dist_name = function
  | W.Workload.Uniform -> "uniform"
  | W.Workload.Zipf s -> Printf.sprintf "zipf:%g" s

let ( let* ) l f = List.concat_map f l

let run impls threads_list u_list o_list ops keys_list trials slots_list modes
    cms dists csv json trace =
  if json <> None then Obs.Metrics.enable ();
  if trace <> None then Obs.Trace.enable ();
  let find ~slots name =
    match W.Registry.find ~slots name with
    | Some e -> e
    | None ->
        invalid_arg
          (Printf.sprintf "unknown impl %s (known: %s)" name
             (String.concat ", " (W.Registry.names ())))
  in
  let said = Hashtbl.create 8 and seen = Hashtbl.create 64 in
  let once msg =
    if not (Hashtbl.mem said msg) then (Hashtbl.add said msg (); print_endline msg)
  in
  let varies l = List.length (List.sort_uniq compare l) > 1 in
  (* One series per entry under each effective configuration [id]. *)
  let series =
    let* mode = modes in
    let* (cm : Proust_stm.Contention.t) = cms in
    let* slots = slots_list in
    let* keys = keys_list in
    let* dist = dists in
    let* name = impls in
    let e = W.Registry.under (find ~slots name) mode in
    let config = { (Option.get e.W.Registry.config) with Stm.cm } in
    let ran = Stm.mode_name config.Stm.mode in
    if config.Stm.mode <> mode then
      once
        (Printf.sprintf "%s: %s is unsound for its trait header (Theorem 5.2); runs under %s"
           name (Stm.mode_name mode) ran);
    let keyed =
      match e.W.Registry.target with W.Registry.Map _ -> true | _ -> dist = W.Workload.Uniform
    in
    let id = (name, ran, cm.name, slots, keys, dist) in
    if not keyed then begin
      once
        (Printf.sprintf "%s: skipped under --dist %s (no key distribution)"
           name (dist_name dist));
      []
    end
    else if Hashtbl.mem seen id then []
    else begin
      Hashtbl.add seen id ();
      let tags =
        [
          (varies modes, ran);
          (varies cms, cm.name);
          (varies slots_list, Printf.sprintf "M%d" slots);
          (varies keys_list, Printf.sprintf "k%d" keys);
          (varies dists, dist_name dist);
        ]
      in
      let label = List.filter_map (fun (v, t) -> if v then Some t else None) tags in
      let axes =
        [
          ("mode", J.String ran);
          ("cm", J.String cm.name);
          ("slots", J.Int slots);
          ("dist", J.String (dist_name dist));
        ]
      in
      let run ~u ~o ~threads =
        let spec =
          { W.Workload.key_range = keys; write_fraction = u; ops_per_txn = o; total_ops = ops }
        in
        W.Runner.run_entry ~dist ~trials ~warmup:1 ~threads ~spec
          { e with W.Registry.config = Some config }
      in
      [ (String.concat "/" (name :: label), name, axes, run) ]
    end
  in
  let grid =
    let* u = u_list in
    let* o = o_list in
    let* s = series in
    let* threads = threads_list in
    [ (u, o, s, threads) ]
  in
  let cells = ref [] in
  let csv_oc = Option.map open_out csv in
  Option.iter W.Report.csv_header csv_oc;
  W.Report.header ();
  List.iter
    (fun (u, o, (label, name, axes, run), threads) ->
      let r = run ~u ~o ~threads in
      W.Report.row ~name:label r;
      Option.iter (fun oc -> W.Report.csv_row oc ~name:label r) csv_oc;
      if json <> None then cells := W.Report.json_cell ~name ~axes r :: !cells)
    grid;
  Option.iter close_out csv_oc;
  Option.iter
    (fun file ->
      let strings f l = J.List (List.map (fun x -> J.String (f x)) l) in
      let ints l = J.List (List.map (fun i -> J.Int i) l) in
      let config_fields =
        [
          ("impls", strings Fun.id impls);
          ("threads", ints threads_list);
          ("u", J.List (List.map (fun u -> J.Float u) u_list));
          ("o", ints o_list);
          ("ops", J.Int ops);
          ("key_range", ints keys_list);
          ("trials", J.Int trials);
          ("slots", ints slots_list);
          ("mode", strings Stm.mode_name modes);
          ("cm", strings (fun (c : Proust_stm.Contention.t) -> c.name) cms);
          ("dist", strings dist_name dists);
          ("ocaml", J.String Sys.ocaml_version);
          ("unix_time", J.Float (Unix.gettimeofday ()));
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
  Arg.(value & opt (list int) [ 1024 ] & info [ "keys" ] ~doc:"Comma-separated key ranges")

let trials_arg = Arg.(value & opt int 3 & info [ "trials" ] ~doc:"Measured trials")

let slots_arg =
  Arg.(
    value
    & opt (list int) [ 1024 ]
    & info [ "slots"; "M" ] ~doc:"Comma-separated conflict-abstraction region sizes")

let mode_arg =
  Arg.(
    value
    & opt (list (enum (List.map (fun m -> (Stm.mode_name m, m)) Stm.Mode.all)))
        [ Stm.Lazy_lazy ]
    & info [ "mode" ]
        ~doc:
          (Printf.sprintf "Comma-separated STM conflict-detection modes: %s"
             (String.concat ", " (Stm.Mode.names ()))))

let cm_arg =
  let managers =
    List.map
      (fun (cm : Proust_stm.Contention.t) -> (cm.Proust_stm.Contention.name, cm))
      (Proust_stm.Contention.all ())
  in
  Arg.(
    value
    & opt (list (enum managers)) [ List.assoc "passive" managers ]
    & info [ "cm" ]
        ~doc:
          (Printf.sprintf "Comma-separated contention managers: %s"
             (String.concat ", " (List.map fst managers))))

let dist_arg =
  let parse = function
    | "uniform" -> Ok W.Workload.Uniform
    | d -> (
        match Scanf.sscanf_opt d "zipf:%f%!" Fun.id with
        | Some s when Float.is_finite s && s > 0.0 -> Ok (W.Workload.Zipf s)
        | _ -> Error (`Msg ("expected uniform or zipf:S with S > 0, got " ^ d)))
  in
  let print fmt d = Format.pp_print_string fmt (dist_name d) in
  Arg.(
    value
    & opt (list (conv (parse, print))) [ W.Workload.Uniform ]
    & info [ "dist" ] ~doc:"Comma-separated map key distributions: uniform, zipf:S")

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
  let doc = "Proust structure-throughput benchmark (the design-space grid)" in
  Cmd.v
    (Cmd.info "proust_bench" ~doc)
    Term.(
      const run $ impls_arg $ threads_arg $ u_arg $ o_arg $ ops_arg $ keys_arg
      $ trials_arg $ slots_arg $ mode_arg $ cm_arg $ dist_arg $ csv_arg
      $ json_arg $ trace_arg)

let () = exit (Cmd.eval cmd)
