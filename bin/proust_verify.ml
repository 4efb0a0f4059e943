(* Command-line front end for the conflict-abstraction verifier:

     proust_verify check --model counter --threshold 2
     proust_verify check --model pqueue --literal-figure3
     proust_verify pairs --model queue
     proust_verify synth --model counter
     proust_verify sat --model counter --threshold 1

   `check` runs the exhaustive Definition 3.1 checker, `sat` the
   SAT-based encoding, `pairs` lists non-commuting operation pairs,
   `synth` runs the CEGIS search over the model's candidate space. *)

module V = Proust_verify

(* Each built-in model is packed with its candidate abstractions so the
   subcommands can dispatch on a name. *)
type packed =
  | Packed : {
      model : ('s, 'o, 'r) V.Adt_model.t;
      ca : ('s, 'o) V.Ca_spec.t;
      candidates : ('s, 'o) V.Ca_spec.t list;
    }
      -> packed

let pack name ~threshold ~literal ~slots ~stripes =
  match name with
  | "counter" ->
      Packed
        {
          model = V.Adt_model.counter ~bound:6;
          ca = V.Ca_spec.counter ~threshold ();
          candidates = V.Synth.counter_candidates ~max_threshold:4;
        }
  | "map" ->
      Packed
        {
          model = V.Adt_model.small_map ();
          ca =
            (if literal then V.Ca_spec.broken_map ~slots ()
             else V.Ca_spec.striped_map ~slots ());
          candidates = V.Synth.map_candidates ~max_slots:slots;
        }
  | "pqueue" ->
      Packed
        {
          model = V.Adt_model.small_pqueue ();
          ca =
            (if literal then V.Ca_spec.figure3_literal_pqueue ~stripes ()
             else V.Ca_spec.pqueue ~stripes ());
          candidates = V.Synth.pqueue_candidates ~stripes;
        }
  | "queue" ->
      Packed
        {
          model = V.Adt_model.small_queue ();
          ca = (if literal then V.Ca_spec.broken_fifo () else V.Ca_spec.fifo ());
          candidates =
            [ V.Ca_spec.broken_fifo (); V.Ca_spec.fifo () ];
        }
  | other ->
      prerr_endline
        ("unknown model: " ^ other ^ " (counter|map|pqueue|queue)");
      exit 2

let do_check (Packed p) =
  Printf.printf "model %s, abstraction %s, %d states x %d ops\n"
    p.model.V.Adt_model.name p.ca.V.Ca_spec.name
    (List.length p.model.V.Adt_model.states)
    (List.length p.model.V.Adt_model.ops);
  match V.Ca_check.check p.model p.ca with
  | None ->
      print_endline "VERIFIED: Definition 3.1 holds on the bounded model";
      0
  | Some cex ->
      print_endline
        ("REJECTED: " ^ V.Ca_check.show_counterexample p.model cex);
      1

let do_sat (Packed p) =
  match V.Ca_encode.check_model p.model p.ca with
  | V.Ca_encode.G_correct ->
      print_endline "UNSAT: the conflict abstraction is correct (Theorem E.1)";
      0
  | V.Ca_encode.G_counterexample d ->
      print_endline ("SAT: " ^ d);
      1

let do_pairs (Packed p) =
  let pairs = V.Commute.non_commuting_pairs p.model in
  Printf.printf "%d non-commuting (state, m, n) triples:\n" (List.length pairs);
  List.iter
    (fun (s, a, b) ->
      Printf.printf "  %s : %s vs %s\n"
        (p.model.V.Adt_model.show_state s)
        (p.model.V.Adt_model.show_op a)
        (p.model.V.Adt_model.show_op b))
    pairs;
  0

let do_derive (Packed p) =
  let ca = V.Synth.derive p.model in
  Printf.printf "derived %s: %d slots\n" ca.V.Ca_spec.name ca.V.Ca_spec.slots;
  match V.Ca_check.check p.model ca with
  | None ->
      print_endline "CERTIFIED by the Definition 3.1 checker";
      0
  | Some cex ->
      print_endline ("FAILED: " ^ V.Ca_check.show_counterexample p.model cex);
      1

let do_synth (Packed p) =
  let out = V.Synth.synthesize p.model p.candidates in
  Printf.printf "tried %d candidates, %d full checks, %d counterexamples\n"
    out.V.Synth.candidates_tried out.V.Synth.full_checks
    (List.length out.V.Synth.counterexamples);
  List.iter
    (fun cex ->
      print_endline ("  cex: " ^ V.Ca_check.show_counterexample p.model cex))
    out.V.Synth.counterexamples;
  match out.V.Synth.chosen with
  | Some ca ->
      print_endline ("SYNTHESIZED: " ^ ca.V.Ca_spec.name);
      0
  | None ->
      print_endline "NO SOUND CANDIDATE in the search space";
      1

open Cmdliner

let model_arg =
  Arg.(
    value & opt string "counter"
    & info [ "model" ] ~doc:"Model: counter, map, pqueue, queue")

let threshold_arg =
  Arg.(value & opt int 2 & info [ "threshold" ] ~doc:"Counter CA threshold")

let literal_arg =
  Arg.(
    value & flag
    & info [ "literal-figure3"; "broken" ]
        ~doc:"Use the known-broken variant of the abstraction")

let slots_arg = Arg.(value & opt int 4 & info [ "slots" ] ~doc:"CA slot count")

let stripes_arg =
  Arg.(value & opt int 2 & info [ "stripes" ] ~doc:"Group-element stripes")

let with_packed f model threshold literal slots stripes =
  exit (f (pack model ~threshold ~literal ~slots ~stripes))

let term f =
  Term.(
    const (with_packed f) $ model_arg $ threshold_arg $ literal_arg $ slots_arg
    $ stripes_arg)

let cmds =
  [
    Cmd.v (Cmd.info "check" ~doc:"Exhaustive Definition 3.1 check") (term do_check);
    Cmd.v (Cmd.info "sat" ~doc:"SAT-based check (Appendix E)") (term do_sat);
    Cmd.v (Cmd.info "pairs" ~doc:"List non-commuting operation pairs") (term do_pairs);
    Cmd.v (Cmd.info "synth" ~doc:"CEGIS search for a sound abstraction") (term do_synth);
    Cmd.v
      (Cmd.info "derive"
         ~doc:"Derive an abstraction automatically from commutativity conditions")
      (term do_derive);
  ]

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "proust_verify" ~doc:"Conflict-abstraction verification")
          cmds))
