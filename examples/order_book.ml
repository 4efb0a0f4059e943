(* A miniature limit-order book built from three Proustian objects:
   two priority queues (bids: highest price first; asks: lowest price
   first) and an ordered map of executed trades keyed by sequence
   number, supporting range scans over recent history.

   Matching is a single transaction: pop the best bid and best ask,
   and either execute (recording the trade) or put both back — so no
   observer ever sees a half-matched book.

   Run with: dune exec examples/order_book.exe *)

module S = Proust_structures

type order = { price : int; id : int }

let () =
  (* bids: max-heap via inverted comparison *)
  let bids =
    S.P_lazy_pqueue.make ~cmp:(fun a b -> compare (b.price, b.id) (a.price, a.id)) ()
  in
  let asks =
    S.P_lazy_pqueue.make ~cmp:(fun a b -> compare (a.price, a.id) (b.price, b.id)) ()
  in
  let trades : (int, int) S.P_snap_omap.t =
    (* trade sequence number -> execution price; appends already
       serialize on [trade_seq], so one snapshot root costs nothing *)
    S.P_snap_omap.make ()
  in
  let trade_seq = Tvar.make 0 in

  let submit side price id =
    Stm.atomically (fun txn ->
        match side with
        | `Bid -> S.P_lazy_pqueue.insert bids txn { price; id }
        | `Ask -> S.P_lazy_pqueue.insert asks txn { price; id })
  in

  (* Try to cross the book once; true if a trade executed. *)
  let match_once () =
    Stm.atomically (fun txn ->
        match
          (S.P_lazy_pqueue.min bids txn, S.P_lazy_pqueue.min asks txn)
        with
        | Some bid, Some ask when bid.price >= ask.price ->
            ignore (S.P_lazy_pqueue.remove_min bids txn);
            ignore (S.P_lazy_pqueue.remove_min asks txn);
            let seq = Stm.read txn trade_seq in
            Stm.write txn trade_seq (seq + 1);
            ignore
              (S.P_snap_omap.put trades txn seq ((bid.price + ask.price) / 2));
            true
        | _ -> false)
  in

  let traders = 3 and orders_each = 120 in
  let ds =
    List.init traders (fun t ->
        Domain.spawn (fun () ->
            let rng = Random.State.make [| t |] in
            for i = 0 to orders_each - 1 do
              let id = (t * orders_each) + i in
              let price = 95 + Random.State.int rng 11 in
              submit (if Random.State.bool rng then `Bid else `Ask) price id;
              (* opportunistic matching by every trader *)
              ignore (match_once ())
            done))
  in
  List.iter Domain.join ds;
  (* drain remaining crosses *)
  while match_once () do
    ()
  done;

  let executed = Tvar.peek trade_seq in
  let resting =
    Stm.atomically (fun txn ->
        (S.P_lazy_pqueue.size bids txn, S.P_lazy_pqueue.size asks txn))
  in
  let total_orders = traders * orders_each in
  let accounted = (2 * executed) + fst resting + snd resting in
  Printf.printf "orders=%d trades=%d resting=(%d bids, %d asks) -> %s\n"
    total_orders executed (fst resting) (snd resting)
    (if accounted = total_orders then "BALANCED" else "IMBALANCED (bug!)");

  (* Range-scan the last few trades from the ordered map. *)
  let recent =
    Stm.atomically (fun txn ->
        S.P_snap_omap.range trades txn ~lo:(max 0 (executed - 5)) ~hi:executed)
  in
  Printf.printf "last trades: %s\n"
    (String.concat ", "
       (List.map (fun (seq, px) -> Printf.sprintf "#%d@%d" seq px) recent));
  (* Book never crossed at rest: best bid < best ask. *)
  (match
     Stm.atomically (fun txn ->
         (S.P_lazy_pqueue.min bids txn, S.P_lazy_pqueue.min asks txn))
   with
  | Some bid, Some ask ->
      Printf.printf "resting spread: bid %d / ask %d (%s)\n" bid.price
        ask.price
        (if bid.price < ask.price then "uncrossed" else "CROSSED (bug!)")
  | _ -> print_endline "book empty on one side");
  exit (if accounted = total_orders then 0 else 1)
