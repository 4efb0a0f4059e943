(* A warehouse built from two Proustian objects — a stock-level map
   and the §3 counter of distinct SKUs — exercised identically under
   two design-space points:

     eager updates + pessimistic locks  (boosting's corner)
     lazy updates + optimistic locks    (predication's corner)

   The same application code runs against both; only the constructors
   change.  That is the paper's central usability claim.

   Run with: dune exec examples/inventory.exe *)

module S = Proust_structures

type shop = {
  stock : (string, int) S.Trait.Map.ops;
  distinct : S.P_counter.t;
  config : Stm.config option;
}

let eager_pessimistic () =
  {
    stock = S.P_hashmap.ops (S.P_hashmap.make ~lap:S.Trait.Pessimistic ());
    distinct = S.P_counter.make ~lap:S.Trait.Pessimistic ();
    config = None;
  }

let lazy_optimistic () =
  {
    stock = S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ());
    distinct = S.P_counter.make ~lap:S.Trait.Optimistic ();
    config =
      (* the eager counter needs encounter-time conflict detection *)
      Some { (Stm.get_default_config ()) with Stm.mode = Stm.Eager_lazy };
  }

let restock shop sku qty =
  Stm.atomically ?config:shop.config (fun txn ->
      let current =
        match shop.stock.S.Trait.Map.get txn sku with
        | Some n -> n
        | None ->
            (* a SKU's first restock binds it: count it once *)
            S.P_counter.incr shop.distinct txn;
            0
      in
      ignore (shop.stock.S.Trait.Map.put txn sku (current + qty)))

let sell shop sku qty =
  Stm.atomically ?config:shop.config (fun txn ->
      match shop.stock.S.Trait.Map.get txn sku with
      | Some n when n >= qty ->
          ignore (shop.stock.S.Trait.Map.put txn sku (n - qty));
          true
      | _ -> false)

let drive name shop =
  let skus = [| "lamp"; "chair"; "desk"; "rug" |] in
  let workers = 4 and rounds = 250 in
  let sold = Atomic.make 0 in
  let ds =
    List.init workers (fun w ->
        Domain.spawn (fun () ->
            let rng = Random.State.make [| w |] in
            for _ = 1 to rounds do
              let sku = skus.(Random.State.int rng (Array.length skus)) in
              if Random.State.bool rng then restock shop sku 3
              else if sell shop sku 2 then
                ignore (Atomic.fetch_and_add sold 2)
            done))
  in
  List.iter Domain.join ds;
  let in_stock, stocked =
    Stm.atomically ?config:shop.config (fun txn ->
        Array.fold_left
          (fun (units, bound) sku ->
            match shop.stock.S.Trait.Map.get txn sku with
            | Some n -> (units + n, bound + 1)
            | None -> (units, bound))
          (0, 0) skus)
  in
  let distinct = S.P_counter.peek shop.distinct in
  Printf.printf "%-20s distinct-skus=%d in-stock=%d sold=%d (%s)\n" name
    distinct in_stock (Atomic.get sold)
    (if distinct = stocked then "counted once each" else "MISCOUNTED (bug!)");
  distinct = stocked

let () =
  let ok_eager = drive "eager/pessimistic" (eager_pessimistic ()) in
  let ok_lazy = drive "lazy/optimistic" (lazy_optimistic ()) in
  exit (if ok_eager && ok_lazy then 0 else 1)
