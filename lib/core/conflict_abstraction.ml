type access = { slot : int; write : bool }

type 'k t = {
  slots : int;
  slot_of : ('k -> int) option;
  accesses : stripe:int -> 'k Intent.t -> access list;
}

(* A per-key abstraction's list form is derived from its [slot_of], so
   the two cannot disagree. *)
let per_key ~slots slot_of =
  {
    slots;
    slot_of = Some slot_of;
    accesses =
      (fun ~stripe:_ intent ->
        let slot = slot_of (Intent.key intent) in
        [ { slot; write = Intent.is_write intent } ]);
  }

let striped ?(slots = 1024) ?(hash = Hashtbl.hash) () =
  per_key ~slots (fun k -> hash k land max_int mod slots)

let indexed ~slots ~index =
  per_key ~slots (fun k ->
      let slot = index k in
      if slot < 0 || slot >= slots then
        invalid_arg "Conflict_abstraction.indexed: slot out of range";
      slot)

let exact ~slots accesses = { slots; slot_of = None; accesses }

let group_accesses ~width ~base ~stripe intent =
  if Intent.is_write intent then
    [ { slot = base + (abs stripe mod width); write = true } ]
  else List.init width (fun i -> { slot = base + i; write = false })

let merge accesses =
  let strongest = Hashtbl.create 8 in
  List.iter
    (fun a ->
      match Hashtbl.find_opt strongest a.slot with
      | Some true -> ()
      | Some false -> if a.write then Hashtbl.replace strongest a.slot true
      | None -> Hashtbl.replace strongest a.slot a.write)
    accesses;
  Hashtbl.fold (fun slot write acc -> { slot; write } :: acc) strongest []
  |> List.sort (fun a b -> compare a.slot b.slot)

(* One intent naming at most one slot (every map get/put/remove) is
   already de-duplicated and ordered, so it skips the table and sort. *)
let accesses_for t ~stripe intents =
  match intents with
  | [ intent ] -> (
      match t.accesses ~stripe intent with
      | ([] | [ _ ]) as accesses -> accesses
      | accesses -> merge accesses)
  | _ -> merge (List.concat_map (t.accesses ~stripe) intents)
