type access = { slot : int; write : bool }

type 'k t = {
  slots : int;
  accesses : stripe:int -> 'k Intent.t -> access list;
}

let striped ?(slots = 1024) ?(hash = Hashtbl.hash) () =
  {
    slots;
    accesses =
      (fun ~stripe:_ intent ->
        let slot = hash (Intent.key intent) land max_int mod slots in
        [ { slot; write = Intent.is_write intent } ]);
  }

let indexed ~slots ~index =
  {
    slots;
    accesses =
      (fun ~stripe:_ intent ->
        let slot = index (Intent.key intent) in
        if slot < 0 || slot >= slots then
          invalid_arg "Conflict_abstraction.indexed: slot out of range";
        [ { slot; write = Intent.is_write intent } ]);
  }

let exact ~slots accesses = { slots; accesses }

let coarse () =
  {
    slots = 1;
    accesses =
      (fun ~stripe:_ intent -> [ { slot = 0; write = Intent.is_write intent } ]);
  }

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
