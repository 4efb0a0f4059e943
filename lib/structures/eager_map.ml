(** Generic eager Proustian map (Figure 2a), parameterized by the
    thread-safe base map it wraps.  Operations run against the base
    immediately; each mutation registers an inverse built from its own
    return value, exactly as the Scala [TrieMap.put] does.

    [combine_undo] enables the §9 future-work extension of log
    combining to undo logs: instead of one inverse handler per
    operation, the wrapper keeps one entry per dirty key — the key's
    value when the transaction first touched it — and a single abort
    handler restores all of them.  An aborting transaction then pays
    per unique key instead of per operation.

    Soundness: with a pessimistic LAP this is transactional boosting
    (Theorem 5.1, opaque under any STM mode).  With an optimistic LAP
    the STM must detect conflicts on the conflict-abstraction slots at
    encounter time ([Eager_lazy] or [Eager_eager] modes) — otherwise
    two conflicting transactions can interleave base mutations before
    either aborts (Theorem 5.2, and the "empty quarter" of Figure 1). *)

(** Accessors onto a linearizable base map. *)
type ('k, 'v) base = {
  bget : 'k -> 'v option;
  bput : 'k -> 'v -> 'v option;
  bremove : 'k -> 'v option;
  bcontains : 'k -> bool;
}

type ('k, 'v) t = {
  name : string;
  base : ('k, 'v) base;
  alock : 'k Abstract_lock.t;
  csize : Committed_size.t;
  undo_key : ('k, 'v option) Hashtbl.t Stm.Local.key option;
      (** present when undo combining is on: first-observed value per
          dirty key, restored wholesale on abort *)
}

(* Put [k] back to [old], its binding before the transaction touched it. *)
let restore base k old =
  match old with
  | Some o -> ignore (base.bput k o)
  | None -> ignore (base.bremove k)

let make ~base ~lap ?(size_mode = `Counter) ?(combine_undo = false)
    ?(name = "eager-map") () =
  let undo_key =
    if not combine_undo then None
    else
      Some
        (Stm.Local.key (fun txn ->
             let firsts : ('k, 'v option) Hashtbl.t = Hashtbl.create 8 in
             Stm.on_abort txn (fun () ->
                 Hashtbl.iter (restore base) firsts);
             firsts))
  in
  {
    name;
    base;
    alock = Abstract_lock.make ~lap ~strategy:Update_strategy.Eager;
    csize = Committed_size.create size_mode;
    undo_key;
  }

(* Single-key operations acquire the key's abstract lock and run the
   base operation inline: no intent list, no operation closure.  Only
   the eager inverse is allocated, and only when there is something to
   undo. *)
let get t txn k =
  Abstract_lock.acquire_key t.alock txn k ~write:false;
  t.base.bget k

let contains t txn k =
  Abstract_lock.acquire_key t.alock txn k ~write:false;
  t.base.bcontains k

(* Register the undo of a mutation of [k] that found [old]: a
   per-operation inverse, or the key's first value in the combined undo
   table. *)
let record_undo t txn k old =
  match t.undo_key with
  | None -> Stm.on_abort txn (fun () -> restore t.base k old)
  | Some key ->
      let firsts = Stm.Local.get txn key in
      if not (Hashtbl.mem firsts k) then Hashtbl.add firsts k old

let put t txn k v =
  Abstract_lock.acquire_key t.alock txn k ~write:true;
  let old = t.base.bput k v in
  if old = None then Committed_size.add t.csize txn 1;
  record_undo t txn k old;
  old

let remove t txn k =
  Abstract_lock.acquire_key t.alock txn k ~write:true;
  let old = t.base.bremove k in
  (* A remove that found nothing changed nothing: no undo. *)
  if old <> None then begin
    Committed_size.add t.csize txn (-1);
    record_undo t txn k old
  end;
  old

let size t txn = Committed_size.read t.csize txn
let committed_size t = Committed_size.peek t.csize

let ops t : ('k, 'v) Trait.Map.ops =
  {
    meta = Trait.meta_of_alock ~name:t.name t.alock;
    get = get t;
    put = put t;
    remove = remove t;
    contains = contains t;
    size = size t;
  }
