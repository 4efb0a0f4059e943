(** Generic eager Proustian map (Figure 2a), parameterized by the
    thread-safe base map it wraps.  Operations run against the base
    immediately; each mutation registers an inverse built from its own
    return value, exactly as the Scala [TrieMap.put] does.

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
}

(* Put [k] back to [old], its binding before the transaction touched it. *)
let restore base k old =
  match old with
  | Some o -> ignore (base.bput k o)
  | None -> ignore (base.bremove k)

let make ~base ~lap ?(size_mode = `Counter) ?(name = "eager-map") () =
  {
    name;
    base;
    alock = Abstract_lock.make ~lap ~strategy:Update_strategy.Eager;
    csize = Committed_size.create size_mode;
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

let put t txn k v =
  Abstract_lock.acquire_key t.alock txn k ~write:true;
  let old = t.base.bput k v in
  if old = None then Committed_size.add t.csize txn 1;
  Stm.on_abort txn (fun () -> restore t.base k old);
  old

let remove t txn k =
  Abstract_lock.acquire_key t.alock txn k ~write:true;
  let old = t.base.bremove k in
  (* A remove that found nothing changed nothing: no undo. *)
  if old <> None then begin
    Committed_size.add t.csize txn (-1);
    Stm.on_abort txn (fun () -> restore t.base k old)
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
