(** Generic lazy Proustian map with memoized shadow copies — the
    paper's [LazyHashMap] construction (§4).  Pending operations live
    in a per-transaction {!Replay_log.Memo}; return values come from
    the memo table backed by reads of the unmodified base; commit
    applies the log behind the STM's locks; abort just drops it, so no
    inverses are declared. *)

type ('k, 'v) t = {
  name : string;
  base : ('k, 'v) Eager_map.base;
  alock : 'k Abstract_lock.t;
  csize : Committed_size.t;
  mergeable : bool;
  log_key : ('k, 'v) Replay_log.Memo.t Stm.Local.key;
}

let make ~base ~lap ?(combine = true) ?(size_mode = `Counter)
    ?(name = "memo-map") () =
  let memo_base =
    {
      Replay_log.Memo.base_get = base.Eager_map.bget;
      base_put = (fun k v -> ignore (base.Eager_map.bput k v));
      base_remove = (fun k -> ignore (base.Eager_map.bremove k));
    }
  in
  (* Cross-transaction combining is only sound over the validated
     optimistic LAP: a deferred base flush stays invisible because
     every stripe the effect covers sits in the committer's read set
     and was published under the combiner's gate with a version no
     concurrent snapshot validates against.  Pessimistic locks release
     entry-by-entry with no commit-time validation, and the
     unvalidated optimistic LAP keeps write stripes out of the read
     set, so neither may defer. *)
  let shared =
    if
      combine
      && lap.Lock_allocator.kind = Lock_allocator.Optimistic
      && lap.Lock_allocator.name = "optimistic"
    then Some (Replay_log.Memo.make_shared ())
    else None
  in
  {
    name;
    base;
    alock = Abstract_lock.make ~lap ~strategy:Update_strategy.Lazy;
    csize = Committed_size.create size_mode;
    mergeable = Option.is_some shared;
    log_key =
      Stm.Local.key (Replay_log.Memo.create ~combine ?shared ~base:memo_base);
  }

let log t txn = Stm.Local.get txn t.log_key

(* Single-key operations acquire the key's abstract lock and run
   against the memo log inline (no intent list, no operation closure);
   the lazy strategy registers no inverse. *)
let get t txn k =
  Abstract_lock.acquire_key t.alock txn k ~write:false;
  Replay_log.Memo.get (log t txn) k

let contains t txn k = get t txn k <> None

let put t txn k v =
  Abstract_lock.acquire_key t.alock txn k ~write:true;
  let old = Replay_log.Memo.put (log t txn) txn k v in
  if old = None then Committed_size.add t.csize txn 1;
  old

let remove t txn k =
  Abstract_lock.acquire_key t.alock txn k ~write:true;
  let old = Replay_log.Memo.remove (log t txn) txn k in
  if old <> None then Committed_size.add t.csize txn (-1);
  old

let size t txn = Committed_size.read t.csize txn
let committed_size t = Committed_size.peek t.csize

let ops t : ('k, 'v) Trait.Map.ops =
  {
    meta = Trait.meta_of_alock ~mergeable:t.mergeable ~name:t.name t.alock;
    get = get t;
    put = put t;
    remove = remove t;
    contains = contains t;
    size = size t;
  }
