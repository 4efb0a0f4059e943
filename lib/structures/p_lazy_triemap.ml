(** Lazy Proustian trie map with snapshot shadow copies — the paper's
    [LazyTrieMap] (Figure 2b): the first mutating operation snapshots
    the Ctrie in O(1); further operations run on the shadow; commit,
    behind the STM's locks, installs the shadow with one root CAS, or
    replays the log onto the shared Ctrie when a commuting transaction
    moved the root in between (log combining, §9 future work). *)

module Ctrie = Proust_concurrent.Ctrie

type ('k, 'v) t = {
  backing : ('k, 'v) Ctrie.t;
  alock : 'k Abstract_lock.t;
  csize : Committed_size.t;
  log_key : ('k, 'v) Ctrie.snapshot Replay_log.Snapshot.t Stm.Local.key;
}

let make ?(slots = 1024) ?(lap = Trait.Optimistic) ?(size_mode = `Counter) () =
  let backing = Ctrie.create () in
  let ca = Conflict_abstraction.striped ~slots () in
  let lap = Trait.make_lap lap ~ca in
  {
    backing;
    alock = Abstract_lock.make ~lap ~strategy:Update_strategy.Lazy;
    csize = Committed_size.create size_mode;
    log_key =
      Stm.Local.key
        (Replay_log.Snapshot.create ~root:(Ctrie.root backing));
  }

let log t txn = Stm.Local.get txn t.log_key

(* Single-key operations acquire the key's abstract lock and run
   against the snapshot log inline; the lazy strategy registers no
   inverse. *)
let get t txn k =
  Abstract_lock.acquire_key t.alock txn k ~write:false;
  Replay_log.Snapshot.read_only (log t txn)
    ~shadow:(fun s -> Ctrie.Snapshot.find s k)
    ~direct:(fun () -> Ctrie.get t.backing k)

let contains t txn k = get t txn k <> None

let put t txn k v =
  Abstract_lock.acquire_key t.alock txn k ~write:true;
  let old =
    Replay_log.Snapshot.update txn (log t txn) (fun s ->
        Ctrie.Snapshot.add s k v)
  in
  if old = None then Committed_size.add t.csize txn 1;
  old

let remove t txn k =
  Abstract_lock.acquire_key t.alock txn k ~write:true;
  let old =
    Replay_log.Snapshot.update txn (log t txn) (fun s ->
        Ctrie.Snapshot.remove s k)
  in
  if old <> None then Committed_size.add t.csize txn (-1);
  old

let size t txn = Committed_size.read t.csize txn
let committed_size t = Committed_size.peek t.csize

let ops t : ('k, 'v) Trait.Map.ops =
  {
    meta = Trait.meta_of_alock ~name:"p-lazy-triemap" t.alock;
    get = get t;
    put = put t;
    remove = remove t;
    contains = contains t;
    size = size t;
  }

let backing t = t.backing
