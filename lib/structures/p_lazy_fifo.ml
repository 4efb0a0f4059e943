(** Lazy Proustian FIFO queue over the copy-on-write {!Cow_queue}:
    snapshot shadow copies committed by root CAS, optional session
    merging ([combine]).  Same conflict abstraction as {!P_fifo}. *)

module Cq = Proust_concurrent.Cow_queue
open Trait.Queue

type 'v t = {
  base : 'v Cq.t;
  alock : state Abstract_lock.t;
  csize : Committed_size.t;
  mergeable : bool;
  log_key : 'v Cq.snapshot Replay_log.Snapshot.t Stm.Local.key;
}

let make ?(lap = Trait.Optimistic) ?(size_mode = `Counter)
    ?(combine = false) () =
  let base = Cq.create () in
  (* Cross-transaction merging needs the validated optimistic LAP —
     see {!Memo_map.make} for the soundness argument. *)
  let shared =
    if combine && lap = Trait.Optimistic then
      Some (Replay_log.Snapshot.make_shared ())
    else None
  in
  {
    base;
    alock =
      Abstract_lock.make ~lap:(Trait.make_lap lap ~ca:(ca ()))
        ~strategy:Update_strategy.Lazy;
    csize = Committed_size.create size_mode;
    mergeable = Option.is_some shared;
    log_key =
      Stm.Local.key
        (Replay_log.Snapshot.create ~root:(Cq.root base) ?shared);
  }

let log t txn = Stm.Local.get txn t.log_key

let shadow_size t txn =
  Replay_log.Snapshot.read_only (log t txn) ~shadow:Cq.Snapshot.size
    ~direct:(fun () -> Cq.size t.base)

let enqueue t txn v =
  Abstract_lock.acquire_stable t.alock txn (fun () ->
      Intent.Write Tail
      :: (if shadow_size t txn = 0 then [ Intent.Write Head ] else []));
  Abstract_lock.apply t.alock txn [] (fun () ->
      Replay_log.Snapshot.update txn (log t txn) ~merge:true (fun s ->
          (Cq.Snapshot.enqueue s v, ()));
      Committed_size.add t.csize txn 1)

let dequeue t txn =
  Abstract_lock.acquire_stable t.alock txn (fun () ->
      Intent.Write Head
      :: (if shadow_size t txn <= 1 then [ Intent.Write Tail ] else []));
  Abstract_lock.apply t.alock txn [] (fun () ->
      let empty = shadow_size t txn = 0 in
      if empty then None
      else
        let popped =
          Replay_log.Snapshot.update txn (log t txn) Cq.Snapshot.dequeue
        in
        if popped <> None then Committed_size.add t.csize txn (-1);
        popped)

let front t txn =
  Abstract_lock.apply t.alock txn [ Intent.Read Head ] (fun () ->
      Replay_log.Snapshot.read_only (log t txn) ~shadow:Cq.Snapshot.peek
        ~direct:(fun () -> Cq.peek t.base))

let size t txn = Committed_size.read t.csize txn
let committed_size t = Committed_size.peek t.csize
let to_list t = Cq.to_list t.base

let ops t : 'v Trait.Queue.ops =
  {
    meta = Trait.meta_of_alock ~mergeable:t.mergeable ~name:"p-lazy-fifo" t.alock;
    enqueue = enqueue t;
    dequeue = dequeue t;
    front = front t;
    size = size t;
  }
