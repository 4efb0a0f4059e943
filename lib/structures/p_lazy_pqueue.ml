(** Lazy Proustian priority queue over the copy-on-write
    {!Cow_pqueue} — the paper's [LazyPriorityQueue] (§4).

    The first mutating operation snapshots the persistent heap in O(1);
    later operations run on the shadow; commit installs it with one
    root CAS (replaying if a commuting commit moved the root).  A
    [remove_min] that finds the shadow empty registers no replay —
    emptiness is an observation, protected by the [Write Min]
    conflict-abstraction access. *)

module Cq = Proust_concurrent.Cow_pqueue
open Trait.Pqueue

type 'v t = {
  base : 'v Cq.t;
  alock : state Abstract_lock.t;
  csize : Committed_size.t;
  cmp : 'v -> 'v -> int;
  mergeable : bool;
  log_key : 'v Cq.snapshot Replay_log.Snapshot.t Stm.Local.key;
}

let make ~cmp ?(stripes = 8) ?(lap = Trait.Optimistic)
    ?(size_mode = `Counter) ?(combine = false) () =
  let base = Cq.create ~cmp () in
  (* Cross-transaction merging needs the validated optimistic LAP —
     see {!Memo_map.make} for the soundness argument.  The striped
     [Multiset] band makes this the paying case: inserts from distinct
     transactions commute, so a write-heavy batch can merge several
     insert-only entries into one heap CAS. *)
  let shared =
    if combine && lap = Trait.Optimistic then
      Some (Replay_log.Snapshot.make_shared ())
    else None
  in
  {
    base;
    alock =
      Abstract_lock.make
        ~lap:(Trait.make_lap lap ~ca:(ca ~stripes))
        ~strategy:Update_strategy.Lazy;
    csize = Committed_size.create size_mode;
    cmp;
    mergeable = Option.is_some shared;
    log_key =
      Stm.Local.key
        (Replay_log.Snapshot.create ~root:(Cq.root base) ?shared);
  }

let log t txn = Stm.Local.get txn t.log_key

let min t txn =
  Abstract_lock.apply t.alock txn [ Intent.Read Min ] (fun () ->
      Replay_log.Snapshot.read_only (log t txn) ~shadow:Cq.Snapshot.peek
        ~direct:(fun () -> Cq.peek t.base))

let insert t txn v =
  let min_intent =
    match min t txn with
    | Some cur when t.cmp v cur < 0 -> Intent.Write Min
    | Some _ -> Intent.Read Min
    | None -> Intent.Write Min  (* new minimum; see P_pqueue.insert *)
  in
  Abstract_lock.apply t.alock txn
    [ Intent.Write Multiset; min_intent ]
    (fun () ->
      Replay_log.Snapshot.update txn (log t txn) ~merge:true (fun s ->
          (Cq.Snapshot.add s v, ()));
      Committed_size.add t.csize txn 1)

let remove_min t txn =
  Abstract_lock.apply t.alock txn
    [ Intent.Write Min; Intent.Write Multiset ]
    (fun () ->
      let shadow_min =
        Replay_log.Snapshot.read_only (log t txn) ~shadow:Cq.Snapshot.peek
          ~direct:(fun () -> Cq.peek t.base)
      in
      match shadow_min with
      | None -> None
      | Some _ ->
          let popped =
            Replay_log.Snapshot.update txn (log t txn) Cq.Snapshot.poll
          in
          if popped <> None then Committed_size.add t.csize txn (-1);
          popped)

let contains t txn v =
  Abstract_lock.apply t.alock txn [ Intent.Read Multiset ] (fun () ->
      Replay_log.Snapshot.read_only (log t txn)
        ~shadow:(fun s -> Cq.Snapshot.contains s v)
        ~direct:(fun () -> Cq.contains t.base v))

let size t txn = Committed_size.read t.csize txn
let committed_size t = Committed_size.peek t.csize

let ops t : 'v Trait.Pqueue.ops =
  {
    meta =
      Trait.meta_of_alock ~mergeable:t.mergeable ~name:"p-lazy-pqueue" t.alock;
    insert = insert t;
    remove_min = remove_min t;
    min = min t;
    contains = contains t;
    size = size t;
  }
