(** Proustian ordered map with range queries, over the snapshot-able
    {!Cow_omap} — a structure predication cannot express (§1: Proust
    "supports objects of arbitrary abstract type, not just sets and
    maps").

    The abstract state is the key space cut into [slots] contiguous
    bands by a monotone [index] function.  A point operation touches
    its key's band; a range operation touches every band intersecting
    the range; [min]/[max] observations touch the outermost occupied
    end, conservatively approximated by the full span.  Both the eager
    and lazy (snapshot-replay) update strategies are provided, chosen
    by [strategy]. *)

module Om = Proust_concurrent.Cow_omap

(** Abstract-state elements: one band of the key space, or a span. *)
type 'k element = Point of 'k | Span of 'k * 'k | Everything

type ('k, 'v) t = {
  base : ('k, 'v) Om.t;
  alock : 'k element Abstract_lock.t;
  csize : Committed_size.t;
  strategy : Update_strategy.t;
  log_key : ('k, 'v) Om.snapshot Replay_log.Snapshot.t Stm.Local.key;
}

let band_ca ~slots ~index : 'k element Conflict_abstraction.t =
  let clamp i = max 0 (min (slots - 1) i) in
  Conflict_abstraction.exact ~slots (fun ~stripe:_ intent ->
      let write = Intent.is_write intent in
      let slots_of = function
        | Point k -> [ clamp (index k) ]
        | Span (lo, hi) ->
            let a = clamp (index lo) and b = clamp (index hi) in
            List.init (max 0 (b - a) + 1) (fun i -> a + i)
        | Everything -> List.init slots Fun.id
      in
      List.map
        (fun slot -> { Conflict_abstraction.slot; write })
        (slots_of (Intent.key intent)))

let make ?(slots = 64) ?(lap = Trait.Optimistic)
    ?(strategy = Update_strategy.Lazy) ?(size_mode = `Counter) ~index () =
  let base = Om.create () in
  {
    base;
    alock =
      Abstract_lock.make
        ~lap:(Trait.make_lap lap ~ca:(band_ca ~slots ~index))
        ~strategy;
    csize = Committed_size.create size_mode;
    strategy;
    log_key =
      Stm.Local.key
        (Replay_log.Snapshot.create ~root:(Om.root base));
  }

let log t txn = Stm.Local.get txn t.log_key

let read_shadow t txn ~shadow ~direct =
  match t.strategy with
  | Update_strategy.Eager -> direct ()
  | Update_strategy.Lazy ->
      Replay_log.Snapshot.read_only (log t txn) ~shadow ~direct

let get t txn k =
  Abstract_lock.apply t.alock txn
    [ Intent.Read (Point k) ]
    (fun () ->
      read_shadow t txn
        ~shadow:(fun s -> Om.Snapshot.find s k)
        ~direct:(fun () -> Om.get t.base k))

let contains t txn k = get t txn k <> None

let put t txn k v =
  Abstract_lock.apply t.alock txn
    [ Intent.Write (Point k) ]
    ~inverse:(fun old ->
      match old with
      | Some o -> ignore (Om.put t.base k o)
      | None -> ignore (Om.remove t.base k))
    (fun () ->
      let old =
        match t.strategy with
        | Update_strategy.Eager -> Om.put t.base k v
        | Update_strategy.Lazy ->
            Replay_log.Snapshot.update txn (log t txn) (fun s ->
                Om.Snapshot.add s k v)
      in
      if old = None then Committed_size.add t.csize txn 1;
      old)

let remove t txn k =
  Abstract_lock.apply t.alock txn
    [ Intent.Write (Point k) ]
    ~inverse:(fun old -> Option.iter (fun o -> ignore (Om.put t.base k o)) old)
    (fun () ->
      let old =
        match t.strategy with
        | Update_strategy.Eager -> Om.remove t.base k
        | Update_strategy.Lazy ->
            Replay_log.Snapshot.update txn (log t txn) (fun s ->
                Om.Snapshot.remove s k)
      in
      if old <> None then Committed_size.add t.csize txn (-1);
      old)

(** [range t txn ~lo ~hi] — ascending bindings with [lo <= k <= hi];
    conflicts exactly with updates to keys in intersecting bands. *)
let range t txn ~lo ~hi =
  Abstract_lock.apply t.alock txn
    [ Intent.Read (Span (lo, hi)) ]
    (fun () ->
      read_shadow t txn
        ~shadow:(fun s -> Om.Snapshot.range s ~lo ~hi)
        ~direct:(fun () -> Om.range t.base ~lo ~hi))

let min_binding t txn =
  Abstract_lock.apply t.alock txn
    [ Intent.Read Everything ]
    (fun () ->
      read_shadow t txn ~shadow:Om.Snapshot.min_binding ~direct:(fun () ->
          Om.min_binding t.base))

let max_binding t txn =
  Abstract_lock.apply t.alock txn
    [ Intent.Read Everything ]
    (fun () ->
      read_shadow t txn ~shadow:Om.Snapshot.max_binding ~direct:(fun () ->
          Om.max_binding t.base))

let size t txn = Committed_size.read t.csize txn
let committed_size t = Committed_size.peek t.csize

(** Committed bindings, non-transactionally (tests). *)
let bindings t = Om.bindings t.base

let map_ops t : ('k, 'v) Trait.Map.ops =
  {
    meta = Trait.meta_of_alock ~name:"p-omap" t.alock;
    get = get t;
    put = put t;
    remove = remove t;
    contains = contains t;
    size = size t;
  }
