(** Snapshot ordered map: the whole persistent B+-tree
    ({!Proust_concurrent.Cow_omap.Snapshot}) behind a single tvar.
    Point ops functionally update the root; [range] reads the root
    once, so a scan of any width costs one read-set entry and is
    consistent by construction.

    The design point this occupies: writers serialize on the root (the
    opposite trade from a per-key conflict abstraction), but
    under [Multi_version] a {!Stm.read_only} transaction scans an
    entire table — range after range — abort-free against any writer
    load, because the root tvar's version chain hands it the committed
    snapshot at its start time.  That is the open-system brownout
    story: read-dominated tenants get routed here at zero abort cost. *)

module Om = Proust_concurrent.Cow_omap

type ('k, 'v) t = { root : ('k, 'v) Om.snapshot Tvar.t }

let make ?compare () =
  { root = Tvar.make (Om.empty ?compare ()) }

let get t txn k = Om.Snapshot.find (Stm.read txn t.root) k
let contains t txn k = Om.Snapshot.find (Stm.read txn t.root) k <> None

let put t txn k v =
  let s, old = Om.Snapshot.add (Stm.read txn t.root) k v in
  Stm.write txn t.root s;
  old

let remove t txn k =
  let s, old = Om.Snapshot.remove (Stm.read txn t.root) k in
  if old <> None then Stm.write txn t.root s;
  old

let size t txn = Om.Snapshot.size (Stm.read txn t.root)

(** Ascending bindings with [lo <= k <= hi]; one root read, so the
    result is a consistent snapshot regardless of mode. *)
let range t txn ~lo ~hi = Om.Snapshot.range (Stm.read txn t.root) ~lo ~hi

let min_binding t txn = Om.Snapshot.min_binding (Stm.read txn t.root)
let max_binding t txn = Om.Snapshot.max_binding (Stm.read txn t.root)
let bindings t txn = Om.Snapshot.bindings (Stm.read txn t.root)

let map_ops t : ('k, 'v) Trait.Map.ops =
  {
    meta = Trait.meta ~name:"omap-snap" ~strategy:Update_strategy.Lazy ();
    get = get t;
    put = put t;
    remove = remove t;
    contains = contains t;
    size = size t;
  }
