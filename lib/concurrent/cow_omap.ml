type ('k, 'v) snapshot = {
  tree : ('k, 'v) Avl.t;
  count : int;
  compare : 'k -> 'k -> int;
}

type ('k, 'v) t = ('k, 'v) snapshot Atomic.t

let create ?(compare = Stdlib.compare) () =
  Atomic.make { tree = Avl.empty; count = 0; compare }

module Snapshot = struct
  type ('k, 'v) t = ('k, 'v) snapshot

  let find s k = Avl.find ~compare:s.compare k s.tree

  let add s k v =
    let tree, old = Avl.add ~compare:s.compare k v s.tree in
    let count = if old = None then s.count + 1 else s.count in
    ({ s with tree; count }, old)

  let remove s k =
    match Avl.remove ~compare:s.compare k s.tree with
    | _, None -> (s, None)
    | tree, old -> ({ s with tree; count = s.count - 1 }, old)

  let min_binding s = Avl.min_binding s.tree
  let max_binding s = Avl.max_binding s.tree
  let range s ~lo ~hi = Avl.range ~compare:s.compare ~lo ~hi s.tree
  let size s = s.count
  let bindings s = Avl.bindings s.tree
end

let snapshot = Atomic.get
let get t k = Snapshot.find (snapshot t) k
let contains t k = get t k <> None
let put t k v = Root.update t (fun s -> Snapshot.add s k v)
let remove t k = Root.update t (fun s -> Snapshot.remove s k)
let min_binding t = Snapshot.min_binding (snapshot t)
let range t ~lo ~hi = Snapshot.range (snapshot t) ~lo ~hi
let size t = Snapshot.size (snapshot t)
let is_empty t = size t = 0
