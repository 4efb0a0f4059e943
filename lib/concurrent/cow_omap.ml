type ('k, 'v) snapshot = {
  tree : ('k, 'v) Avl.t;
  count : int;
  compare : 'k -> 'k -> int;
}

type ('k, 'v) t = { root : ('k, 'v) snapshot Atomic.t }

let create ?(compare = Stdlib.compare) () =
  { root = Atomic.make { tree = Avl.empty; count = 0; compare } }

module Snapshot = struct
  type ('k, 'v) t = ('k, 'v) snapshot

  let find s k = Avl.find ~compare:s.compare k s.tree

  let add s k v =
    let tree, old = Avl.add ~compare:s.compare k v s.tree in
    let count = if old = None then s.count + 1 else s.count in
    ({ s with tree; count }, old)

  let remove s k =
    let tree, old = Avl.remove ~compare:s.compare k s.tree in
    let count = if old = None then s.count else s.count - 1 in
    ({ s with tree; count }, old)

  let min_binding s = Avl.min_binding s.tree
  let max_binding s = Avl.max_binding s.tree
  let range s ~lo ~hi = Avl.range ~compare:s.compare ~lo ~hi s.tree
  let size s = s.count
  let bindings s = Avl.bindings s.tree
end

let snapshot t = Atomic.get t.root
let commit t ~expected ~desired = Atomic.compare_and_set t.root expected desired
let get t k = Snapshot.find (snapshot t) k
let contains t k = get t k <> None

let rec put t k v =
  let s = snapshot t in
  let s', old = Snapshot.add s k v in
  if commit t ~expected:s ~desired:s' then old else put t k v

let rec remove t k =
  let s = snapshot t in
  match Snapshot.remove s k with
  | _, None -> None
  | s', old -> if commit t ~expected:s ~desired:s' then old else remove t k

let min_binding t = Snapshot.min_binding (snapshot t)
let max_binding t = Snapshot.max_binding (snapshot t)
let range t ~lo ~hi = Snapshot.range (snapshot t) ~lo ~hi
let size t = Snapshot.size (snapshot t)
let is_empty t = size t = 0
let bindings t = Snapshot.bindings (snapshot t)
