type ('k, 'v) snapshot = {
  map : ('k, 'v) Hamt.t;
  count : int;
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
}

type ('k, 'v) t = ('k, 'v) snapshot Atomic.t

let create ?(hash = Hashtbl.hash) ?(equal = fun a b -> a = b) () =
  Atomic.make { map = Hamt.empty; count = 0; hash; equal }

module Snapshot = struct
  type ('k, 'v) t = ('k, 'v) snapshot

  let find s k = Hamt.find ~hash:s.hash ~equal:s.equal k s.map
  let mem s k = find s k <> None
  let size s = s.count

  let add s k v =
    let map, old = Hamt.add ~hash:s.hash ~equal:s.equal k v s.map in
    let count = if old = None then s.count + 1 else s.count in
    ({ s with map; count }, old)

  let put_if_absent s k v =
    match find s k with Some _ as old -> (s, old) | None -> add s k v

  let remove s k =
    match Hamt.remove ~hash:s.hash ~equal:s.equal k s.map with
    | _, None -> (s, None)
    | map, old -> ({ s with map; count = s.count - 1 }, old)

  let iter f s = Hamt.iter f s.map
  let fold f s init = Hamt.fold f s.map init
  let bindings s = Hamt.bindings s.map
end

let root t = t
let snapshot = Atomic.get
let get t k = Snapshot.find (snapshot t) k
let contains t k = get t k <> None
let size t = Snapshot.size (snapshot t)
let is_empty t = size t = 0
let put t k v = Root.update t (fun s -> Snapshot.add s k v)
let put_if_absent t k v = Root.update t (fun s -> Snapshot.put_if_absent s k v)
let remove t k = Root.update t (fun s -> Snapshot.remove s k)
let iter f t = Snapshot.iter f (snapshot t)
let fold f t init = Snapshot.fold f (snapshot t) init
let bindings t = Snapshot.bindings (snapshot t)
