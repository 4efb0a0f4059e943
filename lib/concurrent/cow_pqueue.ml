type 'a snapshot = { heap : 'a Pheap.t; count : int; cmp : 'a -> 'a -> int }
type 'a t = 'a snapshot Atomic.t

module Snapshot = struct
  type 'a t = 'a snapshot

  let peek s = Pheap.find_min s.heap

  let poll s =
    match Pheap.delete_min ~cmp:s.cmp s.heap with
    | None -> (s, None)
    | Some (x, heap) -> ({ s with heap; count = s.count - 1 }, Some x)

  let add s x =
    { s with heap = Pheap.insert ~cmp:s.cmp x s.heap; count = s.count + 1 }

  let remove s x =
    let heap, removed = Pheap.remove ~cmp:s.cmp x s.heap in
    if removed then ({ s with heap; count = s.count - 1 }, true) else (s, false)

  let contains s x = Pheap.mem ~cmp:s.cmp x s.heap
  let size s = s.count
  let to_sorted_list s = Pheap.to_sorted_list ~cmp:s.cmp s.heap
end

let create ~cmp () = Atomic.make { heap = Pheap.empty; count = 0; cmp }
let root t = t
let snapshot = Atomic.get
let add t x = Root.update t (fun s -> (Snapshot.add s x, ()))
let peek t = Snapshot.peek (snapshot t)
let poll t = Root.update t Snapshot.poll
let remove t x = Root.update t (fun s -> Snapshot.remove s x)
let contains t x = Snapshot.contains (snapshot t) x
let size t = Snapshot.size (snapshot t)
let is_empty t = size t = 0
