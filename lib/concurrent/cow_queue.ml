type 'a snapshot = 'a Pqueue_fifo.t
type 'a t = 'a snapshot Atomic.t

module Snapshot = struct
  type 'a t = 'a snapshot

  let enqueue = Pqueue_fifo.enqueue

  let dequeue s =
    match Pqueue_fifo.dequeue s with
    | None -> (s, None)
    | Some (v, s') -> (s', Some v)

  let peek = Pqueue_fifo.peek
  let size = Pqueue_fifo.length
  let to_list = Pqueue_fifo.to_list
end

let create () = Atomic.make Pqueue_fifo.empty
let root t = t
let snapshot = Atomic.get
let enqueue t v = Root.update t (fun s -> (Snapshot.enqueue s v, ()))
let dequeue t = Root.update t Snapshot.dequeue
let peek t = Snapshot.peek (snapshot t)
let size t = Snapshot.size (snapshot t)
let is_empty t = size t = 0
let to_list t = Snapshot.to_list (snapshot t)
