type 'a t = { top : 'a list Atomic.t; count : Striped_counter.t }

let create () = { top = Atomic.make []; count = Striped_counter.create () }

let push t v =
  Root.update t.top (fun cur -> (v :: cur, ()));
  Striped_counter.incr t.count

let pop t =
  let popped =
    Root.update t.top (function [] -> ([], None) | v :: rest -> (rest, Some v))
  in
  if Option.is_some popped then Striped_counter.decr t.count;
  popped

let peek t = match Atomic.get t.top with [] -> None | v :: _ -> Some v
let size t = Striped_counter.get t.count
let is_empty t = Atomic.get t.top = []
let to_list t = Atomic.get t.top
