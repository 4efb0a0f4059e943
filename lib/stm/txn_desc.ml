type status = Active | Committed | Aborted

type t = {
  id : int;
  birth : int;
  status : status Atomic.t;
  mutable priority : int;
  irrevocable : bool;
  deadline_ns : int;
  mutable owner_word : t option;
}

let next_id = Atomic.make 1

let create ~priority ~irrevocable ~deadline_ns ~birth =
  let d =
    {
      id = Atomic.fetch_and_add next_id 1;
      birth;
      status = Atomic.make Active;
      priority;
      irrevocable;
      deadline_ns;
      owner_word = None;
    }
  in
  (* Tied after construction: a [let rec] record would be built through
     a dummy block and copied, costing a second record per attempt. *)
  d.owner_word <- Some d;
  d

let is_active t = Atomic.get t.status = Active
let is_committed t = Atomic.get t.status = Committed
let is_aborted t = Atomic.get t.status = Aborted
let try_commit t = Atomic.compare_and_set t.status Active Committed
let try_abort t = Atomic.compare_and_set t.status Active Aborted
let try_kill t = (not t.irrevocable) && try_abort t
let earn t n = t.priority <- t.priority + n

let pp fmt t =
  let st =
    match Atomic.get t.status with
    | Active -> "active"
    | Committed -> "committed"
    | Aborted -> "aborted"
  in
  Format.fprintf fmt "txn#%d[%s,birth=%d,prio=%d]" t.id st t.birth t.priority
