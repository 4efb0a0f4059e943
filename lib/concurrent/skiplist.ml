type 'k bound = Min | Key of 'k | Max

type ('k, 'v) node = {
  key : 'k bound;
  mutable value : 'v option;  (* None only transiently meaningless; sentinels hold None *)
  next : ('k, 'v) node option array;
  lock : Mutex.t;
  mutable marked : bool;
  mutable fully_linked : bool;
  top_level : int;  (* highest valid index into [next] *)
}

type ('k, 'v) t = {
  head : ('k, 'v) node;
  compare : 'k -> 'k -> int;
  max_level : int;
  count : Striped_counter.t;
  seed : int Atomic.t;
}

let make_node ~key ~value ~top_level ~levels =
  {
    key;
    value;
    next = Array.make levels None;
    lock = Mutex.create ();
    marked = false;
    fully_linked = false;
    top_level;
  }

let create ?(compare = Stdlib.compare) ?(max_level = 16) () =
  let tail = make_node ~key:Max ~value:None ~top_level:(max_level - 1) ~levels:max_level in
  tail.fully_linked <- true;
  let head = make_node ~key:Min ~value:None ~top_level:(max_level - 1) ~levels:max_level in
  Array.fill head.next 0 max_level (Some tail);
  head.fully_linked <- true;
  {
    head;
    compare;
    max_level;
    count = Striped_counter.create ();
    seed = Atomic.make 0x1e3779b97f4a7c15;
  }

let cmp_bound t b k =
  match b with Min -> -1 | Max -> 1 | Key k' -> t.compare k' k

(* Geometric random level from a splitmix-style step on a shared seed. *)
let random_level t =
  let s = Atomic.fetch_and_add t.seed 0x232be59bd9b4e019 in
  let z = s lxor (s lsr 30) in
  let z = z * 0x3f58476d1ce4e5b in
  let z = z lxor (z lsr 27) in
  let rec go lvl bits =
    if lvl >= t.max_level - 1 || bits land 1 = 0 then lvl
    else go (lvl + 1) (bits lsr 1)
  in
  go 0 (z land max_int)

(* Wait-free tower descent towards the first key where [below] fails:
   returns the last node whose key satisfies [below] and its level-0
   successor, adjacent at traversal time.  [visit] sees that pair at
   every level.  No locks; callers read the mark at the end. *)
let descend ?(visit = fun _ _ _ -> ()) t below =
  let pred = ref t.head in
  let succ = ref t.head in
  for level = t.max_level - 1 downto 0 do
    let curr = ref (Option.get !pred.next.(level)) in
    while below !curr.key do
      pred := !curr;
      curr := Option.get !curr.next.(level)
    done;
    visit level !pred !curr;
    succ := !curr
  done;
  (!pred, !succ)

(* Fill preds/succs for [k]; returns the level at which a node with key
   [k] was found, or -1. *)
let find t k preds succs =
  let found = ref (-1) in
  ignore
    (descend t
       (fun b -> cmp_bound t b k < 0)
       ~visit:(fun level pred curr ->
         if !found = -1 && cmp_bound t curr.key k = 0 then found := level;
         preds.(level) <- pred;
         succs.(level) <- curr));
  !found

let with_locks nodes f =
  (* Lock an already-deduplicated, order-stable list of nodes. *)
  List.iter (fun n -> Mutex.lock n.lock) nodes;
  Fun.protect
    ~finally:(fun () -> List.iter (fun n -> Mutex.unlock n.lock) nodes)
    f

let dedup_nodes nodes =
  List.fold_left
    (fun acc n -> if List.memq n acc then acc else acc @ [ n ])
    [] nodes

let rec put t k v =
  let preds = Array.make t.max_level t.head in
  let succs = Array.make t.max_level t.head in
  let found = find t k preds succs in
  if found >= 0 then begin
    (* Key present (or a marked victim): update in place under the
       node's lock, unless it is being removed — then retry. *)
    let node = succs.(found) in
    if not node.fully_linked then begin
      Domain.cpu_relax ();
      put t k v
    end
    else
      let outcome =
        Mutex.lock node.lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock node.lock)
          (fun () ->
            if node.marked then `Retry
            else begin
              let old = node.value in
              node.value <- Some v;
              `Done old
            end)
      in
      match outcome with
      | `Retry ->
          Domain.cpu_relax ();
          put t k v
      | `Done old -> old
  end
  else begin
    let top_level = random_level t in
    let to_lock =
      dedup_nodes (List.init (top_level + 1) (fun l -> preds.(l)))
    in
    let ok =
      with_locks to_lock (fun () ->
          let valid = ref true in
          for level = 0 to top_level do
            let p = preds.(level) and s = succs.(level) in
            let still_linked =
              match p.next.(level) with Some x -> x == s | None -> false
            in
            if p.marked || s.marked || not still_linked then valid := false
          done;
          if not !valid then false
          else begin
            let node =
              make_node ~key:(Key k) ~value:(Some v) ~top_level
                ~levels:(top_level + 1)
            in
            for level = 0 to top_level do
              node.next.(level) <- Some succs.(level)
            done;
            for level = 0 to top_level do
              preds.(level).next.(level) <- Some node
            done;
            node.fully_linked <- true;
            Striped_counter.incr t.count;
            true
          end)
    in
    if ok then None
    else begin
      Domain.cpu_relax ();
      put t k v
    end
  end

let remove t k =
  let preds = Array.make t.max_level t.head in
  let succs = Array.make t.max_level t.head in
  let found = find t k preds succs in
  if found < 0 then None
  else begin
    let victim = succs.(found) in
    if not (victim.fully_linked && victim.top_level = found && not victim.marked)
    then None
    else begin
      Mutex.lock victim.lock;
      if victim.marked then begin
        Mutex.unlock victim.lock;
        None
      end
      else begin
        victim.marked <- true;
        let old = victim.value in
        let top_level = victim.top_level in
        let finish () =
          let to_lock =
            dedup_nodes (List.init (top_level + 1) (fun l -> preds.(l)))
          in
          with_locks to_lock (fun () ->
              let valid = ref true in
              for level = 0 to top_level do
                let p = preds.(level) in
                let still_linked =
                  match p.next.(level) with
                  | Some x -> x == victim
                  | None -> false
                in
                if p.marked || not still_linked then valid := false
              done;
              if !valid then begin
                for level = top_level downto 0 do
                  preds.(level).next.(level) <- victim.next.(level)
                done;
                true
              end
              else false)
        in
        let rec unlink () =
          if not (finish ()) then begin
            (* predecessors shifted: re-find and retry the unlink *)
            ignore (find t k preds succs);
            Domain.cpu_relax ();
            unlink ()
          end
        in
        unlink ();
        Striped_counter.decr t.count;
        Mutex.unlock victim.lock;
        old
      end
    end
  end

let size t = Striped_counter.get t.count
let is_empty t = size t = 0

let next0 n = Option.get n.next.(0)
let live n = if n.fully_linked && not n.marked then n.value else None

let get t k =
  let _, n = descend t (fun b -> cmp_bound t b k < 0) in
  if cmp_bound t n.key k = 0 then live n else None

let contains t k = get t k <> None

(* Weakly consistent level-0 walk from [n] to the tail or the first key
   for which [past] holds: the live bindings, ascending. *)
let[@tail_mod_cons] rec collect past n =
  match (n.key, live n) with
  | Max, _ -> []
  | Key k, _ when past k -> []
  | Key k, Some v -> (k, v) :: collect past (next0 n)
  | (Min | Key _), _ -> collect past (next0 n)

let bindings t = collect (fun _ -> false) t.head

let min_binding t =
  let rec first n =
    match (n.key, live n) with
    | Max, _ -> None
    | Key k, Some v -> Some (k, v)
    | (Min | Key _), _ -> first (next0 n)
  in
  first t.head

(* The last node before the tail; if it is being inserted or removed,
   descend again bounded by its key rather than wait for it. *)
let max_binding t =
  let rec go below =
    match descend t below with
    | ({ key = Key k; _ } as n), _ -> (
        match live n with
        | Some v -> Some (k, v)
        | None -> go (fun b -> cmp_bound t b k < 0))
    | _ -> None
  in
  go (function Max -> false | Min | Key _ -> true)

let range t ~lo ~hi =
  let _, first = descend t (fun b -> cmp_bound t b lo < 0) in
  collect (fun k -> t.compare k hi > 0) first
