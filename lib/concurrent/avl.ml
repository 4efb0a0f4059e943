type ('k, 'v) t =
  | Leaf
  | Node of { l : ('k, 'v) t; k : 'k; v : 'v; r : ('k, 'v) t; h : int }

let empty = Leaf
let height = function Leaf -> 0 | Node { h; _ } -> h

let node l k v r =
  Node { l; k; v; r; h = 1 + max (height l) (height r) }

(* Rebalance assuming |height l - height r| <= 2. *)
let balance l k v r =
  let hl = height l and hr = height r in
  if hl > hr + 1 then
    match l with
    | Node { l = ll; k = lk; v = lv; r = lr; _ } when height ll >= height lr ->
        node ll lk lv (node lr k v r)
    | Node
        {
          l = ll;
          k = lk;
          v = lv;
          r = Node { l = lrl; k = lrk; v = lrv; r = lrr; _ };
          _;
        } ->
        node (node ll lk lv lrl) lrk lrv (node lrr k v r)
    | _ -> assert false
  else if hr > hl + 1 then
    match r with
    | Node { l = rl; k = rk; v = rv; r = rr; _ } when height rr >= height rl ->
        node (node l k v rl) rk rv rr
    | Node
        {
          l = Node { l = rll; k = rlk; v = rlv; r = rlr; _ };
          k = rk;
          v = rv;
          r = rr;
          _;
        } ->
        node (node l k v rll) rlk rlv (node rlr rk rv rr)
    | _ -> assert false
  else node l k v r

let rec find ~compare key = function
  | Leaf -> None
  | Node { l; k; v; r; _ } ->
      let c = compare key k in
      if c = 0 then Some v
      else if c < 0 then find ~compare key l
      else find ~compare key r

let rec add ~compare key value = function
  | Leaf -> (node Leaf key value Leaf, None)
  | Node { l; k; v; r; _ } ->
      let c = compare key k in
      if c = 0 then (node l key value r, Some v)
      else if c < 0 then
        let l', old = add ~compare key value l in
        (balance l' k v r, old)
      else
        let r', old = add ~compare key value r in
        (balance l k v r', old)

let rec min_binding = function
  | Leaf -> None
  | Node { l = Leaf; k; v; _ } -> Some (k, v)
  | Node { l; _ } -> min_binding l

let rec max_binding = function
  | Leaf -> None
  | Node { r = Leaf; k; v; _ } -> Some (k, v)
  | Node { r; _ } -> max_binding r

let rec remove_min = function
  | Leaf -> invalid_arg "Avl.remove_min"
  | Node { l = Leaf; k; v; r; _ } -> (k, v, r)
  | Node { l; k; v; r; _ } ->
      let mk, mv, l' = remove_min l in
      (mk, mv, balance l' k v r)

let rec remove ~compare key = function
  | Leaf -> (Leaf, None)
  | Node { l; k; v; r; _ } ->
      let c = compare key k in
      if c = 0 then
        match (l, r) with
        | Leaf, _ -> (r, Some v)
        | _, Leaf -> (l, Some v)
        | _ ->
            let sk, sv, r' = remove_min r in
            (balance l sk sv r', Some v)
      else if c < 0 then
        let l', old = remove ~compare key l in
        (balance l' k v r, old)
      else
        let r', old = remove ~compare key r in
        (balance l k v r', old)

let rec cardinal = function
  | Leaf -> 0
  | Node { l; r; _ } -> 1 + cardinal l + cardinal r

(* The bindings of [t] between the bounds, ascending, consed onto [acc]
   right to left.  A [None] bound cannot cut [t]: past a node inside the
   range, its right subtree lies above [lo] and its left below [hi], so
   each bound is compared only along its own boundary path and the
   subtrees between the paths are copied without a comparison. *)
let rec cons_range ~compare lo hi t acc =
  match t with
  | Leaf -> acc
  | Node { l; k; v; r; _ } ->
      let cl = match lo with Some lo -> compare lo k | None -> -1 in
      if cl > 0 then cons_range ~compare lo hi r acc
      else
        let ch = match hi with Some hi -> compare k hi | None -> -1 in
        if ch > 0 then cons_range ~compare lo hi l acc
        else
          let acc = if ch = 0 then acc else cons_range ~compare None hi r acc in
          let acc = (k, v) :: acc in
          if cl = 0 then acc else cons_range ~compare lo None l acc

let bindings t = cons_range ~compare:(fun _ _ -> assert false) None None t []
let range ~compare ~lo ~hi t = cons_range ~compare (Some lo) (Some hi) t []

let well_formed ~compare t =
  let ok = ref true in
  let rec go lo hi = function
    | Leaf -> 0
    | Node { l; k; v = _; r; h } ->
        (match lo with Some lo -> if compare k lo <= 0 then ok := false | None -> ());
        (match hi with Some hi -> if compare k hi >= 0 then ok := false | None -> ());
        let hl = go lo (Some k) l in
        let hr = go (Some k) hi r in
        if h <> 1 + max hl hr then ok := false;
        if abs (hl - hr) > 1 then ok := false;
        h
  in
  ignore (go None None t);
  !ok
