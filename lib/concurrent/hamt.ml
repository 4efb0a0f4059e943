(* CHAMP layout (Steindorfer & Vinju, OOPSLA 2015): a node is one array

     [| datamap; nodemap; k0; v0; ...; k(d-1); v(d-1); c(n-1); ...; c0 |]

   A chunk whose bit is set in [datamap] holds one binding inline, at
   2 + 2 * (rank of the bit in [datamap]); a chunk set in [nodemap]
   holds a sub-node, stored backwards from the end of the array at
   length - 1 - (rank of the bit in [nodemap]).  The bitmaps are
   disjoint.  A collision node

     [| -1; hash; k0; v0; ... |]

   holds two or more bindings of one full hash, scanned linearly.

   Canonical shape: the root is always a bitmap node (the empty trie is
   [| 0; 0 |]).  Below it, no bitmap node holds one binding and no
   sub-node, and none holds a collision node as its only entry: either
   sits in its parent's slot instead.  [add] pushes a binding down into
   a sub-node only when a second key lands on its chunk, and [remove]
   lifts it back.

   Float hazard (see [Rwset]): an [Obj.t array] made from a float
   initializer is a flat float array.  Slot 0 is always an int, and
   every array here is made by [Array.make] from slot 0's value, by a
   literal whose first element is slot 0, or by copying such an array,
   so none is. *)

type ('k, 'v) t = Obj.t array

let bits = 5
let arity = 1 lsl bits
let chunk_mask = arity - 1
let collision = -1
let empty = [| Obj.repr 0; Obj.repr 0 |]
let is_empty t = Array.length t = 2

(* SWAR population count of a 32-bit bitmap. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let rank map bit = popcount (map land (bit - 1))
let chunk h shift = (h lsr shift) land chunk_mask

(* Slot 0 is the datamap, or [collision]; slot 1 is the nodemap, or a
   collision node's full hash. *)
let datamap (a : Obj.t array) : int = Obj.obj (Array.unsafe_get a 0)
let nodemap (a : Obj.t array) : int = Obj.obj (Array.unsafe_get a 1)
let key a i = Obj.obj (Array.unsafe_get a i)
let value a i = Obj.obj (Array.unsafe_get a (i + 1))
let child a j : Obj.t array = Obj.obj (Array.unsafe_get a j)
let data_index dmap bit = 2 + (2 * rank dmap bit)
let child_index a nmap bit = Array.length a - 1 - rank nmap bit

(* The end of a node's bindings, where its sub-nodes begin. *)
let data_end a =
  let m = datamap a in
  if m = collision then Array.length a else 2 + (2 * popcount m)

(* The slot of [k]'s key in collision node [a], or -1. *)
let collision_index equal k a =
  let rec go i =
    if i >= Array.length a then -1
    else if equal k (key a i) then i
    else go (i + 2)
  in
  go 2

let rec find_aux equal h shift k a =
  let dmap = datamap a in
  if dmap = collision then
    if nodemap a <> h then None
    else
      let i = collision_index equal k a in
      if i < 0 then None else Some (value a i)
  else
    let bit = 1 lsl chunk h shift in
    if dmap land bit <> 0 then
      let i = data_index dmap bit in
      if equal k (key a i) then Some (value a i) else None
    else
      let nmap = nodemap a in
      if nmap land bit = 0 then None
      else find_aux equal h (shift + bits) k (child a (child_index a nmap bit))

let find ~hash ~equal k t = find_aux equal (hash k) 0 k t

(* Every edit below allocates only its result: a copy, or [Array.make]
   with the new slot 0 and then blits of the unchanged runs. *)

let with_slot a i x =
  let b = Array.copy a in
  Array.unsafe_set b i x;
  b

(* [a] with [k, v] inserted at pair slot [i]; [map] is the new slot 0. *)
let insert_pair a map i k v =
  let n = Array.length a in
  let b = Array.make (n + 2) (Obj.repr map) in
  Array.blit a 1 b 1 (i - 1);
  Array.unsafe_set b i (Obj.repr k);
  Array.unsafe_set b (i + 1) (Obj.repr v);
  Array.blit a i b (i + 2) (n - i);
  b

(* [a] without the pair at slot [i]; [map] is the new slot 0. *)
let remove_pair a map i =
  let n = Array.length a in
  let b = Array.make (n - 2) (Obj.repr map) in
  Array.blit a 1 b 1 (i - 1);
  Array.blit a (i + 2) b i (n - i - 2);
  b

(* Bitmap node [a] with its binding at [bit] replaced by sub-node [c],
   which lands at slot [j] of the result (length [n - 1]). *)
let binding_to_node a bit c =
  let dmap = datamap a and nmap = nodemap a and n = Array.length a in
  let i = data_index dmap bit and j = n - 2 - rank nmap bit in
  let b = Array.make (n - 1) (Obj.repr (dmap lxor bit)) in
  Array.unsafe_set b 1 (Obj.repr (nmap lor bit));
  Array.blit a 2 b 2 (i - 2);
  Array.blit a (i + 2) b i (j - i);
  Array.unsafe_set b j (Obj.repr c);
  Array.blit a (j + 2) b (j + 1) (n - j - 2);
  b

(* Bitmap node [a] with its sub-node at [bit] replaced by [k, v]. *)
let node_to_binding a bit k v =
  let dmap = datamap a and nmap = nodemap a and n = Array.length a in
  let i = data_index dmap bit and j = child_index a nmap bit in
  let b = Array.make (n + 1) (Obj.repr (dmap lor bit)) in
  Array.unsafe_set b 1 (Obj.repr (nmap lxor bit));
  Array.blit a 2 b 2 (i - 2);
  Array.unsafe_set b i (Obj.repr k);
  Array.unsafe_set b (i + 1) (Obj.repr v);
  Array.blit a i b (i + 2) (j - i);
  Array.blit a (j + 1) b (j + 2) (n - j - 1);
  b

(* The sub-node at [shift] holding two bindings of distinct full
   hashes: single-child nodes down to the first chunk that tells them
   apart. *)
let rec pair shift h1 k1 v1 h2 k2 v2 =
  let i1 = chunk h1 shift and i2 = chunk h2 shift in
  if i1 = i2 then
    [|
      Obj.repr 0;
      Obj.repr (1 lsl i1);
      Obj.repr (pair (shift + bits) h1 k1 v1 h2 k2 v2);
    |]
  else
    let dmap = Obj.repr ((1 lsl i1) lor (1 lsl i2)) and none = Obj.repr 0 in
    if i1 < i2 then
      [| dmap; none; Obj.repr k1; Obj.repr v1; Obj.repr k2; Obj.repr v2 |]
    else [| dmap; none; Obj.repr k2; Obj.repr v2; Obj.repr k1; Obj.repr v1 |]

(* The sub-node at [shift] holding collision node [c] of full hash [hc]
   and the binding [k, v] of another hash [h]. *)
let rec beside shift hc c h k v =
  let ic = chunk hc shift and i = chunk h shift in
  if ic = i then
    [|
      Obj.repr 0;
      Obj.repr (1 lsl i);
      Obj.repr (beside (shift + bits) hc c h k v);
    |]
  else [| Obj.repr (1 lsl i); Obj.repr (1 lsl ic); Obj.repr k; Obj.repr v; c |]

(* The previous binding travels in [old], allocated once per call,
   rather than in a (node, old) pair built at every level. *)
let rec add_aux hash equal h shift k v old a =
  let dmap = datamap a in
  if dmap = collision then
    if nodemap a <> h then beside shift (nodemap a) (Obj.repr a) h k v
    else
      let i = collision_index equal k a in
      if i < 0 then insert_pair a collision (Array.length a) k v
      else begin
        old := Some (value a i);
        with_slot a (i + 1) (Obj.repr v)
      end
  else
    let bit = 1 lsl chunk h shift in
    if dmap land bit <> 0 then
      let i = data_index dmap bit in
      let k2 = key a i in
      if equal k k2 then begin
        old := Some (value a i);
        with_slot a (i + 1) (Obj.repr v)
      end
      else
        let v2 = value a i and h2 = hash k2 in
        let c =
          if h2 = h then
            [|
              Obj.repr collision;
              Obj.repr h;
              Obj.repr k;
              Obj.repr v;
              Obj.repr k2;
              Obj.repr v2;
            |]
          else pair (shift + bits) h k v h2 k2 v2
        in
        binding_to_node a bit c
    else
      let nmap = nodemap a in
      if nmap land bit = 0 then
        insert_pair a (dmap lor bit) (data_index dmap bit) k v
      else
        let j = child_index a nmap bit in
        let c = add_aux hash equal h (shift + bits) k v old (child a j) in
        with_slot a j (Obj.repr c)

let add ~hash ~equal k v t =
  let old = ref None in
  let t = add_aux hash equal (hash k) 0 k v old t in
  (t, !old)

(* A sub-node reduced to one binding comes back as [| _; 0; k; v |] and
   moves into its parent's slot, and so does a collision node left as
   a sub-node's only entry (its path prefix still holds one level up).
   A sub-node left with one bitmap child keeps its place, since that
   child's entries share its chunk. *)
let rec remove_aux equal h shift k old a =
  let dmap = datamap a in
  if dmap = collision then
    if nodemap a <> h then a
    else
      let i = collision_index equal k a in
      if i < 0 then a
      else begin
        old := Some (value a i);
        if Array.length a > 6 then remove_pair a collision i
        else
          let o = 6 - i in
          [|
            Obj.repr 1;
            Obj.repr 0;
            Array.unsafe_get a o;
            Array.unsafe_get a (o + 1);
          |]
      end
  else
    let bit = 1 lsl chunk h shift in
    if dmap land bit <> 0 then
      let i = data_index dmap bit in
      if equal k (key a i) then begin
        old := Some (value a i);
        remove_pair a (dmap lxor bit) i
      end
      else a
    else
      let nmap = nodemap a in
      if nmap land bit = 0 then a
      else
        let j = child_index a nmap bit in
        let c = child a j in
        let c' = remove_aux equal h (shift + bits) k old c in
        if c' == c then a
        else if Array.length c' = 4 && nodemap c' = 0 then
          node_to_binding a bit (key c' 2) (value c' 2)
        else if Array.length c' = 3 && datamap (child c' 2) = collision then
          with_slot a j (Array.unsafe_get c' 2)
        else with_slot a j (Obj.repr c')

let remove ~hash ~equal k t =
  let old = ref None in
  let t = remove_aux equal (hash k) 0 k old t in
  (t, !old)

let rec fold f a acc =
  let stop = data_end a in
  let acc = ref acc in
  for i = 0 to ((stop - 2) / 2) - 1 do
    acc := f (key a (2 + (2 * i))) (value a (2 + (2 * i))) !acc
  done;
  for j = Array.length a - 1 downto stop do
    acc := fold f (child a j) !acc
  done;
  !acc

let iter f t = fold (fun k v () -> f k v) t ()

let cardinal t = fold (fun _ _ n -> n + 1) t 0
let bindings t = fold (fun k v acc -> (k, v) :: acc) t []

(* Reads every slot with checked accesses and tests each slot's kind
   before using it, so it can be run on arrays that break the layout. *)
let well_formed ~hash t =
  let int_slot a i = i < Array.length a && Obj.is_int a.(i) in
  let is_array x = Obj.is_block x && Obj.tag x = 0 in
  let is_collision x =
    is_array x && int_slot (Obj.obj x) 0 && datamap (Obj.obj x) = collision
  in
  let collision_ok on_path c =
    let n = Array.length c in
    n >= 6 && n land 1 = 0 && int_slot c 1
    && on_path (nodemap c)
    &&
    let ok = ref true in
    for i = 1 to (n / 2) - 1 do
      if hash (key c (2 * i)) <> nodemap c then ok := false
    done;
    !ok
  in
  let rec node_ok ~root shift on_path a =
    int_slot a 0 && int_slot a 1
    &&
    let dmap = datamap a and nmap = nodemap a in
    let d = popcount dmap and c = popcount nmap and n = Array.length a in
    dmap >= 0 && nmap >= 0
    && (dmap lor nmap) lsr arity = 0
    && dmap land nmap = 0
    && n = 2 + (2 * d) + c
    && (root
       || (d + c >= 2 || (d = 0 && c = 1 && not (is_collision a.(n - 1)))))
    &&
    let ok = ref true and di = ref 2 and cj = ref (n - 1) in
    for idx = 0 to arity - 1 do
      let here h = chunk h shift = idx && on_path h in
      if dmap land (1 lsl idx) <> 0 then begin
        if not (here (hash (key a !di))) then ok := false;
        di := !di + 2
      end
      else if nmap land (1 lsl idx) <> 0 then begin
        let x = a.(!cj) in
        if is_collision x then begin
          if not (collision_ok here (Obj.obj x)) then ok := false
        end
        else if
          not
            (is_array x && node_ok ~root:false (shift + bits) here (Obj.obj x))
        then ok := false;
        decr cj
      end
    done;
    !ok
  in
  node_ok ~root:true 0 (fun _ -> true) t
