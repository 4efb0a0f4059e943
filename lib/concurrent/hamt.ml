type ('k, 'v) t =
  | Empty
  | Leaf of 'k * 'v  (* one binding; its hash is recomputed on demand *)
  | Bucket of int * ('k * 'v) list  (* full hash, >= 2 colliding bindings *)
  | Node of int * ('k, 'v) t array  (* bitmap, compressed children *)

(* Canonical shape: [Empty] only as the whole trie, and no [Node] whose
   sole child is a [Leaf] or [Bucket] — that child sits in its parent's
   slot instead.  [remove] restores the shape [add] builds. *)

let bits = 5
let arity = 1 lsl bits
let chunk_mask = arity - 1
let empty = Empty
let is_empty = function Empty -> true | _ -> false

(* SWAR population count of a 32-bit bitmap. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let child_pos bitmap bit = popcount (bitmap land (bit - 1))
let chunk h shift = (h lsr shift) land chunk_mask

let rec assoc_opt equal k = function
  | [] -> None
  | (k2, v) :: rest -> if equal k k2 then Some v else assoc_opt equal k rest

let rec find_aux ~equal h shift k = function
  | Empty -> None
  | Leaf (k2, v) -> if equal k k2 then Some v else None
  | Bucket (h2, kvs) -> if h2 = h then assoc_opt equal k kvs else None
  | Node (bitmap, children) ->
      let bit = 1 lsl chunk h shift in
      if bitmap land bit = 0 then None
      else find_aux ~equal h (shift + bits) k children.(child_pos bitmap bit)

let find ~hash ~equal k t = find_aux ~equal (hash k) 0 k t

let array_insert arr pos x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 pos;
  Array.blit arr pos out (pos + 1) (n - pos);
  out

let array_set arr pos x =
  let out = Array.copy arr in
  out.(pos) <- x;
  out

let array_remove arr pos =
  let n = Array.length arr in
  let out = Array.make (n - 1) arr.(0) in
  Array.blit arr 0 out 0 pos;
  Array.blit arr (pos + 1) out pos (n - 1 - pos);
  out

(* The subtree at [shift] holding two entries of distinct full hashes
   [h1] and [h2]: singleton nodes down to the first chunk that tells
   them apart. *)
let rec split shift h1 t1 h2 t2 =
  let i1 = chunk h1 shift and i2 = chunk h2 shift in
  if i1 = i2 then Node (1 lsl i1, [| split (shift + bits) h1 t1 h2 t2 |])
  else
    let children = if i1 < i2 then [| t1; t2 |] else [| t2; t1 |] in
    Node ((1 lsl i1) lor (1 lsl i2), children)

(* [kvs] without [k]'s binding, which the caller knows is there. *)
let rec drop equal k = function
  | [] -> []
  | ((k2, _) as kv) :: rest ->
      if equal k k2 then rest else kv :: drop equal k rest

(* The previous binding travels in [old], allocated once per call,
   rather than in a (node, old) pair built at every level. *)
let rec add_aux ~hash ~equal h shift k v old t =
  match t with
  | Empty -> Leaf (k, v)
  | Leaf (k2, v2) ->
      if equal k k2 then begin
        old := Some v2;
        Leaf (k, v)
      end
      else
        let h2 = hash k2 in
        if h2 = h then Bucket (h, [ (k, v); (k2, v2) ])
        else split shift h (Leaf (k, v)) h2 t
  | Bucket (h2, kvs) ->
      if h2 <> h then split shift h (Leaf (k, v)) h2 t
      else begin
        match assoc_opt equal k kvs with
        | None -> Bucket (h, (k, v) :: kvs)
        | prev ->
            old := prev;
            Bucket (h, (k, v) :: drop equal k kvs)
      end
  | Node (bitmap, children) ->
      let bit = 1 lsl chunk h shift in
      let pos = child_pos bitmap bit in
      if bitmap land bit = 0 then
        Node (bitmap lor bit, array_insert children pos (Leaf (k, v)))
      else
        let child = children.(pos) in
        let child = add_aux ~hash ~equal h (shift + bits) k v old child in
        Node (bitmap, array_set children pos child)

let add ~hash ~equal k v t =
  let old = ref None in
  let t = add_aux ~hash ~equal (hash k) 0 k v old t in
  (t, !old)

(* A node reduced to one child: a [Leaf] or [Bucket] moves up into the
   parent's slot (its path prefix still holds at the shallower depth);
   a [Node] child keeps its place, since its entries share this
   node's chunk. *)
let rec remove_aux ~equal h shift k old t =
  match t with
  | Empty -> t
  | Leaf (k2, v) ->
      if equal k k2 then begin
        old := Some v;
        Empty
      end
      else t
  | Bucket (h2, kvs) -> (
      if h2 <> h then t
      else
        match assoc_opt equal k kvs with
        | None -> t
        | prev -> (
            old := prev;
            match drop equal k kvs with
            | [ (k1, v1) ] -> Leaf (k1, v1)
            | rest -> Bucket (h2, rest)))
  | Node (bitmap, children) -> (
      let bit = 1 lsl chunk h shift in
      if bitmap land bit = 0 then t
      else
        let pos = child_pos bitmap bit in
        let child = children.(pos) in
        let child' = remove_aux ~equal h (shift + bits) k old child in
        if child' == child then t
        else
          match child' with
          | Empty -> (
              match Array.length children with
              | 1 -> Empty
              | 2 -> (
                  match children.(1 - pos) with
                  | Node _ as n -> Node (bitmap land lnot bit, [| n |])
                  | single -> single)
              | _ -> Node (bitmap land lnot bit, array_remove children pos))
          | (Leaf _ | Bucket _) when Array.length children = 1 -> child'
          | _ -> Node (bitmap, array_set children pos child'))

let remove ~hash ~equal k t =
  let old = ref None in
  let t = remove_aux ~equal (hash k) 0 k old t in
  (t, !old)

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf (k, v) -> f k v acc
  | Bucket (_, kvs) -> List.fold_left (fun acc (k, v) -> f k v acc) acc kvs
  | Node (_, children) ->
      Array.fold_left (fun acc child -> fold f child acc) acc children

let rec iter f = function
  | Empty -> ()
  | Leaf (k, v) -> f k v
  | Bucket (_, kvs) -> List.iter (fun (k, v) -> f k v) kvs
  | Node (_, children) -> Array.iter (iter f) children

let cardinal t = fold (fun _ _ n -> n + 1) t 0
let bindings t = fold (fun k v acc -> (k, v) :: acc) t []

let well_formed ~hash t =
  let ok = ref true in
  let rec go shift prefix_check = function
    | Empty -> ok := false
    | Leaf (k, _) -> if not (prefix_check (hash k)) then ok := false
    | Bucket (h, kvs) ->
        if List.compare_length_with kvs 2 < 0 then ok := false;
        List.iter (fun (k, _) -> if hash k <> h then ok := false) kvs;
        if not (prefix_check h) then ok := false
    | Node (bitmap, children) ->
        if popcount bitmap <> Array.length children then ok := false;
        (match children with
        | [||] | [| Leaf _ |] | [| Bucket _ |] -> ok := false
        | _ -> ());
        let pos = ref 0 in
        for idx = 0 to arity - 1 do
          if bitmap land (1 lsl idx) <> 0 && !pos < Array.length children
          then begin
            go (shift + bits)
              (fun h -> chunk h shift = idx && prefix_check h)
              children.(!pos);
            incr pos
          end
        done
  in
  (match t with Empty -> () | t -> go 0 (fun _ -> true) t);
  !ok
