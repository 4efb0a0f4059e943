(* Children of a [Node] split the key space at its separators: every key
   under [kids.(i)] is [>= seps.(i - 1)] and [< seps.(i)].  [add] may hand
   its parent a child one entry over [fanout], which the parent splits;
   [remove] may hand back one under [min_fill], which the parent joins
   with a sibling. *)
type ('k, 'v) node =
  | Leaf of { keys : 'k array; vals : 'v array }
  | Node of { seps : 'k array; kids : ('k, 'v) node array }

type ('k, 'v) snapshot = {
  root : ('k, 'v) node;
  count : int;
  compare : 'k -> 'k -> int;
}

let fanout = 32
let min_fill = fanout / 2

let empty ?(compare = Stdlib.compare) () =
  { root = Leaf { keys = [||]; vals = [||] }; count = 0; compare }

(* Array steps; each returns a fresh array. *)
let set a i x =
  let b = Array.copy a in
  b.(i) <- x;
  b

let insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let delete a i =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* Binary searches over [a.(i) .. a.(j - 1)], sorted ascending. *)

(* First index whose element is [> k]. *)
let rec upper cmp k a i j =
  if i >= j then i
  else
    let m = (i + j) lsr 1 in
    if cmp k a.(m) < 0 then upper cmp k a i m else upper cmp k a (m + 1) j

(* Index of [k], or [-1 - p] with [p] the index it would be inserted at. *)
let rec search cmp k a i j =
  if i >= j then -1 - i
  else
    let m = (i + j) lsr 1 in
    let c = cmp k a.(m) in
    if c = 0 then m
    else if c < 0 then search cmp k a i m
    else search cmp k a (m + 1) j

let child cmp k seps = upper cmp k seps 0 (Array.length seps)

let width = function
  | Leaf { keys; _ } -> Array.length keys
  | Node { kids; _ } -> Array.length kids

(* Halves of an overfull node, and the separator between them. *)
let split = function
  | Leaf { keys; vals } ->
      let n = Array.length keys in
      let h = n / 2 in
      ( Leaf { keys = Array.sub keys 0 h; vals = Array.sub vals 0 h },
        keys.(h),
        Leaf { keys = Array.sub keys h (n - h); vals = Array.sub vals h (n - h) } )
  | Node { seps; kids } ->
      let m = Array.length kids in
      let h = m / 2 in
      ( Node { seps = Array.sub seps 0 (h - 1); kids = Array.sub kids 0 h },
        seps.(h - 1),
        Node { seps = Array.sub seps h (m - 1 - h); kids = Array.sub kids h (m - h) } )

(* Two adjacent siblings as one node; [sep] lies between them. *)
let join l sep r =
  match (l, r) with
  | Leaf l, Leaf r ->
      Leaf { keys = Array.append l.keys r.keys; vals = Array.append l.vals r.vals }
  | Node l, Node r ->
      Node
        {
          seps = Array.concat [ l.seps; [| sep |]; r.seps ];
          kids = Array.append l.kids r.kids;
        }
  | _ -> invalid_arg "Cow_omap.join"

let rec add_node cmp old k v = function
  | Leaf { keys; vals } ->
      let i = search cmp k keys 0 (Array.length keys) in
      if i >= 0 then begin
        old := Some vals.(i);
        Leaf { keys; vals = set vals i v }
      end
      else Leaf { keys = insert keys (-1 - i) k; vals = insert vals (-1 - i) v }
  | Node { seps; kids } ->
      let i = child cmp k seps in
      let c = add_node cmp old k v kids.(i) in
      if width c <= fanout then Node { seps; kids = set kids i c }
      else
        let l, s, r = split c in
        let kids = insert kids (i + 1) r in
        kids.(i) <- l;
        Node { seps = insert seps i s; kids }

(* An underfull [kids.(i)] joins its left sibling (its right one if it
   has none); when the pair overfills one node it is split again evenly,
   which is the borrow. *)
let refill seps kids i c =
  let a = if i > 0 then i - 1 else i in
  let l, r = if a = i then (c, kids.(i + 1)) else (kids.(a), c) in
  let j = join l seps.(a) r in
  if width j <= fanout then begin
    let kids = delete kids (a + 1) in
    kids.(a) <- j;
    Node { seps = delete seps a; kids }
  end
  else
    let l, s, r = split j in
    let kids = set kids a l in
    kids.(a + 1) <- r;
    Node { seps = set seps a s; kids }

let rec remove_node cmp old k node =
  match node with
  | Leaf { keys; vals } ->
      let i = search cmp k keys 0 (Array.length keys) in
      if i < 0 then node
      else begin
        old := Some vals.(i);
        Leaf { keys = delete keys i; vals = delete vals i }
      end
  | Node { seps; kids } ->
      let i = child cmp k seps in
      let c = kids.(i) in
      let c' = remove_node cmp old k c in
      if c' == c then node
      else if width c' >= min_fill then Node { seps; kids = set kids i c' }
      else refill seps kids i c'

(* Bindings [i .. j - 1] of a leaf consed onto [acc], right to left. *)
let rec cons_slice keys vals i j acc =
  if j <= i then acc
  else cons_slice keys vals i (j - 1) ((keys.(j - 1), vals.(j - 1)) :: acc)

let rec cons_all node acc =
  match node with
  | Leaf { keys; vals } -> cons_slice keys vals 0 (Array.length keys) acc
  | Node { kids; _ } -> cons_kids kids 0 (Array.length kids) acc

and cons_kids kids i j acc =
  if j <= i then acc else cons_kids kids i (j - 1) (cons_all kids.(j - 1) acc)

(* The bindings under [node] between the bounds, ascending, consed onto
   [acc].  A [None] bound cannot cut [node].  The two bounds are searched
   for only on their own paths; the children strictly between the paths
   are emitted whole, with no comparison. *)
let rec cons_range cmp lo hi node acc =
  match node with
  | Leaf { keys; vals } ->
      let n = Array.length keys in
      let i =
        match lo with
        | Some lo ->
            let i = search cmp lo keys 0 n in
            if i < 0 then -1 - i else i
        | None -> 0
      in
      let j = match hi with Some hi -> upper cmp hi keys i n | None -> n in
      cons_slice keys vals i j acc
  | Node { seps; kids } ->
      let m = Array.length seps in
      let i = match lo with Some lo -> upper cmp lo seps 0 m | None -> 0 in
      let j = match hi with Some hi -> upper cmp hi seps i m | None -> m in
      if i = j then cons_range cmp lo hi kids.(i) acc
      else
        cons_range cmp lo None kids.(i)
          (cons_kids kids (i + 1) j (cons_range cmp None hi kids.(j) acc))

module Snapshot = struct
  type ('k, 'v) t = ('k, 'v) snapshot

  let find s k =
    let rec go = function
      | Leaf { keys; vals } ->
          let i = search s.compare k keys 0 (Array.length keys) in
          if i < 0 then None else Some vals.(i)
      | Node { seps; kids } -> go kids.(child s.compare k seps)
    in
    go s.root

  let add s k v =
    let old = ref None in
    let root =
      match add_node s.compare old k v s.root with
      | r when width r <= fanout -> r
      | r ->
          let l, sep, r = split r in
          Node { seps = [| sep |]; kids = [| l; r |] }
    in
    let count = if Option.is_none !old then s.count + 1 else s.count in
    ({ s with root; count }, !old)

  let remove s k =
    let old = ref None in
    match remove_node s.compare old k s.root with
    | r when r == s.root -> (s, None)
    (* A root left with one child gives way to it. *)
    | Node { kids = [| r |]; _ } | r ->
        ({ s with root = r; count = s.count - 1 }, !old)

  let rec first = function
    | Leaf { keys; vals } ->
        if Array.length keys = 0 then None else Some (keys.(0), vals.(0))
    | Node { kids; _ } -> first kids.(0)

  let rec last = function
    | Leaf { keys; vals } ->
        let n = Array.length keys in
        if n = 0 then None else Some (keys.(n - 1), vals.(n - 1))
    | Node { kids; _ } -> last kids.(Array.length kids - 1)

  let min_binding s = first s.root
  let max_binding s = last s.root
  let range s ~lo ~hi = cons_range s.compare (Some lo) (Some hi) s.root []
  let size s = s.count
  let bindings s = cons_all s.root []

  let depth s =
    let rec go = function Leaf _ -> 1 | Node { kids; _ } -> 1 + go kids.(0) in
    go s.root

  let well_formed s =
    let cmp = s.compare and ok = ref true in
    let check b = if not b then ok := false in
    let sorted a =
      for i = 1 to Array.length a - 1 do
        check (cmp a.(i - 1) a.(i) < 0)
      done
    in
    let inside lo hi k =
      (match lo with Some lo -> check (cmp lo k <= 0) | None -> ());
      match hi with Some hi -> check (cmp k hi < 0) | None -> ()
    in
    (* Depth and binding count of [node], whose keys lie in [lo, hi). *)
    let rec go ~is_root lo hi node =
      let w = width node in
      check (w <= fanout);
      check (is_root || w >= min_fill);
      match node with
      | Leaf { keys; vals } ->
          check (Array.length vals = w);
          sorted keys;
          Array.iter (inside lo hi) keys;
          (1, w)
      | Node { seps; kids } ->
          check (w >= 2 && Array.length seps = w - 1);
          sorted seps;
          Array.iter (inside lo hi) seps;
          let d = ref 0 and n = ref 0 in
          Array.iteri
            (fun i c ->
              let lo = if i = 0 then lo else Some seps.(i - 1) in
              let hi = if i = w - 1 then hi else Some seps.(i) in
              let dc, nc = go ~is_root:false lo hi c in
              check (i = 0 || dc = !d);
              d := dc;
              n := !n + nc)
            kids;
          (!d + 1, !n)
    in
    let _, n = go ~is_root:true None None s.root in
    check (n = s.count);
    !ok
end
