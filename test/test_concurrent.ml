(** Tests for the thread-safe base structures, including qcheck
    property tests against purely functional models. *)

open Util
module C = Proust_concurrent

(* ------------------------------------------------------------------ *)
(* Rw_lock                                                              *)

(* [Rw_lock] deadlines are points on the monotonic clock. *)
let soon () = Clock.now_mono () +. 0.5
let now_ish () = Clock.now_mono () +. 0.02

let test_rw_shared_readers () =
  let l = C.Rw_lock.create () in
  check cb "r1" true (C.Rw_lock.try_acquire_read l ~owner:1 ~deadline:(soon ()));
  check cb "r2" true (C.Rw_lock.try_acquire_read l ~owner:2 ~deadline:(soon ()));
  check ci "two readers" 2 (C.Rw_lock.reader_count l)

let test_rw_writer_excludes () =
  let l = C.Rw_lock.create () in
  assert (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(soon ()));
  check cb "reader blocked" false
    (C.Rw_lock.try_acquire_read l ~owner:2 ~deadline:(now_ish ()));
  check cb "writer blocked" false
    (C.Rw_lock.try_acquire_write l ~owner:2 ~deadline:(now_ish ()));
  C.Rw_lock.release_all l ~owner:1;
  check cb "free after release" true
    (C.Rw_lock.try_acquire_write l ~owner:2 ~deadline:(soon ()))

let test_rw_reentrant () =
  let l = C.Rw_lock.create () in
  assert (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(soon ()));
  check cb "write reentrant" true
    (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(soon ()));
  check cb "read under own write" true
    (C.Rw_lock.try_acquire_read l ~owner:1 ~deadline:(soon ()));
  C.Rw_lock.release_all l ~owner:1;
  check (Alcotest.option ci) "released" None (C.Rw_lock.writer l)

let test_rw_upgrade () =
  let l = C.Rw_lock.create () in
  assert (C.Rw_lock.try_acquire_read l ~owner:1 ~deadline:(soon ()));
  check cb "sole reader upgrades" true
    (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(soon ()));
  C.Rw_lock.release_all l ~owner:1;
  assert (C.Rw_lock.try_acquire_read l ~owner:1 ~deadline:(soon ()));
  assert (C.Rw_lock.try_acquire_read l ~owner:2 ~deadline:(soon ()));
  check cb "upgrade blocked by other reader" false
    (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(now_ish ()))

let test_rw_holder_introspection () =
  let l = C.Rw_lock.create () in
  check cb "fresh lock held by nobody" false (C.Rw_lock.holds l ~owner:1);
  check (Alcotest.option ci) "fresh lock has no writer" None (C.Rw_lock.writer l);
  check ci "fresh lock has no readers" 0 (C.Rw_lock.reader_count l);
  assert (C.Rw_lock.try_acquire_read l ~owner:1 ~deadline:(soon ()));
  assert (C.Rw_lock.try_acquire_read l ~owner:2 ~deadline:(soon ()));
  check cb "reader 1 holds" true (C.Rw_lock.holds l ~owner:1);
  check cb "reader 2 holds" true (C.Rw_lock.holds l ~owner:2);
  check cb "stranger does not hold" false (C.Rw_lock.holds l ~owner:3);
  check (Alcotest.option ci) "readers are not the writer" None
    (C.Rw_lock.writer l);
  C.Rw_lock.release_all l ~owner:2;
  check cb "released reader no longer holds" false (C.Rw_lock.holds l ~owner:2);
  check cb "remaining reader still holds" true (C.Rw_lock.holds l ~owner:1);
  (* Sole remaining reader upgrades; introspection must follow. *)
  assert (C.Rw_lock.try_acquire_write l ~owner:1 ~deadline:(soon ()));
  check (Alcotest.option ci) "writer identity reported" (Some 1)
    (C.Rw_lock.writer l);
  check cb "writer holds in either-mode query" true (C.Rw_lock.holds l ~owner:1);
  C.Rw_lock.release_all l ~owner:1;
  check cb "holds cleared after release_all" false (C.Rw_lock.holds l ~owner:1);
  check (Alcotest.option ci) "writer cleared after release_all" None
    (C.Rw_lock.writer l);
  check ci "reader count cleared after release_all" 0 (C.Rw_lock.reader_count l)

let test_rw_contention () =
  let l = C.Rw_lock.create () in
  let counter = ref 0 in
  spawn_all 4 (fun i ->
      for _ = 1 to 200 do
        while not (C.Rw_lock.try_acquire_write l ~owner:i ~deadline:(soon ())) do
          ()
        done;
        incr counter;
        C.Rw_lock.release_all l ~owner:i
      done);
  check ci "mutual exclusion" 800 !counter

(* ------------------------------------------------------------------ *)
(* Striped counter / nn counter                                         *)

let test_striped_counter () =
  let c = C.Striped_counter.create () in
  spawn_all 4 (fun _ ->
      for _ = 1 to 10_000 do
        C.Striped_counter.incr c
      done);
  check ci "sum" 40_000 (C.Striped_counter.get c);
  C.Striped_counter.add c (-40_000);
  check ci "add negative" 0 (C.Striped_counter.get c);
  C.Striped_counter.incr c;
  C.Striped_counter.reset c;
  check ci "reset" 0 (C.Striped_counter.get c)

let test_nn_counter () =
  let c = C.Nn_counter.create () in
  check cb "decr at 0 fails" false (C.Nn_counter.try_decr c);
  C.Nn_counter.incr c;
  C.Nn_counter.incr c;
  check ci "value" 2 (C.Nn_counter.get c);
  check cb "decr ok" true (C.Nn_counter.try_decr c);
  check ci "after decr" 1 (C.Nn_counter.get c)

let test_nn_counter_never_negative () =
  let c = C.Nn_counter.create ~init:100 () in
  spawn_all 4 (fun _ ->
      for _ = 1 to 1_000 do
        ignore (C.Nn_counter.try_decr c)
      done);
  check ci "floor at zero" 0 (C.Nn_counter.get c)

(* ------------------------------------------------------------------ *)
(* Chashmap                                                             *)

let test_chashmap_basics () =
  let m = C.Chashmap.create () in
  check copt_i "get empty" None (C.Chashmap.get m 1);
  check copt_i "first put" None (C.Chashmap.put m 1 10);
  check copt_i "second put returns old" (Some 10) (C.Chashmap.put m 1 11);
  check copt_i "get" (Some 11) (C.Chashmap.get m 1);
  check cb "contains" true (C.Chashmap.contains m 1);
  check ci "size" 1 (C.Chashmap.size m);
  check copt_i "remove returns old" (Some 11) (C.Chashmap.remove m 1);
  check copt_i "remove absent" None (C.Chashmap.remove m 1);
  check ci "size after remove" 0 (C.Chashmap.size m)

let test_chashmap_put_if_absent () =
  let m = C.Chashmap.create () in
  check copt_i "absent" None (C.Chashmap.put_if_absent m 1 10);
  check copt_i "present" (Some 10) (C.Chashmap.put_if_absent m 1 99);
  check copt_i "unchanged" (Some 10) (C.Chashmap.get m 1)

let test_chashmap_compute () =
  let m = C.Chashmap.create () in
  ignore (C.Chashmap.compute m 1 (fun _ -> Some 5));
  check copt_i "computed in" (Some 5) (C.Chashmap.get m 1);
  ignore (C.Chashmap.compute m 1 (function Some v -> Some (v + 1) | None -> None));
  check copt_i "incremented" (Some 6) (C.Chashmap.get m 1);
  ignore (C.Chashmap.compute m 1 (fun _ -> None));
  check copt_i "removed" None (C.Chashmap.get m 1)

let test_chashmap_fold_clear () =
  let m = C.Chashmap.create () in
  for i = 1 to 10 do
    ignore (C.Chashmap.put m i i)
  done;
  check ci "fold sum" 55 (C.Chashmap.fold (fun _ v acc -> acc + v) m 0);
  check ci "bindings" 10 (List.length (C.Chashmap.bindings m));
  C.Chashmap.clear m;
  check ci "cleared" 0 (C.Chashmap.size m);
  check cb "is_empty" true (C.Chashmap.is_empty m)

let test_chashmap_concurrent () =
  let m = C.Chashmap.create () in
  spawn_all 4 (fun d ->
      for i = 0 to 2_499 do
        ignore (C.Chashmap.put m ((d * 2_500) + i) i)
      done);
  check ci "all inserted" 10_000 (C.Chashmap.size m);
  spawn_all 4 (fun d ->
      for i = 0 to 2_499 do
        ignore (C.Chashmap.remove m ((d * 2_500) + i))
      done);
  check ci "all removed" 0 (C.Chashmap.size m)

(* A stripe takes a key's home slot from the low bits of
   [Hashtbl.hash k]; a stripe chosen by those same bits would leave its
   keys only one home slot in 32, and Robin Hood runs would then push
   some keys 24 slots from home at 1,024 keys and 44 at 100,000 (the
   Fibonacci mix: 6 and 21). *)
let test_chashmap_probe_spread () =
  List.iter
    (fun (n, bound) ->
      let m = C.Chashmap.create () in
      for k = 0 to n - 1 do
        ignore (C.Chashmap.put m k ())
      done;
      let longest = C.Chashmap.max_probe_length m in
      if longest > bound then
        Alcotest.failf "%d keys: longest probe %d, expected <= %d" n longest
          bound)
    [ (1_024, 16); (100_000, 32) ]

(* Bindings inline in one flat array per stripe, grown past 4/5 load:
   about 2.7 and 2.6 words per binding at 50k and 100k keys, where a
   [Hashtbl] stripe spent 4.7. *)
let test_chashmap_footprint () =
  List.iter
    (fun n ->
      let m = C.Chashmap.create () in
      for k = 0 to n - 1 do
        ignore (C.Chashmap.put m k k)
      done;
      let per_binding = float (Obj.reachable_words (Obj.repr m)) /. float n in
      if per_binding > 3.0 then
        Alcotest.failf "%d keys: %.2f words per binding, expected <= 3.0" n
          per_binding)
    [ 50_000; 100_000 ]

(* White-box view of a [Chashmap.t] (see chashmap.ml): field 0 is the
   stripe array, and a stripe is [{ m; slots; used; count }], [slots]
   the flat [| k0; v0; k1; v1; ... |] array and [used] its occupied
   slots.  The empty-slot sentinel is read out of a fresh map. *)
let chashmap_stripes m =
  let stripe s : Obj.t * int = (Obj.field s 1, Obj.obj (Obj.field s 2)) in
  Array.to_list (Array.map stripe (Obj.obj (Obj.field (Obj.repr m) 0)))

let chashmap_empty_slot =
  match chashmap_stripes (C.Chashmap.create ~stripes:1 ()) with
  | [ (slots, _) ] -> Obj.field slots 0
  | _ -> assert false

(* Each stripe array is not a flat float array, holds 2 x a power of
   two slots, counts its occupied slots in [used], is at most 4/5 full
   and at least 1/4 full unless at its initial 32 slots, and empties
   both halves of a free slot.  Every key is reachable from its home slot
   without crossing an empty slot, and runs are Robin Hood ordered: a
   slot's distance from home is at most one more than its
   predecessor's. *)
let chashmap_well_formed m =
  List.for_all
    (fun (slots, used) ->
      let cap = Obj.size slots / 2 in
      let mask = cap - 1 in
      let key i = Obj.field slots (2 * i) in
      let free i = key i == chashmap_empty_slot in
      let dist i = (i - Hashtbl.hash (key i)) land mask in
      let reachable i =
        List.for_all (fun d -> not (free ((i - d) land mask)))
          (List.init (dist i) succ)
      in
      let all = List.init cap Fun.id in
      let occupied = List.filter (fun i -> not (free i)) all in
      Obj.tag slots <> Obj.double_array_tag
      && cap > 0
      && cap land mask = 0
      && List.length occupied = used
      && 5 * used <= 4 * cap
      && (cap = 32 || 4 * used >= cap)
      && List.for_all
           (fun i -> Obj.field slots ((2 * i) + 1) == chashmap_empty_slot)
           (List.filter free all)
      && List.for_all
           (fun i ->
             reachable i
             && (dist i = 0 || dist i <= dist ((i - 1) land mask) + 1))
           occupied)
    (chashmap_stripes m)

(* Keys whose hashes all end in 0b11111xx: at capacities 32 to 128
   every one of them is homed in the last four slots, so probe runs wrap
   past the array's end and removals shift entries back across the
   wrap; 96 of them take one stripe through two grows (32 to 128
   slots) and back. *)
let wrapping_keys =
  Seq.ints 0
  |> Seq.filter (fun k -> Hashtbl.hash k land 127 >= 124)
  |> Seq.take 96 |> Array.of_seq

type 'v chm_op =
  | Put of 'v
  | Put_if_absent of 'v
  | Remove
  | Get
  | Compute_bump
  | Compute_drop_even
  | Clear

(* A put-heavy run that grows a stripe, then a remove-heavy run that
   shrinks it again. *)
let chm_ops_gen key value =
  let phase ~puts ~removes =
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (pair key
           (frequency
              [
                (2 * puts, map (fun v -> Put v) value);
                (puts, map (fun v -> Put_if_absent v) value);
                (puts, return Compute_bump);
                (removes, return Remove);
                (removes, return Compute_drop_even);
                (20, return Get);
                (1, return Clear);
              ])))
  in
  QCheck2.Gen.map2 ( @ ) (phase ~puts:20 ~removes:10) (phase ~puts:5 ~removes:40)

(* Runs [ops] on a map and on a Stdlib [Hashtbl] model, checking each
   result, the bindings and size at the end, and [chashmap_well_formed]
   after every op.  [bump] and [even] fix [compute]'s callbacks for the
   value type. *)
let prop_chashmap_model ~stripes ~bump ~even ops =
  let m = C.Chashmap.create ~stripes () and model = Hashtbl.create 16 in
  let step (k, op) =
    let old = Hashtbl.find_opt model k in
    let set = function
      | Some v -> Hashtbl.replace model k v
      | None -> Hashtbl.remove model k
    in
    let ok =
      match op with
      | Put v ->
          set (Some v);
          C.Chashmap.put m k v = old
      | Put_if_absent v ->
          if old = None then set (Some v);
          C.Chashmap.put_if_absent m k v = old
      | Remove ->
          set None;
          C.Chashmap.remove m k = old
      | Get ->
          C.Chashmap.get m k = old && C.Chashmap.contains m k = (old <> None)
      | Compute_bump ->
          let f o = Some (bump o) in
          set (f old);
          C.Chashmap.compute m k f = old
      | Compute_drop_even ->
          let f = function Some v when even v -> None | o -> o in
          set (f old);
          C.Chashmap.compute m k f = old
      | Clear ->
          Hashtbl.reset model;
          C.Chashmap.clear m;
          true
    in
    ok && chashmap_well_formed m
  in
  List.for_all step ops
  && C.Chashmap.size m = Hashtbl.length model
  && List.sort compare (C.Chashmap.bindings m)
     = List.sort compare (List.of_seq (Hashtbl.to_seq model))

let chm_int_gen key =
  chm_ops_gen key QCheck2.Gen.(int_range 0 1000)

let prop_chashmap_ints ~stripes =
  prop_chashmap_model ~stripes
    ~bump:(function Some v -> v + 1 | None -> 0)
    ~even:(fun v -> v land 1 = 0)

(* Float keys and values are boxed in the slots; a stripe array made
   from a float initializer would be a flat float array, which
   [chashmap_well_formed] rejects. *)
let chm_float_gen =
  chm_ops_gen
    QCheck2.Gen.(map (fun i -> Stdlib.float i /. 4.) (int_range 0 200))
    QCheck2.Gen.(map (fun v -> Stdlib.float v +. 0.5) (int_range 0 1000))

let prop_chashmap_floats =
  prop_chashmap_model ~stripes:1
    ~bump:(function Some v -> v +. 1. | None -> 0.5)
    ~even:(fun v -> Float.rem v 2. < 1.)

let test_chashmap_raise_unlocks () =
  let m = C.Chashmap.create () in
  ignore (C.Chashmap.put m 1 10);
  (match C.Chashmap.compute m 1 (fun _ -> raise Exit) with
  | _ -> Alcotest.fail "compute swallowed the callback's exception"
  | exception Exit -> ());
  check copt_i "stripe unlocked: put of the same key" (Some 10)
    (C.Chashmap.put m 1 11);
  check copt_i "put applied" (Some 11) (C.Chashmap.get m 1)

(* ------------------------------------------------------------------ *)
(* Hamt (property-tested against Stdlib Map)                            *)

module IntMap = Map.Make (Int)

let hamt_ops_gen =
  QCheck2.Gen.(
    list
      (pair (int_range 0 200)
         (oneof [ return `Remove; map (fun v -> `Put v) (int_range 0 1000) ])))

let apply_hamt ?(hash = Hashtbl.hash) ops =
  List.fold_left
    (fun (h, m) (k, op) ->
      match op with
      | `Put v ->
          (fst (C.Hamt.add ~hash ~equal:Int.equal k v h), IntMap.add k v m)
      | `Remove ->
          (fst (C.Hamt.remove ~hash ~equal:Int.equal k h), IntMap.remove k m))
    (C.Hamt.empty, IntMap.empty) ops

let prop_hamt_model ?(hash = Hashtbl.hash) ops =
  let h, m = apply_hamt ~hash ops in
  IntMap.for_all (fun k v -> C.Hamt.find ~hash ~equal:Int.equal k h = Some v) m
  && C.Hamt.cardinal h = IntMap.cardinal m
  && C.Hamt.fold (fun k v ok -> ok && IntMap.find_opt k m = Some v) h true

let prop_hamt_well_formed ?(hash = Hashtbl.hash) ops =
  let h, _ = apply_hamt ~hash ops in
  C.Hamt.well_formed ~hash h

(* Low-entropy hashes: four full hashes that part at the root chunk,
   and two that agree on every chunk but the last ([lsl 25] is the
   sixth 5-bit slice).  Random puts and removes over 201 keys then run
   leaf -> bucket, bucket -> leaf, and splits of leaves and buckets. *)
let low_entropy_hashes =
  [
    ("k land 3", fun k -> k land 3);
    ("(k land 1) lsl 25", fun k -> (k land 1) lsl 25);
  ]

(* White-box view of a trie.  A [Hamt] node is one [Obj.t array],
   [| datamap; nodemap; k0; v0; ...; child(n-1); ...; child0 |], or
   [| -1; hash; k0; v0; ... |] for a collision node.  [Node] lists its
   bindings in datamap order and its children in nodemap order. *)
type ('k, 'v) shape =
  | Node of int * int * ('k * 'v) list * ('k, 'v) shape list
  | Collision of int * ('k * 'v) list

let popcount m =
  let rec go m n = if m = 0 then n else go (m land (m - 1)) (n + 1) in
  go m 0

let rec shape_of_array (a : Obj.t array) =
  let n = Array.length a in
  let m : int = Obj.obj a.(0) and m1 : int = Obj.obj a.(1) in
  let pairs stop =
    List.init ((stop - 2) / 2) (fun p ->
        (Obj.obj a.(2 + (2 * p)), Obj.obj a.(3 + (2 * p))))
  in
  if m < 0 then Collision (m1, pairs n)
  else
    let stop = 2 + (2 * popcount m) in
    Node
      ( m,
        m1,
        pairs stop,
        List.init (n - stop) (fun c -> shape_of_array (Obj.obj a.(n - 1 - c)))
      )

let shape (t : ('k, 'v) C.Hamt.t) : ('k, 'v) shape =
  shape_of_array (Obj.magic t)

(* Lays the shape out literally, whatever its bitmaps say, so malformed
   tries can be built.  [Array.of_list] makes the array from its head,
   the int in slot 0, so it is never a flat float array. *)
let rec array_of_shape s : Obj.t array =
  let flat = List.concat_map (fun (k, v) -> [ Obj.repr k; Obj.repr v ]) in
  match s with
  | Node (dmap, nmap, kvs, children) ->
      Array.of_list
        ((Obj.repr dmap :: Obj.repr nmap :: flat kvs)
        @ List.rev_map (fun c -> Obj.repr (array_of_shape c)) children)
  | Collision (h, kvs) ->
      Array.of_list (Obj.repr (-1) :: Obj.repr h :: flat kvs)

let of_shape (s : ('k, 'v) shape) : ('k, 'v) C.Hamt.t =
  Obj.magic (array_of_shape s)

(* Node levels on the deepest path; a collision node counts none. *)
let rec depth = function
  | Collision _ -> 0
  | Node (_, _, _, children) ->
      1 + List.fold_left (fun d c -> max d (depth c)) 0 children

let hamt_of ~hash keys =
  List.fold_left
    (fun h k -> fst (C.Hamt.add ~hash ~equal:Int.equal k k h))
    C.Hamt.empty keys

let test_hamt_shape_transitions () =
  let hash k = k land 3 and equal = Int.equal in
  let add k h = fst (C.Hamt.add ~hash ~equal k k h) in
  let remove k h = fst (C.Hamt.remove ~hash ~equal k h) in
  let is_shape name want h =
    check cb name true (want (shape h));
    check cb (name ^ ": well-formed") true (C.Hamt.well_formed ~hash h)
  in
  let h = add 0 C.Hamt.empty in
  is_shape "one binding sits inline in the root"
    (function Node (0b1, 0, [ (0, 0) ], []) -> true | _ -> false)
    h;
  let h = add 4 h in
  is_shape "binding -> collision node"
    (function
      | Node (0, 0b1, [], [ Collision (0, kvs) ]) -> List.length kvs = 2
      | _ -> false)
    h;
  let h = add 1 h in
  is_shape "inline binding beside a collision node"
    (function
      | Node (0b10, 0b1, [ (1, 1) ], [ Collision _ ]) -> true | _ -> false)
    h;
  let h = add 5 h in
  is_shape "binding -> collision node beside another"
    (function
      | Node (0, 0b11, [], [ Collision (0, _); Collision (1, _) ]) -> true
      | _ -> false)
    h;
  let h = remove 5 h in
  is_shape "collision node -> inline binding"
    (function
      | Node (0b10, 0b1, [ (1, 1) ], [ Collision _ ]) -> true | _ -> false)
    h;
  let h = remove 4 (remove 1 h) in
  is_shape "collapsed to one root binding"
    (function Node (0b1, 0, [ (0, 0) ], []) -> true | _ -> false)
    h;
  let h = add 2 h in
  is_shape "two root bindings"
    (function
      | Node (0b101, 0, [ (0, 0); (2, 2) ], []) -> true | _ -> false)
    h;
  (* Two hashes that first differ in the sixth chunk. *)
  let hash k = (k land 1) lsl 25 in
  let h = hamt_of ~hash [ 0; 1 ] in
  check ci "split at the last level" 6 (depth (shape h));
  check cb "deep split well-formed" true (C.Hamt.well_formed ~hash h);
  let h = fst (C.Hamt.remove ~hash ~equal 1 h) in
  check cb "deep chain collapses to one root binding" true
    (match shape h with Node (0b1, 0, [ (0, 0) ], []) -> true | _ -> false);
  (* A collision node split from a binding five levels down rises back
     to the root's slot when the binding leaves. *)
  let h = hamt_of ~hash [ 0; 2; 1 ] in
  check ci "collision split at the last level" 6 (depth (shape h));
  check cb "collision split well-formed" true (C.Hamt.well_formed ~hash h);
  let h = fst (C.Hamt.remove ~hash ~equal 1 h) in
  check cb "collision node lifted to the root's slot" true
    (match shape h with
    | Node (0, 0b1, [], [ Collision (0, _) ]) -> true
    | _ -> false);
  check cb "lifted trie well-formed" true (C.Hamt.well_formed ~hash h)

(* One malformed trie per invariant of [Hamt.well_formed]; each breaks
   only that invariant. *)
let test_hamt_well_formed_rejects () =
  let hash k = k land 3 in
  let rejects name s =
    check cb name false (C.Hamt.well_formed ~hash (of_shape s))
  in
  let coll = Collision (0, [ (4, 4); (8, 8) ]) in
  rejects "datamap and nodemap overlap"
    (Node (0b11, 0b01, [ (0, 0); (1, 1) ], [ coll ]));
  rejects "length disagrees with the bitmaps"
    (Node (0b11, 0, [ (0, 0) ], []));
  rejects "sub-node with one binding and no children"
    (Node (0, 0b1, [], [ Node (0b1, 0, [ (0, 0) ], []) ]));
  rejects "empty sub-node"
    (Node (0b10, 0b1, [ (1, 1) ], [ Node (0, 0, [], []) ]));
  rejects "sub-node holding only a collision node"
    (Node (0, 0b1, [], [ Node (0, 0b1, [], [ coll ]) ]));
  rejects "collision node of one binding"
    (Node (0, 0b1, [], [ Collision (0, [ (0, 0) ]) ]));
  rejects "collision node off its hash"
    (Node (0b10, 0b1, [ (1, 1) ], [ Collision (0, [ (0, 0); (5, 5) ]) ]));
  rejects "binding off its path" (Node (0b11, 0, [ (1, 1); (0, 0) ], []));
  rejects "collision node off its path"
    (Node (0b1, 0b10, [ (0, 0) ], [ coll ]));
  rejects "collision node at the root" (Collision (0, [ (0, 0); (4, 4) ]));
  check cb "empty trie" true (C.Hamt.well_formed ~hash C.Hamt.empty);
  check cb "the root may hold one binding" true
    (C.Hamt.well_formed ~hash (of_shape (Node (0b1, 0, [ (0, 0) ], []))))

let test_hamt_remove_canonical () =
  let hash = Hashtbl.hash and equal = Int.equal in
  let h = hamt_of ~hash (List.init 1_000 Fun.id) in
  let h =
    List.fold_left
      (fun h k -> fst (C.Hamt.remove ~hash ~equal k h))
      h
      (List.init 999 (fun i -> i + 1))
  in
  check cb "one root binding" true
    (match shape h with Node (_, 0, [ (0, 0) ], []) -> true | _ -> false);
  check cb "well-formed" true (C.Hamt.well_formed ~hash h)

(* Bindings inline in one array per node: about 3.3 words per binding
   (key, value and a share of the node headers, bitmaps and child
   slots). *)
let test_hamt_footprint () =
  let n = 100_000 in
  let h = hamt_of ~hash:Hashtbl.hash (List.init n Fun.id) in
  let per_binding = float (Obj.reachable_words (Obj.repr h)) /. float n in
  if per_binding > 3.6 then
    Alcotest.failf "%.2f reachable words per binding, expected <= 3.6"
      per_binding

(* Float keys and values are boxed inside the nodes; a node array made
   from a float initializer would be a flat float array instead. *)
module FloatMap = Map.Make (Float)

let hamt_float_ops_gen =
  QCheck2.Gen.(
    list
      (pair
         (map (fun i -> Stdlib.float i /. 4.) (int_range 0 200))
         (oneof
            [
              return `Remove;
              map (fun v -> `Put (Stdlib.float v +. 0.5)) (int_range 0 1000);
            ])))

(* Every node array reachable from [a]; a flat float array is not
   descended into. *)
let rec node_arrays (a : Obj.t) =
  if Obj.tag a = Obj.double_array_tag then [ a ]
  else
    let arr : Obj.t array = Obj.obj a in
    let m : int = Obj.obj arr.(0) in
    let stop = if m < 0 then Array.length arr else 2 + (2 * popcount m) in
    a
    :: List.concat_map
         (fun c -> node_arrays arr.(stop + c))
         (List.init (Array.length arr - stop) Fun.id)

let prop_hamt_floats ~hash ops =
  let equal = Float.equal in
  let h, m =
    List.fold_left
      (fun (h, m) (k, op) ->
        match op with
        | `Put v -> (fst (C.Hamt.add ~hash ~equal k v h), FloatMap.add k v m)
        | `Remove ->
            (fst (C.Hamt.remove ~hash ~equal k h), FloatMap.remove k m))
      (C.Hamt.empty, FloatMap.empty)
      ops
  in
  FloatMap.for_all (fun k v -> C.Hamt.find ~hash ~equal k h = Some v) m
  && C.Hamt.cardinal h = FloatMap.cardinal m
  && C.Hamt.fold (fun k v ok -> ok && FloatMap.find_opt k m = Some v) h true
  && C.Hamt.well_formed ~hash h
  && List.for_all
       (fun a -> Obj.tag a <> Obj.double_array_tag)
       (node_arrays (Obj.repr h))

let test_hamt_collisions () =
  (* Same hash for every key forces collision buckets. *)
  let hash _ = 7 in
  let equal = Int.equal in
  let h, old = C.Hamt.add ~hash ~equal 1 10 C.Hamt.empty in
  check copt_i "fresh" None old;
  let h, _ = C.Hamt.add ~hash ~equal 2 20 h in
  let h, old = C.Hamt.add ~hash ~equal 1 11 h in
  check copt_i "replaced in bucket" (Some 10) old;
  check copt_i "find 1" (Some 11) (C.Hamt.find ~hash ~equal 1 h);
  check copt_i "find 2" (Some 20) (C.Hamt.find ~hash ~equal 2 h);
  let h, old = C.Hamt.remove ~hash ~equal 1 h in
  check copt_i "removed" (Some 11) old;
  check copt_i "gone" None (C.Hamt.find ~hash ~equal 1 h);
  check ci "one left" 1 (C.Hamt.cardinal h)

(* ------------------------------------------------------------------ *)
(* Ctrie                                                                *)

let test_ctrie_basics () =
  let c = C.Ctrie.create () in
  check copt_i "empty" None (C.Ctrie.get c 1);
  check copt_i "put fresh" None (C.Ctrie.put c 1 10);
  check copt_i "put old" (Some 10) (C.Ctrie.put c 1 11);
  check copt_i "put_if_absent" (Some 11) (C.Ctrie.put_if_absent c 1 99);
  check ci "size" 1 (C.Ctrie.size c);
  check copt_i "remove" (Some 11) (C.Ctrie.remove c 1);
  check cb "empty again" true (C.Ctrie.is_empty c)

let test_ctrie_snapshot_isolation () =
  let c = C.Ctrie.create () in
  for i = 0 to 99 do
    ignore (C.Ctrie.put c i i)
  done;
  let snap = C.Ctrie.snapshot c in
  for i = 0 to 99 do
    ignore (C.Ctrie.remove c i)
  done;
  check ci "live empty" 0 (C.Ctrie.size c);
  check ci "snapshot intact" 100 (C.Ctrie.Snapshot.size snap);
  check copt_i "snapshot find" (Some 42) (C.Ctrie.Snapshot.find snap 42);
  (* Pure updates on the snapshot do not disturb the live map. *)
  let snap2, old = C.Ctrie.Snapshot.add snap 1000 1 in
  check copt_i "pure add" None old;
  check ci "snapshot2 size" 101 (C.Ctrie.Snapshot.size snap2);
  check copt_i "live unaffected" None (C.Ctrie.get c 1000)

let test_ctrie_concurrent () =
  let c = C.Ctrie.create () in
  spawn_all 4 (fun d ->
      for i = 0 to 1_999 do
        ignore (C.Ctrie.put c ((d * 2_000) + i) i)
      done);
  check ci "concurrent puts" 8_000 (C.Ctrie.size c);
  let snaps = Array.make 4 None in
  spawn_all 4 (fun d ->
      for i = 0 to 1_999 do
        if i = 1_000 then snaps.(d) <- Some (C.Ctrie.snapshot c);
        ignore (C.Ctrie.remove c ((d * 2_000) + i))
      done);
  check ci "concurrent removes" 0 (C.Ctrie.size c);
  Array.iter
    (fun s ->
      match s with
      | None -> Alcotest.fail "missing snapshot"
      | Some s ->
          check cb "mid-flight snapshot plausible" true
            (C.Ctrie.Snapshot.size s > 0 && C.Ctrie.Snapshot.size s <= 8_000))
    snaps

let test_ctrie_cas_root () =
  let c = C.Ctrie.create () in
  ignore (C.Ctrie.put c 1 1);
  let s = C.Ctrie.snapshot c in
  let s', _ = C.Ctrie.Snapshot.add s 2 2 in
  check cb "cas succeeds on unchanged" true
    (Atomic.compare_and_set (C.Ctrie.root c) s s');
  check copt_i "installed" (Some 2) (C.Ctrie.get c 2);
  check cb "cas fails on stale" false
    (Atomic.compare_and_set (C.Ctrie.root c) s s')

(* Removing an absent key is a physically unchanged step, so
   [Root.update] writes nothing: the root keeps the very same state. *)
let test_absent_remove_keeps_root () =
  let c = C.Ctrie.create () in
  ignore (C.Ctrie.put c 1 1);
  let before = C.Ctrie.snapshot c in
  check copt_i "ctrie absent" None (C.Ctrie.remove c 2);
  check cb "ctrie root unchanged" true (C.Ctrie.snapshot c == before);
  let m = Atomic.make (fst (C.Cow_omap.Snapshot.add (C.Cow_omap.empty ()) 1 1)) in
  let before = Atomic.get m in
  check copt_i "omap absent" None
    (C.Root.update m (fun s -> C.Cow_omap.Snapshot.remove s 2));
  check cb "omap root unchanged" true (Atomic.get m == before)

(* ------------------------------------------------------------------ *)
(* Pheap                                                                *)

let prop_pheap_sorted l =
  let h = C.Pheap.of_list ~cmp:Int.compare l in
  C.Pheap.to_sorted_list ~cmp:Int.compare h = List.sort Int.compare l

let prop_pheap_well_formed l =
  C.Pheap.well_formed ~cmp:Int.compare (C.Pheap.of_list ~cmp:Int.compare l)

let test_pheap_merge_remove () =
  let cmp = Int.compare in
  let a = C.Pheap.of_list ~cmp [ 5; 1; 9 ] in
  let b = C.Pheap.of_list ~cmp [ 2; 7 ] in
  let m = C.Pheap.merge ~cmp a b in
  check copt_i "min of merge" (Some 1) (C.Pheap.find_min m);
  check ci "merged size" 5 (C.Pheap.size m);
  check cb "mem" true (C.Pheap.mem ~cmp 7 m);
  let m', removed = C.Pheap.remove ~cmp 7 m in
  check cb "removed" true removed;
  check cb "no longer mem" false (C.Pheap.mem ~cmp 7 m');
  let _, removed = C.Pheap.remove ~cmp 100 m' in
  check cb "remove absent" false removed

(* ------------------------------------------------------------------ *)
(* Cow_pqueue                                                           *)

let test_cow_pqueue_basics () =
  let q = C.Cow_pqueue.create ~cmp:Int.compare () in
  check copt_i "peek empty" None (C.Cow_pqueue.peek q);
  check copt_i "poll empty" None (C.Cow_pqueue.poll q);
  C.Cow_pqueue.add q 5;
  C.Cow_pqueue.add q 1;
  C.Cow_pqueue.add q 3;
  check copt_i "peek min" (Some 1) (C.Cow_pqueue.peek q);
  check ci "size" 3 (C.Cow_pqueue.size q);
  check cb "contains" true (C.Cow_pqueue.contains q 3);
  check cb "remove" true (C.Cow_pqueue.remove q 3);
  check cb "remove gone" false (C.Cow_pqueue.remove q 3);
  check copt_i "poll" (Some 1) (C.Cow_pqueue.poll q);
  check copt_i "poll" (Some 5) (C.Cow_pqueue.poll q);
  check cb "empty" true (C.Cow_pqueue.is_empty q)

let test_cow_pqueue_snapshot () =
  let q = C.Cow_pqueue.create ~cmp:Int.compare () in
  List.iter (C.Cow_pqueue.add q) [ 4; 2; 6 ];
  let s = C.Cow_pqueue.snapshot q in
  ignore (C.Cow_pqueue.poll q);
  check clist_i "snapshot unchanged" [ 2; 4; 6 ]
    (C.Cow_pqueue.Snapshot.to_sorted_list s);
  let s' = C.Cow_pqueue.Snapshot.add s 1 in
  check copt_i "pure add" (Some 1) (C.Cow_pqueue.Snapshot.peek s');
  check ci "live not disturbed" 2 (C.Cow_pqueue.size q)

let test_cow_pqueue_concurrent () =
  let q = C.Cow_pqueue.create ~cmp:Int.compare () in
  spawn_all 4 (fun d ->
      for i = 0 to 499 do
        C.Cow_pqueue.add q ((i * 4) + d)
      done);
  let out = ref [] in
  for _ = 1 to 2_000 do
    out := Option.get (C.Cow_pqueue.poll q) :: !out
  done;
  check clist_i "drained in order" (List.init 2_000 Fun.id) (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Blocking_pqueue                                                      *)

let test_blocking_pqueue_basics () =
  let q = C.Blocking_pqueue.create ~cmp:Int.compare () in
  check copt_i "poll empty" None (C.Blocking_pqueue.poll q);
  let h5 = C.Blocking_pqueue.add q 5 in
  let _ = C.Blocking_pqueue.add q 2 in
  let h8 = C.Blocking_pqueue.add q 8 in
  check ci "value of handle" 5 (C.Blocking_pqueue.handle_value h5);
  check copt_i "peek" (Some 2) (C.Blocking_pqueue.peek q);
  check cb "delete live" true (C.Blocking_pqueue.delete q h5);
  check cb "delete dead" false (C.Blocking_pqueue.delete q h5);
  check ci "size skips dead" 2 (C.Blocking_pqueue.size q);
  check copt_i "poll" (Some 2) (C.Blocking_pqueue.poll q);
  check copt_i "poll skips deleted" (Some 8) (C.Blocking_pqueue.poll q);
  check cb "poll claims handle" false (C.Blocking_pqueue.delete q h8)

let test_blocking_pqueue_compaction () =
  let q = C.Blocking_pqueue.create ~cmp:Int.compare () in
  let handles = Array.init 200 (fun i -> C.Blocking_pqueue.add q i) in
  Array.iteri
    (fun i h -> if i > 0 then ignore (C.Blocking_pqueue.delete q h))
    handles;
  check ci "one live" 1 (C.Blocking_pqueue.size q);
  check copt_i "live min" (Some 0) (C.Blocking_pqueue.peek q);
  check clist_i "sorted list" [ 0 ] (C.Blocking_pqueue.to_sorted_list q)

let test_blocking_pqueue_concurrent () =
  let q = C.Blocking_pqueue.create ~cmp:Int.compare () in
  spawn_all 4 (fun d ->
      for i = 0 to 499 do
        ignore (C.Blocking_pqueue.add q ((i * 4) + d))
      done);
  check ci "all in" 2_000 (C.Blocking_pqueue.size q);
  let popped = Atomic.make 0 in
  spawn_all 4 (fun _ ->
      for _ = 1 to 500 do
        if C.Blocking_pqueue.poll q <> None then Atomic.incr popped
      done);
  check ci "all popped" 2_000 (Atomic.get popped);
  check cb "empty" true (C.Blocking_pqueue.is_empty q)

let suite =
  [
    test "rw_lock shared readers" test_rw_shared_readers;
    test "rw_lock writer excludes" test_rw_writer_excludes;
    test "rw_lock reentrant" test_rw_reentrant;
    test "rw_lock upgrade" test_rw_upgrade;
    test "rw_lock holder introspection" test_rw_holder_introspection;
    slow "rw_lock contention" test_rw_contention;
    slow "striped counter" test_striped_counter;
    test "nn counter" test_nn_counter;
    slow "nn counter floor" test_nn_counter_never_negative;
    test "chashmap basics" test_chashmap_basics;
    test "chashmap put_if_absent" test_chashmap_put_if_absent;
    test "chashmap compute" test_chashmap_compute;
    test "chashmap fold/clear" test_chashmap_fold_clear;
    slow "chashmap concurrent" test_chashmap_concurrent;
    test "chashmap probe spread" test_chashmap_probe_spread;
    test "chashmap footprint per binding" test_chashmap_footprint;
    qcheck "chashmap matches Hashtbl model, wrapping runs"
      (chm_int_gen QCheck2.Gen.(oneofa wrapping_keys))
      (prop_chashmap_ints ~stripes:1);
    qcheck "chashmap matches Hashtbl model, 32 stripes"
      (chm_int_gen QCheck2.Gen.(int_range 0 300))
      (prop_chashmap_ints ~stripes:32);
    qcheck "chashmap float keys and values" chm_float_gen prop_chashmap_floats;
    test "chashmap unlocks when compute raises" test_chashmap_raise_unlocks;
    qcheck "hamt matches Map model" hamt_ops_gen prop_hamt_model;
    qcheck "hamt well-formed" hamt_ops_gen prop_hamt_well_formed;
    test "hamt collision buckets" test_hamt_collisions;
    test "hamt shape transitions" test_hamt_shape_transitions;
    test "hamt well_formed rejects malformed shapes"
      test_hamt_well_formed_rejects;
    test "hamt remove keeps the trie canonical" test_hamt_remove_canonical;
    test "hamt footprint per binding" test_hamt_footprint;
  ]
  @ List.concat_map
      (fun (name, hash) ->
        [
          qcheck ("hamt matches Map model, hash " ^ name) hamt_ops_gen
            (prop_hamt_model ~hash);
          qcheck ("hamt well-formed, hash " ^ name) hamt_ops_gen
            (prop_hamt_well_formed ~hash);
          qcheck ("hamt float keys and values, hash " ^ name)
            hamt_float_ops_gen
            (prop_hamt_floats ~hash:(fun k -> hash (Hashtbl.hash k)));
        ])
      low_entropy_hashes
  @ [
    test "ctrie basics" test_ctrie_basics;
    test "ctrie snapshot isolation" test_ctrie_snapshot_isolation;
    slow "ctrie concurrent" test_ctrie_concurrent;
    test "ctrie cas root" test_ctrie_cas_root;
    test "absent remove keeps the root" test_absent_remove_keeps_root;
    qcheck "pheap sorts" QCheck2.Gen.(list small_int) prop_pheap_sorted;
    qcheck "pheap heap-ordered" QCheck2.Gen.(list small_int)
      prop_pheap_well_formed;
    test "pheap merge/remove" test_pheap_merge_remove;
    test "cow pqueue basics" test_cow_pqueue_basics;
    test "cow pqueue snapshot" test_cow_pqueue_snapshot;
    slow "cow pqueue concurrent" test_cow_pqueue_concurrent;
    test "blocking pqueue basics" test_blocking_pqueue_basics;
    test "blocking pqueue compaction" test_blocking_pqueue_compaction;
    slow "blocking pqueue concurrent" test_blocking_pqueue_concurrent;
  ]
