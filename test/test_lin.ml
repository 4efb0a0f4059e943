(** One uniform entry point exercising the verification pipeline end
    to end: {!Timed_history} records raw concurrent operations,
    {!Lin_check} (Wing–Gong with memoization and subhistory
    partitioning) checks them linearizable against their {!Adt_model} —
    for {e every} module in [lib/concurrent] — and the
    {!Lin_harness.run_serializable} variant drives {e every} Proustian
    wrapper in [lib/structures] through {!History}/{!Serializability}
    under all five STM modes.

    A deliberately fenceless counter serves as the negative fixture:
    the checker must reject its lost-update histories. *)

open Util
module C = Proust_concurrent
module V = Proust_verify
module S = Proust_structures
module M = V.Adt_model

let icmp = Int.compare

(* ------------------------------------------------------------------ *)
(* Checker unit tests on hand-built histories                          *)

let ev ~domain ~start ~finish op ret =
  { V.Timed_history.domain; op; ret; start; finish }

let test_checker_accepts_sequential () =
  let m = M.counter ~bound:8 in
  let h =
    [
      ev ~domain:0 ~start:0 ~finish:1 M.Incr M.Ok_unit;
      ev ~domain:0 ~start:2 ~finish:3 M.Decr M.Decr_ok;
      ev ~domain:0 ~start:4 ~finish:5 M.Decr M.Decr_err;
    ]
  in
  check cb "sequential history accepted" true (V.Lin_check.check m ~init:0 h)

let test_checker_rejects_impossible_return () =
  let m = M.counter ~bound:8 in
  (* decr succeeding on an empty counter with no concurrent incr *)
  let h = [ ev ~domain:0 ~start:0 ~finish:1 M.Decr M.Decr_ok ] in
  check cb "impossible return rejected" false (V.Lin_check.check m ~init:0 h)

let test_checker_uses_overlap () =
  let m = M.small_queue () in
  (* The dequeue's interval overlaps the enqueue's, so the checker may
     linearize the enqueue first even though the dequeue was invoked
     earlier. *)
  let h =
    [
      ev ~domain:0 ~start:0 ~finish:5 M.QDeq (M.QVal (Some 1));
      ev ~domain:1 ~start:1 ~finish:2 (M.QEnq 1) M.QUnit;
    ]
  in
  check cb "overlapping ops may reorder" true (V.Lin_check.check m ~init:[] h)

let test_checker_respects_precedence () =
  let m = M.small_queue () in
  (* Here the enqueue strictly follows the dequeue's response, so the
     same return value has no explanation. *)
  let h =
    [
      ev ~domain:0 ~start:0 ~finish:1 M.QDeq (M.QVal (Some 1));
      ev ~domain:1 ~start:2 ~finish:3 (M.QEnq 1) M.QUnit;
    ]
  in
  check cb "real-time precedence enforced" false (V.Lin_check.check m ~init:[] h)

let test_checker_fifo_order () =
  let m = M.small_queue () in
  (* enq 0 then enq 1 sequentially; a dequeue returning 1 violates
     FIFO no matter how it overlaps. *)
  let h =
    [
      ev ~domain:0 ~start:0 ~finish:1 (M.QEnq 0) M.QUnit;
      ev ~domain:0 ~start:2 ~finish:3 (M.QEnq 1) M.QUnit;
      ev ~domain:1 ~start:4 ~finish:5 M.QDeq (M.QVal (Some 1));
    ]
  in
  check cb "fifo violation rejected" false (V.Lin_check.check m ~init:[] h)

let test_partitioning_matches_whole () =
  let m = M.small_map () in
  let key = function M.MGet k | M.MPut (k, _) | M.MRemove k -> k in
  let h =
    [
      ev ~domain:0 ~start:0 ~finish:3 (M.MPut (0, 1)) (M.MVal None);
      ev ~domain:1 ~start:1 ~finish:2 (M.MPut (1, 0)) (M.MVal None);
      ev ~domain:0 ~start:4 ~finish:6 (M.MGet 1) (M.MVal (Some 0));
      ev ~domain:1 ~start:5 ~finish:7 (M.MGet 0) (M.MVal (Some 1));
    ]
  in
  check cb "whole history linearizable" true (V.Lin_check.check m ~init:[] h);
  check cb "partitioned check agrees" true
    (V.Lin_check.check ~partition:key m ~init:[] h)

(* ------------------------------------------------------------------ *)
(* Shared runners: model op -> structure call                          *)

let expect_ok = function
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

let map_key = function M.MGet k | M.MPut (k, _) | M.MRemove k -> k

let map_runner ~get ~put ~remove op =
  match op with
  | M.MGet k -> M.MVal (get k)
  | M.MPut (k, v) -> M.MVal (put k v)
  | M.MRemove k -> M.MVal (remove k)

let pq_runner ~insert ~remove_min ~min ~contains op =
  match op with
  | M.PInsert v ->
      insert v;
      M.PUnit
  | M.PRemoveMin -> M.PVal (remove_min ())
  | M.PMin -> M.PVal (min ())
  | M.PContains v -> M.PBool (contains v)

let q_runner ~enq ~deq ~front op =
  match op with
  | M.QEnq v ->
      enq v;
      M.QUnit
  | M.QDeq -> M.QVal (deq ())
  | M.QFront -> M.QVal (front ())

let omap_runner ~get ~put ~remove ~range op =
  match op with
  | M.OGet k -> M.OVal (get k)
  | M.OPut (k, v) -> M.OVal (put k v)
  | M.ORemove k -> M.OVal (remove k)
  | M.ORange (lo, hi) -> M.OList (range lo hi)

(* Root cell turning a persistent core (Cow_omap, Hamt, Pheap,
   Pqueue_fifo) into a linearizable lock-free concurrent structure
   through the same [Root.update] that Ctrie/Cow_pqueue use, so these
   instances check the shipped retry loop. *)
type 'st cas = {
  update : 'r. ('st -> 'st * 'r) -> 'r;
  view : 'r. ('st -> 'r) -> 'r;
}

let cas_cell init =
  let root = Atomic.make init in
  {
    update = (fun f -> C.Root.update root f);
    view = (fun f -> f (Atomic.get root));
  }

(* Negative fixture's cell: get -> step -> plain [Atomic.set], no CAS,
   so concurrent updates overwrite each other. *)
let racy_cell init =
  let root = Atomic.make init in
  {
    update =
      (fun f ->
        let s = Atomic.get root in
        (* widen the read-modify-write race window *)
        for _ = 1 to 40 do
          Domain.cpu_relax ()
        done;
        let s', r = f s in
        Atomic.set root s';
        r);
    view = (fun f -> f (Atomic.get root));
  }

(* ------------------------------------------------------------------ *)
(* Linearizability instances: every module in lib/concurrent           *)

let chashmap_inst =
  V.Lin_harness.instance "chashmap" ~model:(M.small_map ()) ~init:[]
    ~partition:map_key (fun () ->
      let t = C.Chashmap.create () in
      map_runner ~get:(C.Chashmap.get t)
        ~put:(C.Chashmap.put t)
        ~remove:(C.Chashmap.remove t))

let ctrie_inst =
  V.Lin_harness.instance "ctrie" ~model:(M.small_map ()) ~init:[]
    ~partition:map_key (fun () ->
      let t = C.Ctrie.create () in
      map_runner ~get:(C.Ctrie.get t) ~put:(C.Ctrie.put t)
        ~remove:(C.Ctrie.remove t))

let hamt_inst =
  V.Lin_harness.instance "hamt (cas-wrapped)" ~model:(M.small_map ())
    ~init:[] ~partition:map_key (fun () ->
      let hash = Hashtbl.hash and equal = Int.equal in
      let c = cas_cell C.Hamt.empty in
      map_runner
        ~get:(fun k -> c.view (C.Hamt.find ~hash ~equal k))
        ~put:(fun k v -> c.update (C.Hamt.add ~hash ~equal k v))
        ~remove:(fun k -> c.update (C.Hamt.remove ~hash ~equal k)))

let cow_omap_inst =
  V.Lin_harness.instance "cow_omap (cas-wrapped)"
    ~model:(M.small_omap ~values:[ 0; 1 ] ())
    ~init:[]
    (fun () ->
      let c = cas_cell (C.Cow_omap.empty ~compare:icmp ()) in
      let module O = C.Cow_omap.Snapshot in
      omap_runner
        ~get:(fun k -> c.view (fun s -> O.find s k))
        ~put:(fun k v -> c.update (fun s -> O.add s k v))
        ~remove:(fun k -> c.update (fun s -> O.remove s k))
        ~range:(fun lo hi -> c.view (O.range ~lo ~hi)))

let cow_queue_inst =
  V.Lin_harness.instance "cow_queue" ~model:(M.small_queue ()) ~init:[]
    (fun () ->
      let t = C.Cow_queue.create () in
      q_runner ~enq:(C.Cow_queue.enqueue t)
        ~deq:(fun () -> C.Cow_queue.dequeue t)
        ~front:(fun () -> C.Cow_queue.peek t))

let fifo_inst name cell =
  V.Lin_harness.instance name ~model:(M.small_queue ()) ~init:[] (fun () ->
      let c = cell C.Pqueue_fifo.empty in
      q_runner
        ~enq:(fun v -> c.update (fun q -> (C.Pqueue_fifo.enqueue q v, ())))
        ~deq:(fun () -> c.update C.Cow_queue.Snapshot.dequeue)
        ~front:(fun () -> c.view C.Pqueue_fifo.peek))

(* History length for the cas-wrapped queue and its racy negative
   fixture.  The unpartitioned queue search grows steeply with overlap:
   at 150 ops per domain a loaded 2-vCPU host sometimes exhausted the
   5M-configuration cap after a minute or more, at 60 it stayed under
   2 s in 1,500 loaded runs, and the racy cell is still rejected at this
   length. *)
let fifo_ops = 60

let pqueue_fifo_inst = fifo_inst "pqueue_fifo (cas-wrapped)" cas_cell

let cow_pqueue_inst =
  V.Lin_harness.instance "cow_pqueue" ~model:(M.small_pqueue ()) ~init:[]
    (fun () ->
      let t = C.Cow_pqueue.create ~cmp:icmp () in
      pq_runner ~insert:(C.Cow_pqueue.add t)
        ~remove_min:(fun () -> C.Cow_pqueue.poll t)
        ~min:(fun () -> C.Cow_pqueue.peek t)
        ~contains:(C.Cow_pqueue.contains t))

let blocking_pqueue_inst =
  V.Lin_harness.instance "blocking_pqueue" ~model:(M.small_pqueue ())
    ~init:[] (fun () ->
      let t = C.Blocking_pqueue.create ~cmp:icmp () in
      pq_runner
        ~insert:(fun v -> ignore (C.Blocking_pqueue.add t v))
        ~remove_min:(fun () -> C.Blocking_pqueue.poll t)
        ~min:(fun () -> C.Blocking_pqueue.peek t)
        ~contains:(C.Blocking_pqueue.contains t))

let pheap_inst =
  V.Lin_harness.instance "pheap (cas-wrapped)" ~model:(M.small_pqueue ())
    ~init:[] (fun () ->
      let c = cas_cell C.Pheap.empty in
      pq_runner
        ~insert:(fun v ->
          c.update (fun h -> (C.Pheap.insert ~cmp:icmp v h, ())))
        ~remove_min:(fun () ->
          c.update (fun h ->
              match C.Pheap.delete_min ~cmp:icmp h with
              | None -> (h, None)
              | Some (v, h') -> (h', Some v)))
        ~min:(fun () -> c.view C.Pheap.find_min)
        ~contains:(fun v -> c.view (C.Pheap.mem ~cmp:icmp v)))

let deque_inst =
  V.Lin_harness.instance "deque" ~model:(M.small_deque ()) ~init:[]
    (fun () ->
      let t = C.Deque.create () in
      fun op ->
        match op with
        | M.DPushFront v ->
            ignore (C.Deque.push_front t v);
            M.DUnit
        | M.DPushBack v ->
            ignore (C.Deque.push_back t v);
            M.DUnit
        | M.DPopFront -> M.DVal (C.Deque.pop_front t)
        | M.DPopBack -> M.DVal (C.Deque.pop_back t)
        | M.DPeekFront -> M.DVal (C.Deque.peek_front t)
        | M.DPeekBack -> M.DVal (C.Deque.peek_back t))

let nn_counter_inst =
  V.Lin_harness.instance "nn_counter" ~model:(M.counter ~bound:4) ~init:0
    (fun () ->
      let t = C.Nn_counter.create () in
      fun op ->
        match op with
        | M.Incr ->
            C.Nn_counter.incr t;
            M.Ok_unit
        | M.Decr -> if C.Nn_counter.try_decr t then M.Decr_ok else M.Decr_err)

(* Striped counter: adds are unit-returning and commute, reads are only
   quiescently consistent — so the concurrent phase is adds only and a
   single post-join read validates the sum (the LongAdder contract). *)
type sc_op = ScAdd of int | ScRead
type sc_ret = ScUnit | ScInt of int

let sc_model : (int, sc_op, sc_ret) M.t =
  {
    M.name = "striped-counter";
    states = [];
    ops = [ ScAdd 1; ScAdd (-1); ScAdd 5 ];
    apply =
      (fun s op ->
        match op with
        | ScAdd n -> (s + n, ScUnit)
        | ScRead -> (s, ScInt s));
    equal_state = Int.equal;
    equal_ret = (fun a b -> a = b);
    show_state = string_of_int;
    show_op =
      (function ScAdd n -> Printf.sprintf "add(%d)" n | ScRead -> "read");
  }

let striped_counter_inst =
  V.Lin_harness.instance "striped_counter" ~model:sc_model ~init:0 (fun () ->
      let t = C.Striped_counter.create () in
      fun op ->
        match op with
        | ScAdd n ->
            C.Striped_counter.add t n;
            ScUnit
        | ScRead -> ScInt (C.Striped_counter.get t))

(* Rw_lock as an ADT: acquisitions are owner-stamped, each domain
   strictly alternates acquire/release so nothing is held across
   operations, and generous deadlines make timeouts unobservable.  A
   blocked acquisition's interval spans the unblocking release, so the
   checker can linearize them in the only sound order. *)
type lock_op = LAcqRead of int | LAcqWrite of int | LRelease of int
type lock_ret = LBool of bool | LUnit

let lock_model : (int list * int option, lock_op, lock_ret) M.t =
  {
    M.name = "rw-lock";
    states = [];
    ops = [];
    (* supplied by the custom per-domain generator *)
    apply =
      (fun (readers, writer) op ->
        let free_for d =
          match writer with None -> true | Some w -> w = d
        in
        match op with
        | LAcqRead d ->
            if free_for d then
              ((List.sort_uniq compare (d :: readers), writer), LBool true)
            else ((readers, writer), LBool false)
        | LAcqWrite d ->
            if free_for d && List.for_all (fun r -> r = d) readers then
              (([], Some d), LBool true)
            else ((readers, writer), LBool false)
        | LRelease d ->
            ( ( List.filter (fun r -> r <> d) readers,
                match writer with Some w when w = d -> None | w -> w ),
              LUnit ));
    equal_state = (fun a b -> a = b);
    equal_ret = (fun a b -> a = b);
    show_state =
      (fun (rs, w) ->
        Printf.sprintf "r{%s}/w%s"
          (String.concat "," (List.map string_of_int rs))
          (match w with None -> "-" | Some d -> string_of_int d));
    show_op =
      (function
      | LAcqRead d -> Printf.sprintf "acqR(%d)" d
      | LAcqWrite d -> Printf.sprintf "acqW(%d)" d
      | LRelease d -> Printf.sprintf "rel(%d)" d);
  }

let rw_lock_inst =
  V.Lin_harness.instance "rw_lock" ~model:lock_model ~init:([], None)
    ~gen:(fun rng ~domain ~step ->
      if step mod 2 = 1 then LRelease domain
      else if Random.State.bool rng then LAcqRead domain
      else LAcqWrite domain)
    (fun () ->
      let t = C.Rw_lock.create () in
      fun op ->
        let deadline = Clock.now_mono () +. 10.0 in
        match op with
        | LAcqRead d -> LBool (C.Rw_lock.try_acquire_read t ~owner:d ~deadline)
        | LAcqWrite d ->
            LBool (C.Rw_lock.try_acquire_write t ~owner:d ~deadline)
        | LRelease d ->
            C.Rw_lock.release_all t ~owner:d;
            LUnit)

let lin_cases =
  let case ?(domains = 4) ?(ops = 150) ?post inst =
    slow
      (Printf.sprintf "linearizable: %s" inst.V.Lin_harness.name)
      (fun () ->
        with_seed_note (fun () ->
            expect_ok
              (V.Lin_harness.run ~domains ~ops_per_domain:ops
                 ~seed:(sub_seed (Hashtbl.hash inst.V.Lin_harness.name))
                 ?post inst)))
  in
  [
    case chashmap_inst ~ops:400;
    case ctrie_inst ~ops:400;
    case hamt_inst;
    case cow_omap_inst ~ops:120;
    case cow_queue_inst;
    case pqueue_fifo_inst ~ops:fifo_ops;
    case cow_pqueue_inst;
    case blocking_pqueue_inst;
    case pheap_inst;
    case deque_inst;
    case nn_counter_inst;
    case striped_counter_inst ~ops:300 ~post:[ ScRead ];
    case rw_lock_inst ~ops:60;
  ]

(* ------------------------------------------------------------------ *)
(* Negative fixture: a fenceless counter must be caught                *)

let racy_counter () =
  let cell = ref 0 in
  fun op ->
    match op with
    | ScAdd n ->
        let v = !cell in
        (* widen the read-modify-write race window *)
        for _ = 1 to 40 do
          Domain.cpu_relax ()
        done;
        cell := v + n;
        ScUnit
    | ScRead -> ScInt !cell

let test_negative_fixture () =
  let inst =
    V.Lin_harness.instance "fenceless counter" ~model:sc_model ~init:0
      racy_counter
  in
  (* Lost updates are overwhelmingly likely in any one run; retry a few
     schedules so the test is deterministic in practice. *)
  let rec caught attempt =
    if attempt >= 10 then false
    else
      match
        V.Lin_harness.run ~domains:4 ~ops_per_domain:400
          ~seed:(sub_seed attempt) ~post:[ ScRead ] inst
      with
      | Error _ -> true
      | Ok _ -> caught (attempt + 1)
  in
  check cb "fenceless counter rejected by Lin_check" true (caught 0)

(* Negative fixture for [Root.update]: the same queue cell without the
   CAS loses updates, and the checker must say so at the bounded length
   (a rejection, not an exhausted search). *)
let test_racy_root_rejected () =
  let inst = fifo_inst "racy root" racy_cell in
  let rejects msg =
    let needle = "not linearizable" in
    let n = String.length needle in
    let rec at i =
      i + n <= String.length msg && (String.sub msg i n = needle || at (i + 1))
    in
    at 0
  in
  let rec caught attempt =
    if attempt >= 10 then false
    else
      match
        V.Lin_harness.run ~domains:4 ~ops_per_domain:fifo_ops
          ~seed:(sub_seed attempt) inst
      with
      | Error msg when rejects msg -> true
      | _ -> caught (attempt + 1)
  in
  check cb "racy root rejected by Lin_check" true (caught 0)

(* ------------------------------------------------------------------ *)
(* Serializability: every Proustian structure x every STM mode         *)

type ser_case =
  | Ser : {
      s_name : string;
      instance : ('s, 'o, 'r) V.Lin_harness.txn_instance;
      modes : (string * Stm.config) list;
    }
      -> ser_case

let pess = S.Trait.Pessimistic

let counter_txn lap =
  V.Lin_harness.txn_instance "p_counter" ~model:(M.obs_counter ~bound:4)
    ~init:0 (fun () ->
      let t = S.P_counter.make ~observable:true ~lap () in
      fun txn op ->
        match op with
        | M.CIncr ->
            S.P_counter.incr t txn;
            M.CUnit
        | M.CDecr -> M.CBool (S.P_counter.decr t txn)
        | M.CGet -> M.CInt (S.P_counter.value t txn))

let fifo_txn name make =
  V.Lin_harness.txn_instance name ~model:(M.small_queue ()) ~init:[]
    (fun () ->
      let enqueue, dequeue, front = make () in
      fun txn op ->
        match op with
        | M.QEnq v ->
            enqueue txn v;
            M.QUnit
        | M.QDeq -> M.QVal (dequeue txn)
        | M.QFront -> M.QVal (front txn))

let pq_txn name make =
  V.Lin_harness.txn_instance name ~model:(M.small_pqueue ()) ~init:[]
    (fun () ->
      let insert, remove_min, min, contains = make () in
      fun txn op ->
        match op with
        | M.PInsert v ->
            insert txn v;
            M.PUnit
        | M.PRemoveMin -> M.PVal (remove_min txn)
        | M.PMin -> M.PVal (min txn)
        | M.PContains v -> M.PBool (contains txn v))

let map_txn name (make : unit -> (int, int) S.Trait.Map.ops) =
  V.Lin_harness.txn_instance name ~model:(M.small_map ()) ~init:[]
    (fun () ->
      let ops = make () in
      fun txn op ->
        match op with
        | M.MGet k -> M.MVal (ops.S.Trait.Map.get txn k)
        | M.MPut (k, v) -> M.MVal (ops.S.Trait.Map.put txn k v)
        | M.MRemove k -> M.MVal (ops.S.Trait.Map.remove txn k))

let counter_ops_txn name (make : unit -> S.Trait.Counter.ops) =
  V.Lin_harness.txn_instance name ~model:(M.obs_counter ~bound:4) ~init:0
    (fun () ->
      let o = make () in
      fun txn op ->
        match op with
        | M.CIncr ->
            o.S.Trait.Counter.incr txn;
            M.CUnit
        | M.CDecr -> M.CBool (o.S.Trait.Counter.decr txn)
        | M.CGet -> M.CInt (o.S.Trait.Counter.value txn))

let omap_txn name make =
  V.Lin_harness.txn_instance name
    ~model:(M.small_omap ~values:[ 0; 1 ] ())
    ~init:[]
    (fun () ->
      let get, put, remove, range = make () in
      fun txn op ->
        match op with
        | M.OGet k -> M.OVal (get txn k)
        | M.OPut (k, v) -> M.OVal (put txn k v)
        | M.ORemove k -> M.OVal (remove txn k)
        | M.ORange (lo, hi) -> M.OList (range txn lo hi))

(* -- retry/or_else idioms on plain tvars ---------------------------- *)

(* Each case's non-blocking faces run a blocking [Stm.retry] branch
   under an [or_else] fallback, so the checker sees [or_else] roll back
   an abandoned branch, writes included, under every mode. *)
let attempt txn f = Stm.or_else txn (fun txn -> Some (f txn)) (fun _ -> None)
let show_ints l = String.concat ";" (List.map string_of_int l)

type bq_op = BPut of int | BTake | BSize
type bq_ret = BBool of bool | BVal of int option | BInt of int

(* [Util.Bounded] at capacity 2: a put on a full buffer reports false. *)
let bounded_model : (int list, bq_op, bq_ret) M.t =
  {
    M.name = "tvar-bounded";
    states = M.all_lists ~values:[ 0; 1 ] ~max_len:2;
    ops = [ BPut 0; BPut 1; BTake; BSize ];
    apply =
      (fun s op ->
        match (op, s) with
        | BPut v, _ ->
            if List.length s >= 2 then (s, BBool false)
            else (s @ [ v ], BBool true)
        | BTake, [] -> (s, BVal None)
        | BTake, x :: rest -> (rest, BVal (Some x))
        | BSize, _ -> (s, BInt (List.length s)));
    equal_state = ( = );
    equal_ret = ( = );
    show_state = (fun s -> "<" ^ show_ints s ^ ">");
    show_op =
      (function
      | BPut v -> Printf.sprintf "put(%d)" v | BTake -> "take" | BSize -> "size");
  }

let bounded_txn () =
  V.Lin_harness.txn_instance "tvar-bounded" ~model:bounded_model ~init:[]
    (fun () ->
      let b = Bounded.make 2 in
      fun txn op ->
        match op with
        | BPut v -> BBool (attempt txn (fun txn -> Bounded.put txn b v) <> None)
        | BTake -> BVal (attempt txn (fun txn -> Bounded.take txn b))
        | BSize -> BInt (Bounded.size txn b))

(* A write-once cell: first writer wins, [peek] awaits with a default. *)
type cell_op = CellTry of int | CellPeek | CellDone
type cell_ret = CellBool of bool | CellVal of int option

let cell_model : (int option, cell_op, cell_ret) M.t =
  {
    M.name = "tvar-cell";
    states = [ None; Some 0; Some 1 ];
    ops = [ CellTry 0; CellTry 1; CellPeek; CellDone ];
    apply =
      (fun s op ->
        match (op, s) with
        | CellTry v, None -> (Some v, CellBool true)
        | CellTry _, Some _ -> (s, CellBool false)
        | CellPeek, _ -> (s, CellVal s)
        | CellDone, _ -> (s, CellBool (s <> None)));
    equal_state = ( = );
    equal_ret = ( = );
    show_state =
      (function None -> "empty" | Some v -> Printf.sprintf "full(%d)" v);
    show_op =
      (function
      | CellTry v -> Printf.sprintf "try_set(%d)" v
      | CellPeek -> "peek"
      | CellDone -> "is_set");
  }

let cell_txn () =
  V.Lin_harness.txn_instance "tvar-cell" ~model:cell_model ~init:None
    (fun () ->
      let c = Tvar.make None in
      let await txn =
        match Stm.read txn c with None -> Stm.retry txn | Some v -> v
      in
      fun txn op ->
        match op with
        | CellTry v ->
            CellBool
              (attempt txn (fun txn ->
                   Stm.guard txn (Stm.read txn c = None);
                   Stm.write txn c (Some v))
              <> None)
        | CellPeek -> CellVal (attempt txn await)
        | CellDone -> CellBool (Stm.read txn c <> None))

(* A biased pick over two queues through [or_else_list]: the witness
   must show every pick draining the first queue before the second. *)
type pick_op = Enq1 of int | Enq2 of int | Pick
type pick_ret = PickUnit | PickVal of int option

let pick_model : (int list * int list, pick_op, pick_ret) M.t =
  let lists = M.all_lists ~values:[ 0; 1 ] ~max_len:2 in
  {
    M.name = "or-else-biased";
    states = List.concat_map (fun a -> List.map (fun b -> (a, b)) lists) lists;
    ops = [ Enq1 0; Enq1 1; Enq2 0; Enq2 1; Pick ];
    apply =
      (fun (a, b) op ->
        match (op, a, b) with
        | Enq1 v, _, _ -> ((a @ [ v ], b), PickUnit)
        | Enq2 v, _, _ -> ((a, b @ [ v ]), PickUnit)
        | Pick, x :: rest, _ -> ((rest, b), PickVal (Some x))
        | Pick, [], x :: rest -> ((a, rest), PickVal (Some x))
        | Pick, [], [] -> ((a, b), PickVal None));
    equal_state = ( = );
    equal_ret = ( = );
    show_state =
      (fun (a, b) -> Printf.sprintf "<%s|%s>" (show_ints a) (show_ints b));
    show_op =
      (function
      | Enq1 v -> Printf.sprintf "enq1(%d)" v
      | Enq2 v -> Printf.sprintf "enq2(%d)" v
      | Pick -> "pick");
  }

let pick_txn () =
  V.Lin_harness.txn_instance "or-else-biased" ~model:pick_model
    ~init:([], []) (fun () ->
      let q1 = Tvar.make [] and q2 = Tvar.make [] in
      let enq q v txn =
        Stm.write txn q (Stm.read txn q @ [ v ]);
        PickUnit
      in
      let take q txn =
        match Stm.read txn q with
        | [] -> Stm.retry txn
        | x :: rest ->
            Stm.write txn q rest;
            PickVal (Some x)
      in
      fun txn op ->
        match op with
        | Enq1 v -> enq q1 v txn
        | Enq2 v -> enq q2 v txn
        | Pick ->
            Stm.or_else_list txn [ take q1; take q2; (fun _ -> PickVal None) ])

(* A counting semaphore whose acquire debits before it checks: the
   retried branch's write must not survive [or_else]. *)
let semaphore_txn () =
  V.Lin_harness.txn_instance "tvar-semaphore" ~model:(M.obs_counter ~bound:4)
    ~init:0 (fun () ->
      let permits = Tvar.make 0 in
      fun txn op ->
        match op with
        | M.CIncr ->
            Stm.write txn permits (Stm.read txn permits + 1);
            M.CUnit
        | M.CDecr ->
            let acquire txn =
              let n = Stm.read txn permits - 1 in
              Stm.write txn permits n;
              Stm.guard txn (n >= 0)
            in
            M.CBool (attempt txn acquire <> None)
        | M.CGet -> M.CInt (Stm.read txn permits))

(* Two accounts; [shift] moves a unit from the first to the second,
   else back, else reports 0.  Each branch writes both accounts before
   it checks, so the nested [or_else] must undo every abandoned one. *)
type acct_op = Deposit | Shift | Balances
type acct_ret = AcctUnit | Moved of int | Pair of int * int

let accounts_model : (int * int, acct_op, acct_ret) M.t =
  let small = [ 0; 1; 2 ] in
  {
    M.name = "or-else-nested";
    states = List.concat_map (fun a -> List.map (fun b -> (a, b)) small) small;
    ops = [ Deposit; Shift; Balances ];
    apply =
      (fun (a, b) op ->
        match op with
        | Deposit -> ((a + 1, b), AcctUnit)
        | Shift when a > 0 -> ((a - 1, b + 1), Moved 1)
        | Shift when b > 0 -> ((a + 1, b - 1), Moved (-1))
        | Shift -> ((a, b), Moved 0)
        | Balances -> ((a, b), Pair (a, b)));
    equal_state = ( = );
    equal_ret = ( = );
    show_state = (fun (a, b) -> Printf.sprintf "(%d,%d)" a b);
    show_op =
      (function
      | Deposit -> "deposit" | Shift -> "shift" | Balances -> "balances");
  }

let accounts_txn () =
  V.Lin_harness.txn_instance "or-else-nested" ~model:accounts_model
    ~init:(0, 0) (fun () ->
      let a = Tvar.make 0 and b = Tvar.make 0 in
      let move src dst dir txn =
        let left = Stm.read txn src - 1 in
        Stm.write txn src left;
        Stm.write txn dst (Stm.read txn dst + 1);
        Stm.guard txn (left >= 0);
        dir
      in
      fun txn op ->
        match op with
        | Deposit ->
            Stm.write txn a (Stm.read txn a + 1);
            AcctUnit
        | Shift ->
            Moved
              (Stm.or_else txn (move a b 1) (fun txn ->
                   Stm.or_else txn (move b a (-1)) (fun _ -> 0)))
        | Balances -> Pair (Stm.read txn a, Stm.read txn b))

(* The registry supplies every map/queue/pqueue point of the design
   space (Proustian wrappers and baselines alike); its trait headers
   decide which STM modes each entry may run under (Theorem 5.2), so
   the "eager/optimistic needs encounter-time detection" rule is
   enforced by [Trait.mode_ok] instead of a hand-curated mode list. *)
module W = Proust_workload

let registry_ser_case (e : W.Registry.entry) =
  let name = "registry:" ^ e.W.Registry.name in
  let modes =
    List.filter
      (fun (_, config) ->
        S.Trait.mode_ok e.W.Registry.meta.S.Trait.mode_req config.Stm.mode)
      all_modes
  in
  match e.W.Registry.target with
  | W.Registry.Map make -> Ser { s_name = name; instance = map_txn name make; modes }
  | W.Registry.Queue make ->
      Ser
        {
          s_name = name;
          instance =
            fifo_txn name (fun () ->
                let o = make () in
                ( o.S.Trait.Queue.enqueue,
                  o.S.Trait.Queue.dequeue,
                  o.S.Trait.Queue.front ));
          modes;
        }
  | W.Registry.Pqueue make ->
      Ser
        {
          s_name = name;
          instance =
            pq_txn name (fun () ->
                let o = make () in
                ( o.S.Trait.Pqueue.insert,
                  o.S.Trait.Pqueue.remove_min,
                  o.S.Trait.Pqueue.min,
                  o.S.Trait.Pqueue.contains ));
          modes;
        }
  | W.Registry.Counter make ->
      Ser { s_name = name; instance = counter_ops_txn name make; modes }

let ser_cases =
  List.map registry_ser_case (W.Registry.all ~slots:8 ())
  @ [
    (* Operations outside the registry traits (ordered-map range
       queries) and lap variants the registry does not carry (the
       pessimistic counter) stay hand-written. *)
    Ser { s_name = "p_counter"; instance = counter_txn pess; modes = all_modes };
    Ser
      {
        s_name = "p_snap_omap ranges";
        instance =
          omap_txn "p_snap_omap ranges" (fun () ->
              let t = S.P_snap_omap.make () in
              ( S.P_snap_omap.get t,
                S.P_snap_omap.put t,
                S.P_snap_omap.remove t,
                fun txn lo hi -> S.P_snap_omap.range t txn ~lo ~hi ));
        modes = all_modes;
      };
    (* Blocking idioms on plain tvars: [retry] under [or_else]. *)
    Ser { s_name = "tvar-bounded"; instance = bounded_txn (); modes = all_modes };
    Ser { s_name = "tvar-cell"; instance = cell_txn (); modes = all_modes };
    Ser { s_name = "or-else-biased"; instance = pick_txn (); modes = all_modes };
    Ser
      {
        s_name = "tvar-semaphore";
        instance = semaphore_txn ();
        modes = all_modes;
      };
    Ser
      {
        s_name = "or-else-nested";
        instance = accounts_txn ();
        modes = all_modes;
      };
  ]

let ser_tests =
  List.concat_map
    (fun (Ser { s_name; instance; modes }) ->
      List.map
        (fun (mode_name, config) ->
          slow
            (Printf.sprintf "serializable: %s under %s" s_name mode_name)
            (fun () ->
              with_seed_note (fun () ->
                  expect_ok
                    (V.Lin_harness.run_serializable ~domains:3
                       ~txns_per_domain:2 ~windows:2 ~config
                       ~seed:(sub_seed (Hashtbl.hash (s_name, mode_name)))
                       instance))))
        modes)
    ser_cases

let suite =
  [
    test "checker accepts a sequential history" test_checker_accepts_sequential;
    test "checker rejects impossible returns"
      test_checker_rejects_impossible_return;
    test "checker linearizes within overlap" test_checker_uses_overlap;
    test "checker respects real-time precedence"
      test_checker_respects_precedence;
    test "checker rejects fifo violations" test_checker_fifo_order;
    test "partitioned check agrees with whole-history check"
      test_partitioning_matches_whole;
    slow "negative fixture: fenceless counter rejected" test_negative_fixture;
    slow "negative fixture: racy root rejected" test_racy_root_rejected;
  ]
  @ lin_cases @ ser_tests
