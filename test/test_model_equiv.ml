(** Property tests: random transaction programs against pure models.

    Each generated program is a list of transactions; each transaction
    is a list of operations plus an abort flag.  Every operation's
    return value must match a pure in-transaction model, and after each
    transaction the committed structure must coincide with the model
    state (aborted transactions must leave no trace) — for priority
    queues and FIFO queues in their various design-space
    configurations, and for the snapshot ordered map. *)

open Util
module S = Proust_structures

type 'op txn_prog = { steps : 'op list; abort : bool }

let prog_gen step_gen =
  QCheck2.Gen.(
    list_size (int_range 1 5)
      (map2
         (fun steps abort -> { steps; abort })
         (list_size (int_range 1 5) step_gen)
         bool))

(* Drive [progs] through [exec]: one transaction each, aborting at the
   end when flagged; a per-transaction shadow model validates returns
   and is promoted to the committed model on commit. *)
let run_programs ?config ~initial ~exec_step ~committed_equal progs =
  let model = ref initial in
  let ok = ref true in
  List.iter
    (fun prog ->
      let shadow = ref !model in
      let outcome =
        try
          Stm.atomically ?config (fun txn ->
              shadow := !model;
              List.iter
                (fun step ->
                  let model', matched = exec_step txn !shadow step in
                  if not matched then ok := false;
                  shadow := model')
                prog.steps;
              if prog.abort then raise Exit);
          `Committed
        with Exit -> `Aborted
      in
      (match outcome with `Committed -> model := !shadow | `Aborted -> ());
      if not (committed_equal !model) then ok := false)
    progs;
  !ok

(* ------------------------------------------------------------------ *)
(* Priority queues: model = sorted list                                 *)

type pq_step = PqInsert of int | PqPop | PqMin | PqContains of int

let pq_step_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> PqInsert v) (int_range 0 20);
        return PqPop;
        return PqMin;
        map (fun v -> PqContains v) (int_range 0 20);
      ])

let pq_equiv name ?config (make : unit -> int S.Trait.Pqueue.ops) =
  qcheck ~count:50 (name ^ " matches sorted-list model") (prog_gen pq_step_gen)
    (fun progs ->
      let ops = make () in
      run_programs ?config ~initial:[]
        ~exec_step:(fun txn model step ->
          match step with
          | PqInsert v ->
              ops.S.Trait.Pqueue.insert txn v;
              (List.sort compare (v :: model), true)
          | PqPop -> (
              let got = ops.S.Trait.Pqueue.remove_min txn in
              match model with
              | [] -> ([], got = None)
              | m :: rest -> (rest, got = Some m))
          | PqMin ->
              let want = match model with [] -> None | m :: _ -> Some m in
              (model, ops.S.Trait.Pqueue.min txn = want)
          | PqContains v ->
              (model, ops.S.Trait.Pqueue.contains txn v = List.mem v model))
        ~committed_equal:(fun model ->
          Stm.atomically ?config (fun txn -> ops.S.Trait.Pqueue.size txn)
          = List.length model)
        progs)

(* ------------------------------------------------------------------ *)
(* FIFO queues: model = front-first list                                *)

type q_step = QEnq of int | QDeq | QFront

let q_step_gen =
  QCheck2.Gen.(
    oneof [ map (fun v -> QEnq v) (int_range 0 50); return QDeq; return QFront ])

let fifo_equiv name ?config (make : unit -> int S.Trait.Queue.ops) =
  qcheck ~count:50 (name ^ " matches list model") (prog_gen q_step_gen)
    (fun progs ->
      let ops = make () in
      run_programs ?config ~initial:[]
        ~exec_step:(fun txn model step ->
          match step with
          | QEnq v ->
              ops.S.Trait.Queue.enqueue txn v;
              (model @ [ v ], true)
          | QDeq -> (
              let got = ops.S.Trait.Queue.dequeue txn in
              match model with
              | [] -> ([], got = None)
              | x :: rest -> (rest, got = Some x))
          | QFront ->
              let want = match model with [] -> None | x :: _ -> Some x in
              (model, ops.S.Trait.Queue.front txn = want))
        ~committed_equal:(fun model ->
          Stm.atomically ?config (fun txn -> ops.S.Trait.Queue.size txn)
          = List.length model)
        progs)

(* ------------------------------------------------------------------ *)
(* Ordered maps: model = sorted association list                        *)

type om_step = OmPut of int * int | OmRemove of int | OmGet of int | OmRange of int * int

let om_step_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun k v -> OmPut (k, v)) (int_range 0 30) (int_range 0 99);
        map (fun k -> OmRemove k) (int_range 0 30);
        map (fun k -> OmGet k) (int_range 0 30);
        map2
          (fun a b -> OmRange (min a b, max a b))
          (int_range 0 30) (int_range 0 30);
      ])

module IntMap = Map.Make (Int)

let omap_equiv name make =
  qcheck ~count:50 (name ^ " matches Map model") (prog_gen om_step_gen)
    (fun progs ->
      let om = make () in
      run_programs ~initial:IntMap.empty
        ~exec_step:(fun txn model step ->
          match step with
          | OmPut (k, v) ->
              let got = S.P_snap_omap.put om txn k v in
              (IntMap.add k v model, got = IntMap.find_opt k model)
          | OmRemove k ->
              let got = S.P_snap_omap.remove om txn k in
              (IntMap.remove k model, got = IntMap.find_opt k model)
          | OmGet k ->
              (model, S.P_snap_omap.get om txn k = IntMap.find_opt k model)
          | OmRange (lo, hi) ->
              let want =
                IntMap.bindings model
                |> List.filter (fun (k, _) -> k >= lo && k <= hi)
              in
              (model, S.P_snap_omap.range om txn ~lo ~hi = want))
        ~committed_equal:(fun model ->
          Stm.atomically (fun txn -> S.P_snap_omap.bindings om txn)
          = IntMap.bindings model)
        progs)

let suite =
  [
    pq_equiv "pq-eager-pess" (fun () ->
        S.P_pqueue.ops (S.P_pqueue.make ~cmp:Int.compare ~lap:S.Trait.Pessimistic ()));
    pq_equiv "pq-eager-opt" ~config:eager_struct_cfg (fun () ->
        S.P_pqueue.ops (S.P_pqueue.make ~cmp:Int.compare ()));
    pq_equiv "pq-lazy-opt" (fun () ->
        S.P_lazy_pqueue.ops (S.P_lazy_pqueue.make ~cmp:Int.compare ()));
    pq_equiv "pq-lazy-combine" (fun () ->
        S.P_lazy_pqueue.ops (S.P_lazy_pqueue.make ~cmp:Int.compare ~combine:true ()));
    fifo_equiv "fifo-eager-pess" (fun () ->
        S.P_fifo.ops (S.P_fifo.make ~lap:S.Trait.Pessimistic ()));
    fifo_equiv "fifo-eager-opt" ~config:eager_struct_cfg (fun () ->
        S.P_fifo.ops (S.P_fifo.make ()));
    fifo_equiv "fifo-lazy-opt" (fun () -> S.P_lazy_fifo.ops (S.P_lazy_fifo.make ()));
    omap_equiv "omap-snap" (fun () -> S.P_snap_omap.make ());
  ]
