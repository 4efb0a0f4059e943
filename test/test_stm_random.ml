(** Randomized STM semantics tests: interpret random transaction
    programs over a small set of tvars and compare against a reference
    interpreter (an int array with roll-back-able writes), across every
    conflict-detection mode.  Covers read-your-writes, abort/rollback,
    or_else branch rollback, and transaction-local effects. *)

open Util

type step =
  | Read of int  (* tvar index; value checked against the reference *)
  | Write of int * int
  | Add of int * int  (* read-modify-write *)
  | OrElse of step list * step list * bool
      (* first branch, second branch, whether the first retries at end *)

type prog = { steps : step list; abort : bool }

let step_gen =
  QCheck2.Gen.(
    let base =
      oneof
        [
          map (fun i -> Read i) (int_range 0 3);
          map2 (fun i v -> Write (i, v)) (int_range 0 3) (int_range 0 99);
          map2 (fun i v -> Add (i, v)) (int_range 0 3) (int_range 1 9);
        ]
    in
    oneof
      [
        base;
        map3
          (fun a b retries -> OrElse (a, b, retries))
          (list_size (int_range 1 3) base)
          (list_size (int_range 1 3) base)
          bool;
      ])

let prog_gen =
  QCheck2.Gen.(
    list_size (int_range 1 8)
      (map2 (fun steps abort -> { steps; abort })
         (list_size (int_range 1 6) step_gen)
         bool))

(* Reference interpreter over a plain int array copy. *)
let rec ref_step state ok = function
  | Read _ -> ()
  | Write (i, v) -> state.(i) <- v
  | Add (i, v) -> state.(i) <- state.(i) + v
  | OrElse (a, b, first_retries) ->
      if first_retries then
        (* branch effects rolled back; second branch applies *)
        List.iter (ref_step state ok) b
      else List.iter (ref_step state ok) a

(* STM interpreter; checks every Read against the reference. *)
let rec stm_step tvars reference ok txn = function
  | Read i ->
      if Stm.read txn tvars.(i) <> reference.(i) then ok := false
  | Write (i, v) ->
      Stm.write txn tvars.(i) v;
      reference.(i) <- v
  | Add (i, v) ->
      let cur = Stm.read txn tvars.(i) in
      if cur <> reference.(i) then ok := false;
      Stm.write txn tvars.(i) (cur + v);
      reference.(i) <- cur + v
  | OrElse (a, b, first_retries) ->
      let saved = Array.copy reference in
      Stm.or_else txn
        (fun txn ->
          List.iter (stm_step tvars reference ok txn) a;
          if first_retries then Stm.retry txn)
        (fun txn ->
          Array.blit saved 0 reference 0 (Array.length saved);
          List.iter (stm_step tvars reference ok txn) b)

let run_mode config progs =
  let tvars = Array.init 4 (fun _ -> Tvar.make 0) in
  let committed = Array.make 4 0 in
  let ok = ref true in
  List.iter
    (fun prog ->
      let reference = Array.copy committed in
      (* Programs with a leading OrElse whose first branch retries need
         a non-empty read set before the retry; always read tvar 0. *)
      let outcome =
        try
          Stm.atomically ~config (fun txn ->
              Array.blit committed 0 reference 0 4;
              ignore (Stm.read txn tvars.(0));
              List.iter (stm_step tvars reference ok txn) prog.steps;
              if prog.abort then raise Exit)
        with Exit -> ()
      in
      ignore outcome;
      if not prog.abort then Array.blit reference 0 committed 0 4;
      (* Committed tvar state must match the model after every txn. *)
      for i = 0 to 3 do
        if Tvar.peek tvars.(i) <> committed.(i) then ok := false
      done)
    progs;
  !ok

(* Nested or_else rollback: random trees of [or_else] with writes and
   transaction-local updates interleaved at every nesting level.  A
   retried branch must restore BOTH the write log and the local log
   exactly (watermark truncation, see {!Rwset.Wlog}) — shadowed
   pre-branch entries reappear, branch-only entries vanish.  Checked
   in-transaction at random points against a reference model and
   against the committed state afterwards. *)

type ntree =
  | NWrite of int * int
  | NLocal of int * int  (* set local key i to v *)
  | NCheck  (* compare every tvar and local against the model *)
  | NOrElse of ntree list * ntree list * bool
      (* first branch, second branch, whether the first retries *)

let ntree_gen =
  QCheck2.Gen.(
    let base =
      oneof
        [
          map2 (fun i v -> NWrite (i, v)) (int_range 0 3) (int_range 0 99);
          map2 (fun i v -> NLocal (i, v)) (int_range 0 3) (int_range 0 99);
          return NCheck;
        ]
    in
    let rec tree depth =
      if depth = 0 then base
      else
        oneof
          [
            base;
            map3
              (fun a b retries -> NOrElse (a, b, retries))
              (list_size (int_range 1 4) (tree (depth - 1)))
              (list_size (int_range 1 4) (tree (depth - 1)))
              bool;
          ]
    in
    list_size (int_range 1 6) (tree 3))

let rec nstep tvars keys tref lref ok txn = function
  | NWrite (i, v) ->
      Stm.write txn tvars.(i) v;
      tref.(i) <- v
  | NLocal (i, v) ->
      Stm.Local.set txn keys.(i) v;
      lref.(i) <- Some v
  | NCheck ->
      for i = 0 to 3 do
        if Stm.read txn tvars.(i) <> tref.(i) then ok := false;
        if Stm.Local.find txn keys.(i) <> lref.(i) then ok := false
      done
  | NOrElse (a, b, first_retries) ->
      let st = Array.copy tref and sl = Array.copy lref in
      Stm.or_else txn
        (fun txn ->
          List.iter (nstep tvars keys tref lref ok txn) a;
          if first_retries then Stm.retry txn)
        (fun txn ->
          Array.blit st 0 tref 0 4;
          Array.blit sl 0 lref 0 4;
          List.iter (nstep tvars keys tref lref ok txn) b)

let run_nested cfg steps =
  let tvars = Array.init 4 (fun _ -> Tvar.make 0) in
  let keys = Array.init 4 (fun _ -> Stm.Local.key (fun _ -> -1)) in
  let tref = Array.make 4 0 in
  let lref = Array.make 4 None in
  let ok = ref true in
  Stm.atomically ~config:cfg (fun txn ->
      (* A re-run attempt replays the body: reset the model with it. *)
      Array.fill tref 0 4 0;
      Array.fill lref 0 4 None;
      List.iter (nstep tvars keys tref lref ok txn) steps;
      nstep tvars keys tref lref ok txn NCheck);
  for i = 0 to 3 do
    if Tvar.peek tvars.(i) <> tref.(i) then ok := false
  done;
  !ok

(* The write log's uid index against an assoc-list model: random
   write/find/mark/truncate/clear sequences over enough tvars to cross
   the 12-entry index threshold and grow the index more than once.
   [Mark] opens an or_else-style alternative (floor raised to the
   watermark), [Undo] rolls it back by truncation, [Keep] closes it
   keeping its writes. *)

type wop = W of int * int | F of int | Mark | Undo | Keep | Clear

let wlog_tvars = 150

let wops_gen =
  QCheck2.Gen.(
    list_size (int_range 0 500)
      (frequency
         [
           (60, map2 (fun i v -> W (i, v)) (int_bound (wlog_tvars - 1)) nat);
           (25, map (fun i -> F i) (int_bound (wlog_tvars - 1)));
           (4, return Mark);
           (4, return Undo);
           (3, return Keep);
           (1, return Clear);
         ]))

(* Model: entries newest first as (tvar index, value), the entry count,
   the floor, and the open alternatives' (watermark, saved floor). *)
type wmodel = {
  mutable entries : (int * int) list;
  mutable len : int;
  mutable mfloor : int;
  mutable marks : (int * int) list;
}

let model_write m i v =
  (* position of the newest entry for [i], or -1 *)
  let rec newest k = function
    | [] -> -1
    | (j, _) :: rest -> if j = i then m.len - 1 - k else newest (k + 1) rest
  in
  let pos = newest 0 m.entries in
  if pos >= m.mfloor then
    m.entries <-
      List.mapi
        (fun k (j, w) -> if m.len - 1 - k = pos then (j, v) else (j, w))
        m.entries
  else begin
    m.entries <- (i, v) :: m.entries;
    m.len <- m.len + 1
  end

let model_truncate m mark =
  m.entries <- List.filteri (fun k _ -> m.len - 1 - k < mark) m.entries;
  m.len <- min m.len mark

let prop_wlog ops =
  let tvars = Array.init wlog_tvars (fun _ -> Tvar.make 0) in
  let w = Rwset.Wlog.create () in
  let m = { entries = []; len = 0; mfloor = 0; marks = [] } in
  let find i =
    let idx = Rwset.Wlog.find_idx w tvars.(i) in
    if idx < 0 then None else Some (Rwset.Wlog.value w idx : int)
  in
  let ok = ref true in
  List.iter
    (fun op ->
      (match op with
      | W (i, v) ->
          Rwset.Wlog.write w tvars.(i) v;
          model_write m i v
      | F i -> if find i <> List.assoc_opt i m.entries then ok := false
      | Mark ->
          let mark = Rwset.Wlog.mark w in
          if mark <> m.len then ok := false;
          m.marks <- (mark, Rwset.Wlog.floor w) :: m.marks;
          Rwset.Wlog.set_floor w mark;
          m.mfloor <- mark
      | Undo -> (
          match m.marks with
          | [] -> ()
          | (mark, floor) :: rest ->
              Rwset.Wlog.truncate w mark;
              Rwset.Wlog.set_floor w floor;
              model_truncate m mark;
              m.mfloor <- floor;
              m.marks <- rest)
      | Keep -> (
          match m.marks with
          | [] -> ()
          | (_, floor) :: rest ->
              Rwset.Wlog.set_floor w floor;
              m.mfloor <- floor;
              m.marks <- rest)
      | Clear ->
          Rwset.Wlog.clear w;
          m.entries <- [];
          m.len <- 0;
          m.mfloor <- 0;
          m.marks <- []);
      if Rwset.Wlog.size w <> m.len then ok := false)
    ops;
  (* Every tvar, written or not, resolves as in the model. *)
  for i = 0 to wlog_tvars - 1 do
    if find i <> List.assoc_opt i m.entries then ok := false
  done;
  (* The commit plan holds each written tvar once, in uid order. *)
  let plan =
    Rwset.Wlog.build_plan w;
    let uids = ref [] in
    Rwset.Wlog.plan_iter_tv w (fun tv -> uids := tv.Tvar.uid :: !uids);
    List.rev !uids
  in
  let expected =
    List.sort_uniq compare
      (List.map (fun (i, _) -> tvars.(i).Tvar.uid) m.entries)
  in
  !ok && plan = expected

(* A pooled log must not keep a large transaction's index alive:
   clearing drops it back to the size a fresh log starts with. *)
let test_wlog_index_shrinks () =
  let w = Rwset.Wlog.create () in
  let initial = Rwset.Wlog.index_capacity w in
  let tvars = Array.init 1_000 (fun _ -> Tvar.make 0) in
  Array.iteri (fun i tv -> Rwset.Wlog.write w tv i) tvars;
  Alcotest.(check bool)
    "index grew" true
    (Rwset.Wlog.index_capacity w > initial);
  Alcotest.(check int)
    "last write found" 999
    (Rwset.Wlog.value w (Rwset.Wlog.find_idx w tvars.(999)));
  Rwset.Wlog.clear w;
  Alcotest.(check int)
    "cleared index back at its initial size" initial
    (Rwset.Wlog.index_capacity w);
  Alcotest.(check int) "cleared log is empty" (-1)
    (Rwset.Wlog.find_idx w tvars.(999))

let suite =
  qcheck ~count:300 "write log matches an assoc-list model" wops_gen prop_wlog
  :: test "cleared write log shrinks its index" test_wlog_index_shrinks
  :: List.map
    (fun (name, cfg) ->
      qcheck ~count:80
        (Printf.sprintf "random programs match reference (%s)" name)
        prog_gen
        (fun progs -> run_mode cfg progs))
    all_modes
  @ List.map
      (fun (name, cfg) ->
        qcheck ~count:80
          (Printf.sprintf "nested or_else restores writes+locals (%s)" name)
          ntree_gen
          (fun steps -> run_nested cfg steps))
      all_modes
