(** Pure specifications of conflict abstractions — the paper's
    [f_i^(m,rd), f_i^(m,wr) : args -> state -> bool] families, here as
    functions from (state, operation) to the slot index sets read and
    written.

    [stripe] quantifies over the per-transaction sub-slot choice used
    by group (multiple-compatible-writers) abstractions; abstractions
    that ignore it are stripe-independent. *)

type ('s, 'o) t = {
  name : string;
  slots : int;
  stripe_width : int;  (** how many stripe values to quantify over *)
  reads : stripe:int -> 's -> 'o -> int list;
  writes : stripe:int -> 's -> 'o -> int list;
}

(** The §3 counter abstraction: one location; [incr] reads it and
    [decr] writes it whenever the counter is below [threshold]. *)
let counter ?(threshold = 2) () : (int, Adt_model.counter_op) t =
  {
    name = Printf.sprintf "counter(threshold=%d)" threshold;
    slots = 1;
    stripe_width = 1;
    reads =
      (fun ~stripe:_ s op ->
        match op with Adt_model.Incr when s < threshold -> [ 0 ] | _ -> []);
    writes =
      (fun ~stripe:_ s op ->
        match op with Adt_model.Decr when s < threshold -> [ 0 ] | _ -> []);
  }

(** Striped map abstraction (§3): key [k] maps to slot [k mod slots];
    [get] reads it, [put]/[remove] write it. *)
let striped_map ?(slots = 4) () : ((int * int) list, Adt_model.map_op) t =
  let slot k = ((k mod slots) + slots) mod slots in
  {
    name = Printf.sprintf "striped-map(M=%d)" slots;
    slots;
    stripe_width = 1;
    reads =
      (fun ~stripe:_ _ op ->
        match op with Adt_model.MGet k -> [ slot k ] | _ -> []);
    writes =
      (fun ~stripe:_ _ op ->
        match op with
        | Adt_model.MPut (k, _) | Adt_model.MRemove k -> [ slot k ]
        | Adt_model.MGet _ -> []);
  }

(** A deliberately broken map abstraction that forgets that [remove]
    conflicts with [get] — used to show the checker catching bugs. *)
let broken_map ?(slots = 4) () : ((int * int) list, Adt_model.map_op) t =
  let good = striped_map ~slots () in
  {
    good with
    name = "broken-map";
    writes =
      (fun ~stripe s op ->
        match op with Adt_model.MRemove _ -> [] | _ -> good.writes ~stripe s op);
  }

(** The priority-queue abstraction of Listing 3 / {!Trait.Pqueue}:
    slot 0 is [PQueueMin]; slots 1..width are the [PQueueMultiSet]
    band (writers write their stripe's sub-slot, readers read the whole
    band).  State-dependence mirrors Figure 3's [insert]: inserting a
    new minimum writes [Min], otherwise reads it.

    Note one divergence from the literal Figure 3 code: inserting into
    an {e empty} queue also writes [Min] (it changes the minimum from
    "none" to [v]).  Figure 3's [getOrElse(Read(PQueueMin))] only reads
    in that case, which violates Definition 3.1 against a concurrent
    [min] observer — see {!figure3_literal_pqueue}, which the checker
    rejects with exactly that counterexample. *)
let pqueue ?(stripes = 2) () : (int list, Adt_model.pq_op) t =
  let band = List.init stripes (fun i -> 1 + i) in
  let lowers_min s v = match s with [] -> true | m :: _ -> v < m in
  {
    name = Printf.sprintf "pqueue(stripes=%d)" stripes;
    slots = 1 + stripes;
    stripe_width = stripes;
    reads =
      (fun ~stripe:_ s op ->
        match op with
        | Adt_model.PInsert v -> if lowers_min s v then [] else [ 0 ]
        | Adt_model.PMin -> [ 0 ]
        | Adt_model.PContains _ -> band
        | Adt_model.PRemoveMin -> []);
    writes =
      (fun ~stripe s op ->
        let my_sub = 1 + (abs stripe mod stripes) in
        match op with
        | Adt_model.PInsert v ->
            my_sub :: (if lowers_min s v then [ 0 ] else [])
        | Adt_model.PRemoveMin -> [ 0; my_sub ]
        | Adt_model.PMin | Adt_model.PContains _ -> []);
  }

(** The literal Figure 3 intent computation: inserting into an empty
    queue only {e reads} [PQueueMin].  Kept so the Definition 3.1
    checker can demonstrate the gap (insert-into-empty does not
    commute with a concurrent [min], yet triggers no conflicting
    access). *)
let figure3_literal_pqueue ?(stripes = 2) () : (int list, Adt_model.pq_op) t =
  let fixed = pqueue ~stripes () in
  let lowers_min s v = match s with [] -> false | m :: _ -> v < m in
  {
    fixed with
    name = "pqueue-figure3-literal";
    reads =
      (fun ~stripe s op ->
        match op with
        | Adt_model.PInsert v -> if lowers_min s v then [] else [ 0 ]
        | _ -> fixed.reads ~stripe s op);
    writes =
      (fun ~stripe s op ->
        let my_sub = 1 + (abs stripe mod stripes) in
        match op with
        | Adt_model.PInsert v ->
            my_sub :: (if lowers_min s v then [ 0 ] else [])
        | _ -> fixed.writes ~stripe s op);
  }

(** The FIFO-queue abstraction of {!Proust_structures.Trait.Queue}:
    slot 0 is [Head], slot 1 is [Tail].  Enqueue writes [Tail] (and
    [Head] when the queue is empty — it creates the new front);
    dequeue writes [Head] (and [Tail] when at most one element remains
    — it freezes emptiness against concurrent enqueues); [front] reads
    [Head]. *)
let fifo () : (int list, Adt_model.q_op) t =
  {
    name = "fifo";
    slots = 2;
    stripe_width = 1;
    reads =
      (fun ~stripe:_ _ op ->
        match op with Adt_model.QFront -> [ 0 ] | _ -> []);
    writes =
      (fun ~stripe:_ s op ->
        match op with
        | Adt_model.QEnq _ -> (1 :: (if s = [] then [ 0 ] else []))
        | Adt_model.QDeq -> (0 :: (if List.length s <= 1 then [ 1 ] else []))
        | Adt_model.QFront -> []);
  }

(** A broken FIFO abstraction that forgets the enqueue-into-empty
    [Head] write — checker fodder. *)
let broken_fifo () : (int list, Adt_model.q_op) t =
  let good = fifo () in
  {
    good with
    name = "broken-fifo";
    writes =
      (fun ~stripe s op ->
        match op with
        | Adt_model.QEnq _ -> [ 1 ]
        | _ -> good.writes ~stripe s op);
  }
