(** The benchmarkable-implementation registry.

    One entry per (structure, configuration-variant) point, covering
    every Proustian wrapper and baseline in the repository — maps,
    FIFO queues, and priority queues alike — keyed by the structure's
    {!Proust_structures.Trait.meta} header.  The STM configuration an
    entry requires is {e derived} from the header ([Encounter_time]
    structures get an eager-mode config, per Figure 1) rather than
    hand-maintained, so an implementation cannot be benchmarked under
    a mode that would violate Theorem 5.2. *)

module S = Proust_structures
module B = Proust_baselines
module T = S.Trait

type target =
  | Map of (unit -> (int, int) T.Map.ops)
  | Queue of (unit -> int T.Queue.ops)
  | Pqueue of (unit -> int T.Pqueue.ops)
  | Counter of (unit -> T.Counter.ops)

type entry = {
  name : string;  (** registry key; also the meta/trace label *)
  meta : T.meta;
  config : Stm.config option;
      (** the STM config the entry needs for soundness; [None] =
          whatever the process default currently is *)
  target : target;
}

(* A function, not a top-level value: the default config is mutable
   process state, so capture it at entry-construction time. *)
let eager_mode () = { (Stm.get_default_config ()) with mode = Stm.Eager_lazy }

let config_for (meta : T.meta) =
  match meta.T.mode_req with
  | T.Encounter_time -> Some (eager_mode ())
  | T.Any_mode -> None

let under e mode =
  let mode = if T.mode_ok e.meta.T.mode_req mode then mode else Stm.Eager_lazy in
  let base = Option.value e.config ~default:(Stm.get_default_config ()) in
  { e with config = Some { base with mode } }

(* Registry names override the structure's intrinsic meta name (two
   entries may wrap the same structure under different laps), and the
   override is pushed into the ops the entry builds so metrics scopes
   and trace labels agree with the registry key.  [find] builds only
   the entry it returns, and [names] none. *)
let entry name meta_of target =
  ( name,
    fun () ->
      let meta = meta_of () in
      { name; meta; config = config_for meta; target } )

let map_entry name make =
  let make () =
    let o = make () in
    { o with T.Map.meta = { o.T.Map.meta with T.name = name } }
  in
  entry name (fun () -> (make ()).T.Map.meta) (Map make)

let queue_entry name make =
  let make () =
    let o = make () in
    { o with T.Queue.meta = { o.T.Queue.meta with T.name = name } }
  in
  entry name (fun () -> (make ()).T.Queue.meta) (Queue make)

let pqueue_entry name make =
  let make () =
    let o = make () in
    { o with T.Pqueue.meta = { o.T.Pqueue.meta with T.name = name } }
  in
  entry name (fun () -> (make ()).T.Pqueue.meta) (Pqueue make)

let counter_entry name make =
  let make () =
    let o = make () in
    { o with T.Counter.meta = { o.T.Counter.meta with T.name = name } }
  in
  entry name (fun () -> (make ()).T.Counter.meta) (Counter make)

let builders ~slots =
  [
    (* -- maps: baselines ------------------------------------------ *)
    map_entry "stm-map" (fun () -> B.Stm_hashmap.ops (B.Stm_hashmap.make ()));
    map_entry "predication" (fun () ->
        B.Predication_map.ops (B.Predication_map.make ()));
    (* -- maps: Proustian design-space points ---------------------- *)
    map_entry "eager-opt" (fun () -> S.P_hashmap.ops (S.P_hashmap.make ~slots ()));
    map_entry "pessimistic" (fun () ->
        S.P_hashmap.ops (S.P_hashmap.make ~slots ~lap:T.Pessimistic ()));
    map_entry "lazy-memo" (fun () ->
        S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ~slots ~combine:false ()));
    map_entry "lazy-memo-combine" (fun () ->
        S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ~slots ~combine:true ()));
    map_entry "lazy-snap" (fun () ->
        S.P_lazy_triemap.ops (S.P_lazy_triemap.make ~slots ()));
    (* The ordered map exposes a plain-map view for the registry; range
       queries stay behind its own API. *)
    map_entry "omap-snap" (fun () -> S.P_snap_omap.map_ops (S.P_snap_omap.make ()));
    (* -- hot-key mitigation A/B points ----------------------------- *)
    (* Same structure as "eager-opt" with writes serialized through a
       best-effort shard gate; benched against it under skew. *)
    map_entry "eager-opt-hotgate" (fun () ->
        let hg = S.Hot_gate.make ~shards:64 () in
        S.Hot_gate.wrap hg (S.P_hashmap.ops (S.P_hashmap.make ~slots ())));
    (* -- FIFO queues ---------------------------------------------- *)
    queue_entry "fifo-eager" (fun () -> S.P_fifo.ops (S.P_fifo.make ()));
    queue_entry "fifo-pess" (fun () ->
        S.P_fifo.ops (S.P_fifo.make ~lap:T.Pessimistic ()));
    queue_entry "fifo-lazy" (fun () -> S.P_lazy_fifo.ops (S.P_lazy_fifo.make ()));
    (* -- priority queues ------------------------------------------ *)
    pqueue_entry "pq-eager" (fun () ->
        S.P_pqueue.ops (S.P_pqueue.make ~cmp:compare ()));
    pqueue_entry "pq-pess" (fun () ->
        S.P_pqueue.ops (S.P_pqueue.make ~cmp:compare ~lap:T.Pessimistic ()));
    pqueue_entry "pq-lazy" (fun () ->
        S.P_lazy_pqueue.ops (S.P_lazy_pqueue.make ~cmp:compare ()));
    (* -- counters ------------------------------------------------- *)
    counter_entry "p-counter" (fun () ->
        S.P_counter.ops (S.P_counter.make ~observable:true ()));
  ]

let all ?(slots = 1024) () =
  List.map (fun (_, build) -> build ()) (builders ~slots)

let find ?(slots = 1024) name =
  Option.map (fun build -> build ()) (List.assoc_opt name (builders ~slots))

let names () = List.map fst (builders ~slots:1024)
