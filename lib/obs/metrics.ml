(* The histogram kinds; metrics.mli says what each histogram measures.
   Rows are declared in [scope_summary] field order, which is the JSON
   key order; each row's value is its index into a scope's [hists].  A
   recorder drops samples below the row's [floor]: a combiner drain
   holds at least one commit, and a negative latency is clock skew
   (lock waits keep theirs, clamped into the zero bucket). *)
let rows = ref []

let row ?(floor = min_int) name =
  rows := (name, floor) :: !rows;
  List.length !rows - 1

let commit = row "commit"
let abort_to_retry = row "abort_to_retry"
let lock_wait = row "lock_wait"
let wakeup = row "wakeup" ~floor:0
let combine_batch = row "combine_batch" ~floor:1
let intended = row "intended" ~floor:0
let service = row "service" ~floor:0
let kinds = Array.of_list (List.rev !rows)

type scope = { s_label : string; hists : Histogram.t array }

let table : (string, scope) Hashtbl.t = Hashtbl.create 8
let table_lock = Mutex.create ()

let scope_of label =
  Mutex.lock table_lock;
  let s =
    match Hashtbl.find_opt table label with
    | Some s -> s
    | None ->
        let hists = Array.map (fun _ -> Histogram.create ()) kinds in
        let s = { s_label = label; hists } in
        Hashtbl.add table label s;
        s
  in
  Mutex.unlock table_lock;
  s

(* Domain-local: current scope plus the in-flight timestamps.  The STM
   runs one root attempt per domain at a time, so per-domain stamps
   suffice; nested [atomically] joins the root and never re-stamps. *)
type ctx = {
  mutable scope : scope option;
  mutable label : string;
  mutable attempt_ns : int;
  mutable abort_ns : int;
}

let ctx_key : ctx Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { scope = None; label = "main"; attempt_ns = 0; abort_ns = 0 })

let my_scope ctx =
  match ctx.scope with
  | Some s -> s
  | None ->
      let s = scope_of ctx.label in
      ctx.scope <- Some s;
      s

let enable () = Gate.set Gate.metrics_bit ~on:true
let disable () = Gate.set Gate.metrics_bit ~on:false
let enabled () = Gate.get () land Gate.metrics_bit <> 0

let set_label label =
  let ctx = Domain.DLS.get ctx_key in
  ctx.label <- label;
  ctx.scope <- None;
  ctx.attempt_ns <- 0;
  ctx.abort_ns <- 0

let reset () =
  Mutex.lock table_lock;
  Hashtbl.reset table;
  Mutex.unlock table_lock

let reset_scope label =
  Mutex.lock table_lock;
  Option.iter
    (fun s -> Array.iter Histogram.reset s.hists)
    (Hashtbl.find_opt table label);
  Mutex.unlock table_lock

type scope_summary = {
  label : string;
  commit : Histogram.summary;
  abort_to_retry : Histogram.summary;
  lock_wait : Histogram.summary;
  wakeup : Histogram.summary;
  combine_batch : Histogram.summary;
  intended : Histogram.summary;
  service : Histogram.summary;
}

let summarize (s : scope) =
  let h = Array.map Histogram.summarize s.hists in
  {
    label = s.s_label;
    commit = h.(commit);
    abort_to_retry = h.(abort_to_retry);
    lock_wait = h.(lock_wait);
    wakeup = h.(wakeup);
    combine_batch = h.(combine_batch);
    intended = h.(intended);
    service = h.(service);
  }

let read_scope label =
  Mutex.lock table_lock;
  let s = Hashtbl.find_opt table label in
  Mutex.unlock table_lock;
  Option.map summarize s

let scopes () =
  Mutex.lock table_lock;
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) table [] in
  Mutex.unlock table_lock;
  List.map summarize
    (List.sort (fun a b -> compare a.s_label b.s_label) all)

let scope_summary_to_json (s : scope_summary) =
  let h =
    [| s.commit; s.abort_to_retry; s.lock_wait; s.wakeup; s.combine_batch;
       s.intended; s.service |]
  in
  let entry (k, _) h = (k, Histogram.summary_to_json h) in
  Json.Obj
    (("label", Json.String s.label) :: Array.to_list (Array.map2 entry kinds h))

(* ------------------------------------------------------------------ *)
(* Named gauges                                                        *)

(* Last-write-wins integer gauges for slowly-changing control state
   (the QoS shedder publishes its admission state and abort-rate EWMA
   here).  Unlike the histograms these are not gated: writers are rare
   control-plane transitions, not hot-path STM sites. *)
let gauge_table : (string, int) Hashtbl.t = Hashtbl.create 8
let gauge_lock = Mutex.create ()

let set_gauge name v =
  Mutex.lock gauge_lock;
  Hashtbl.replace gauge_table name v;
  Mutex.unlock gauge_lock

let gauge name =
  Mutex.lock gauge_lock;
  let v = Hashtbl.find_opt gauge_table name in
  Mutex.unlock gauge_lock;
  v

let gauges () =
  Mutex.lock gauge_lock;
  let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauge_table [] in
  Mutex.unlock gauge_lock;
  List.sort compare all

(* ------------------------------------------------------------------ *)
(* STM entry points                                                    *)

(* Each entry point re-checks the gate so it is a no-op when metrics
   are off even if called directly; the STM's sites test the gate
   before calling, so the disabled fast path never reaches here. *)

let record ctx i v = Histogram.record (my_scope ctx).hists.(i) v

let on_attempt_start () =
  if enabled () then begin
    let ctx = Domain.DLS.get ctx_key in
    let now = Trace.now_ns () in
    if ctx.abort_ns > 0 then begin
      record ctx abort_to_retry (now - ctx.abort_ns);
      ctx.abort_ns <- 0
    end;
    ctx.attempt_ns <- now
  end

let on_commit () =
  if enabled () then begin
    let ctx = Domain.DLS.get ctx_key in
    if ctx.attempt_ns > 0 then begin
      record ctx commit (Trace.now_ns () - ctx.attempt_ns);
      ctx.attempt_ns <- 0
    end
  end

let on_abort () =
  if enabled () then begin
    let ctx = Domain.DLS.get ctx_key in
    ctx.abort_ns <- Trace.now_ns ();
    ctx.attempt_ns <- 0
  end

(* One sample into row [i] of the calling domain's scope, unless it is
   below the row's floor. *)
let sample i v =
  if enabled () && v >= snd kinds.(i) then record (Domain.DLS.get ctx_key) i v

let add_lock_wait ns = sample lock_wait ns
let add_wakeup_latency ns = sample wakeup ns
let add_combiner_batch n = sample combine_batch n
let add_intended_latency ns = sample intended ns
let add_service_latency ns = sample service ns
