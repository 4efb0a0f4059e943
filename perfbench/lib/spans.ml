(* In-memory spans recorded by the benchmark around its own calls into
   the library: [Episode] around each STM call, one op kind around each
   trait-op call, [Admit] from intended arrival to service start, and
   [Recover] around log recovery.  All spans of one request carry its
   id; an op span also carries the attempt it ran in, so op time spent
   in aborted attempts can be told apart from op time that committed. *)

type kind = Episode | Get | Put | Remove | Contains | Size | Range | Admit | Recover

let kinds = [| Episode; Get; Put; Remove; Contains; Size; Range; Admit; Recover |]

let code = function
  | Episode -> 0
  | Get -> 1
  | Put -> 2
  | Remove -> 3
  | Contains -> 4
  | Size -> 5
  | Range -> 6
  | Admit -> 7
  | Recover -> 8

let name = function
  | Episode -> "episode"
  | Get -> "op.get"
  | Put -> "op.put"
  | Remove -> "op.remove"
  | Contains -> "op.contains"
  | Size -> "op.size"
  | Range -> "op.range"
  | Admit -> "admit"
  | Recover -> "recover"

let is_op = function
  | Get | Put | Remove | Contains | Size | Range -> true
  | Episode | Admit | Recover -> false

(* One domain's spans, as parallel columns. *)
type buf = {
  dom : int;
  kind : Pct.Buf.t;
  req : Pct.Buf.t;
  attempt : Pct.Buf.t;
  t0 : Pct.Buf.t;
  t1 : Pct.Buf.t;
}

(* A domain's recording context: the request and attempt in progress. *)
type ctx = { buf : buf; mutable req : int; mutable attempt : int; mutable seq : int }

let registry : buf list Atomic.t = Atomic.make []

let rec register b =
  let cur = Atomic.get registry in
  if not (Atomic.compare_and_set registry cur (b :: cur)) then register b

let key =
  Domain.DLS.new_key (fun () ->
      let mk () = Pct.Buf.create ~cap:4096 () in
      let buf =
        {
          dom = (Domain.self () :> int);
          kind = mk ();
          req = mk ();
          attempt = mk ();
          t0 = mk ();
          t1 = mk ();
        }
      in
      register buf;
      { buf; req = 0; attempt = 0; seq = 0 })

let ctx () = Domain.DLS.get key
let clear () = Atomic.set registry []
let bufs () = Atomic.get registry
let now = Clock.now_mono_ns

let add c k ~t0 ~t1 =
  let b = c.buf in
  Pct.Buf.push b.kind (code k);
  Pct.Buf.push b.req c.req;
  Pct.Buf.push b.attempt c.attempt;
  Pct.Buf.push b.t0 t0;
  Pct.Buf.push b.t1 t1

(* Start a new request on this domain: a fresh id, attempt 0. *)
let begin_request c =
  c.seq <- c.seq + 1;
  c.req <- (c.buf.dom lsl 40) lor c.seq;
  c.attempt <- 0

(* Wrap an STM body so each attempt bumps the context's attempt count. *)
let counting c f txn =
  c.attempt <- c.attempt + 1;
  f txn

let timed c k f =
  let t0 = now () in
  match f () with
  | r ->
      add c k ~t0 ~t1:(now ());
      r
  | exception e ->
      add c k ~t0 ~t1:(now ());
      raise e

(* The timing wrapper over a map trait record: same results, same
   effects, plus one op span per call on the calling domain. *)
let timed_map (o : ('k, 'v) Proust_structures.Trait.Map.ops) :
    ('k, 'v) Proust_structures.Trait.Map.ops =
  {
    o with
    get = (fun txn k -> timed (ctx ()) Get (fun () -> o.get txn k));
    put = (fun txn k v -> timed (ctx ()) Put (fun () -> o.put txn k v));
    remove = (fun txn k -> timed (ctx ()) Remove (fun () -> o.remove txn k));
    contains =
      (fun txn k -> timed (ctx ()) Contains (fun () -> o.contains txn k));
    size = (fun txn -> timed (ctx ()) Size (fun () -> o.size txn));
  }

(* ------------------------------------------------------------------ *)
(* Aggregation                                                          *)

type summary = {
  episodes : int;
  episode_ns : int;  (** summed episode durations *)
  op_ns : int;  (** summed op durations inside episodes *)
  wasted_op_ns : int;  (** op time in attempts that did not commit *)
  by_kind : (kind * int array) list;  (** durations per kind, unsorted *)
}

let summarize () =
  let per = Array.map (fun _ -> Pct.Buf.create ()) kinds in
  let episodes = ref 0 and episode_ns = ref 0 in
  let op_ns = ref 0 and wasted = ref 0 in
  List.iter
    (fun b ->
      let n = Pct.Buf.length b.kind in
      (* An episode span is recorded after its ops, so a backward scan
         meets each request's final attempt before its op spans. *)
      let final_req = ref (-1) and final_attempt = ref 0 in
      for i = n - 1 downto 0 do
        let k = kinds.(Pct.Buf.get b.kind i) in
        let d = Pct.Buf.get b.t1 i - Pct.Buf.get b.t0 i in
        Pct.Buf.push per.(code k) d;
        match k with
        | Episode ->
            incr episodes;
            episode_ns := !episode_ns + d;
            final_req := Pct.Buf.get b.req i;
            final_attempt := Pct.Buf.get b.attempt i
        | _ when is_op k ->
            op_ns := !op_ns + d;
            if Pct.Buf.get b.req i = !final_req
               && Pct.Buf.get b.attempt i < !final_attempt
            then wasted := !wasted + d
        | _ -> ()
      done)
    (bufs ());
  {
    episodes = !episodes;
    episode_ns = !episode_ns;
    op_ns = !op_ns;
    wasted_op_ns = !wasted;
    by_kind = Array.to_list (Array.map (fun k -> (k, Pct.Buf.to_array per.(code k))) kinds);
  }

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

(* Chrome trace_event JSON, streamed: the benchmark's spans as complete
   ("X") events, then the library's trace events as instants, both on
   one track per domain.  [args.req] links the spans of one request;
   a library event's [args.txn] is the STM attempt's id.  Only each
   domain's first [requests] requests are written, with the library
   events up to the time the earliest domain's last written span
   ended, so the file stays small enough to load; the summaries use
   every span. *)
let write_chrome ?(requests = 2000) path (events : Proust_obs.Trace.event list) =
  let keep (b : buf) i = Pct.Buf.get b.req i land ((1 lsl 40) - 1) <= requests in
  let horizon =
    List.fold_left
      (fun acc (b : buf) ->
        let last = ref 0 in
        for i = 0 to Pct.Buf.length b.kind - 1 do
          if keep b i then last := max !last (Pct.Buf.get b.t1 i)
        done;
        if !last > 0 then min acc !last else acc)
      max_int (bufs ())
  in
  let oc = open_out path in
  let first = ref true in
  let sep () = if !first then first := false else output_string oc ",\n" in
  output_string oc "{\"traceEvents\":[\n";
  List.iter
    (fun (b : buf) ->
      for i = 0 to Pct.Buf.length b.kind - 1 do
        if keep b i then begin
        sep ();
        let t0 = Pct.Buf.get b.t0 i in
        Printf.fprintf oc
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"attempt\":%d}}"
          (name kinds.(Pct.Buf.get b.kind i))
          b.dom
          (float_of_int t0 /. 1e3)
          (float_of_int (Pct.Buf.get b.t1 i - t0) /. 1e3)
          (Pct.Buf.get b.req i) (Pct.Buf.get b.attempt i)
        end
      done)
    (bufs ());
  List.iter
    (fun (e : Proust_obs.Trace.event) ->
      if e.ns <= horizon then begin
      sep ();
      Printf.fprintf oc
        "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":{\"txn\":%d,\"tick\":%d}}"
        (Proust_obs.Trace.kind_name e.kind)
        e.dom
        (float_of_int e.ns /. 1e3)
        e.txn e.tick
      end)
    events;
  output_string oc "\n]}\n";
  close_out oc
