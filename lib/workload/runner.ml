(** Multi-domain throughput runner for the Figure 4 experiment.

    Each trial prefills the structure, splits the operation stream
    across [threads] domains, releases them through a spin barrier,
    and times the window from release to last join.  Trials are
    separated by a major GC ("garbage collecting in between to reduce
    jitter", §7); the first [warmup] trials are discarded.

    The core loop is generic over the operation type, so the same
    trial machinery drives maps, FIFO queues, priority queues and
    counters; {!run_entry} picks the prefill, stream and apply for a
    {!Registry.entry}.  Each worker domain enters the entry's
    {!Proust_obs.Metrics} scope, so a run's commit/abort-retry/lock-wait
    latency histograms land under the implementation's name; the scope
    is reset after warmup and summarized into the result when metrics
    are enabled. *)

module T = Proust_structures.Trait

type result = {
  threads : int;
  spec : Workload.spec;
  mean_ms : float;
  stddev_ms : float;
  trials_ms : float list;
  throughput : float;  (** committed ops per second, from the mean *)
  stats : Stats.snapshot;  (** STM activity during the measured trials *)
  latency : Proust_obs.Metrics.scope_summary option;
      (** per-scope latency histograms for the measured trials; [None]
          unless metrics were enabled *)
}

let barrier n =
  let c = Atomic.make 0 in
  fun () ->
    Atomic.incr c;
    while Atomic.get c < n do
      Domain.cpu_relax ()
    done

(* [timed n work] spawns [n] workers; worker [i] runs [work i] as its
   untimed setup, then meets the others at the barrier and runs the
   closure that setup returned.  Workers time themselves: first-start
   to last-finish, on the monotonic clock (a wall-clock step mid-run
   would corrupt the window).  Timing from the spawning thread
   under-measures when there are fewer cores than domains (the workers
   can finish before the spawner runs again), and timing one worker
   misses the others' tails. *)
let timed n work =
  let enter = barrier n in
  let started = Array.make n 0.0 in
  let finished = Array.make n 0.0 in
  let body i () =
    let run = work i in
    enter ();
    started.(i) <- Clock.now_mono ();
    run ();
    finished.(i) <- Clock.now_mono ()
  in
  List.init n (fun i -> Domain.spawn (body i)) |> List.iter Domain.join;
  Array.fold_left max neg_infinity finished
  -. Array.fold_left min infinity started

(* One trial, generic over the structure ('ops) and operation ('op)
   types: [fill] prefills a fresh structure with [key_range / 2] values
   from [draw], one transaction each, and worker [i] runs the stream
   seeded [i + 1]. *)
let run_trial (type ops op) ?config ~label ~threads ~(spec : Workload.spec)
    ~draw ~(fill : ops -> Stm.txn -> int -> unit)
    ~(stream : int -> count:int -> op array)
    ~(apply : ops -> Stm.txn -> op -> unit) (make_ops : unit -> ops) =
  let ops = make_ops () in
  let rng = Random.State.make [| 0xbeef |] in
  for i = 1 to spec.Workload.key_range / 2 do
    let v = draw rng i in
    Stm.atomically ?config (fun txn -> fill ops txn v)
  done;
  let per_thread = spec.Workload.total_ops / threads in
  let streams =
    Array.init threads (fun i -> stream (i + 1) ~count:per_thread)
  in
  timed threads (fun i ->
      Proust_obs.Metrics.set_label label;
      let stream = streams.(i) in
      fun () ->
        (* [Gc.minor_words] is per-domain in OCaml 5, so each worker
           owns its delta; the bulk-add into [Stats] makes the run's
           total divisible by committed transactions for a
           words-per-commit figure. *)
        let words0 = Gc.minor_words () in
        let n = Array.length stream in
        let o = spec.ops_per_txn in
        let idx = ref 0 in
        while !idx < n do
          let stop = min n (!idx + o) in
          let start = !idx in
          Stm.atomically ?config (fun txn ->
              for j = start to stop - 1 do
                apply ops txn stream.(j)
              done);
          idx := stop
        done;
        Stats.add_minor_words (int_of_float (Gc.minor_words () -. words0)))

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev l =
  let m = mean l in
  sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) l))

(* The warmup/measure harness over {!run_trial}. *)
let measure ?config ~trials ~warmup ~label ~threads ~spec ~draw ~fill ~stream
    ~apply make_ops =
  let trial () =
    run_trial ?config ~label ~threads ~spec ~draw ~fill ~stream ~apply make_ops
  in
  for _ = 1 to warmup do
    ignore (trial ());
    Gc.full_major ()
  done;
  (* Warmup latencies would pollute the measured histograms. *)
  Proust_obs.Metrics.reset_scope label;
  let before = Stats.read () in
  let times =
    List.init trials (fun _ ->
        let dt = trial () in
        Gc.full_major ();
        dt)
  in
  let after = Stats.read () in
  let ms = List.map (fun s -> s *. 1000.0) times in
  {
    threads;
    spec;
    mean_ms = mean ms;
    stddev_ms = stddev ms;
    trials_ms = ms;
    throughput = float_of_int spec.Workload.total_ops /. mean times;
    stats = Stats.diff before after;
    latency =
      (if Proust_obs.Metrics.enabled () then Proust_obs.Metrics.read_scope label
       else None);
  }

(** Benchmark a {!Registry.entry} under its config, in the metrics
    scope named after it.  Maps prefill [key_range / 2] random keys;
    queues prefill the values [1 .. key_range / 2]; priority queues
    prefill random values; counters prefill that many increments, so
    early decrements have headroom. *)
let run_entry ?(dist = Workload.Uniform) ?(trials = 3) ?(warmup = 1) ~threads
    ~spec (e : Registry.entry) =
  let measure make_ops =
    measure ?config:e.Registry.config ~trials ~warmup ~label:e.Registry.name
      ~threads ~spec make_ops
  in
  let random rng _ = Random.State.int rng spec.Workload.key_range in
  let index _ i = i in
  let uniform_only () =
    if dist <> Workload.Uniform then
      invalid_arg
        (e.Registry.name ^ ": only map streams have a key distribution")
  in
  match e.Registry.target with
  | Registry.Map make ->
      measure make ~draw:random
        ~fill:(fun ops txn k -> ignore (ops.T.Map.put txn k k))
        ~stream:(fun seed -> Workload.stream ~seed ~dist spec)
        ~apply:Workload.apply_op
  | Registry.Queue make ->
      uniform_only ();
      measure make ~draw:index
        ~fill:(fun ops txn v -> ops.T.Queue.enqueue txn v)
        ~stream:(fun seed -> Workload.queue_stream ~seed spec)
        ~apply:Workload.apply_qop
  | Registry.Pqueue make ->
      uniform_only ();
      measure make ~draw:random
        ~fill:(fun ops txn v -> ops.T.Pqueue.insert txn v)
        ~stream:(fun seed -> Workload.pqueue_stream ~seed spec)
        ~apply:Workload.apply_pqop
  | Registry.Counter make ->
      uniform_only ();
      measure make ~draw:index
        ~fill:(fun ops txn _ -> ops.T.Counter.incr txn)
        ~stream:(fun seed -> Workload.counter_stream ~seed spec)
        ~apply:Workload.apply_cop
