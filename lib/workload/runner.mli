(** Multi-domain throughput runner for the Figure 4 experiment: each
    trial prefills the structure, splits the stream across domains
    released through a spin barrier, and measures first-start to
    last-finish inside the workers (timing from the spawner
    under-measures when domains outnumber cores).  Trials are
    separated by a major GC; warmup trials are discarded.

    The same trial machinery drives maps, FIFO queues, priority queues
    and counters; {!run_entry} dispatches on a {!Registry.entry}.  Each
    worker enters the entry's {!Proust_obs.Metrics} scope (reset after
    warmup), and the scope's latency summary lands in the result when
    metrics are enabled. *)

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

(** [timed n work] spawns [n] worker domains.  Worker [i] first runs
    [work i] (untimed setup) and waits at a barrier; then it runs
    the closure [work i] returned.  The result is the window in
    seconds from the first worker's start to the last worker's finish,
    measured inside the workers on the monotonic clock. *)
val timed : int -> (int -> unit -> unit) -> float

(** Benchmark a registry entry under its config.  For a map,
    [spec.write_fraction] is the write share and [dist] (default
    [Uniform]) the key popularity; for a FIFO or priority queue it is
    the producer share; for a counter, the increment share (the rest
    splits between decrements and value reads).

    @raise Invalid_argument on a non-uniform [dist] for a queue,
    priority queue or counter entry: their streams have no key
    distribution. *)
val run_entry :
  ?dist:Workload.distribution ->
  ?trials:int ->
  ?warmup:int ->
  threads:int ->
  spec:Workload.spec ->
  Registry.entry ->
  result
