(** Table/series/JSON rendering for benchmark output, in the shape of
    the paper's Figure 4 series.  CSV columns and the
    ["proust-bench/v1"] JSON report derive their STM-counter fields
    from {!Stats.to_assoc}. *)

val header : unit -> unit
val row : name:string -> Runner.result -> unit
val csv_header : out_channel -> unit
val csv_row : out_channel -> name:string -> Runner.result -> unit
val section : string -> unit

(** One measured cell as a JSON object: [impl], then the caller's
    [axes] (the configuration the cell ran under), the run shape ([u],
    [o], [threads], [key_range], …), timings, the {!Stats.to_assoc}
    counter diff, and the latency summary ([null] when metrics were
    off). *)
val json_cell :
  name:string ->
  axes:(string * Proust_obs.Json.t) list ->
  Runner.result ->
  Proust_obs.Json.t

(** The report envelope: [{schema = "proust-bench/v1"; config; cells}].
    [config] carries run-level settings as caller-chosen fields. *)
val json_report :
  config:(string * Proust_obs.Json.t) list ->
  Proust_obs.Json.t list ->
  Proust_obs.Json.t

val write_json :
  file:string ->
  config:(string * Proust_obs.Json.t) list ->
  Proust_obs.Json.t list ->
  unit
