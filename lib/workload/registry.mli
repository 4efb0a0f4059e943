(** The benchmarkable-implementation registry: one entry per
    (structure, configuration-variant) point across maps, FIFO queues
    and priority queues, keyed by the structure's
    {!Proust_structures.Trait.meta} header.  The STM configuration an
    entry requires is derived from the header (an [Encounter_time]
    structure gets an eager-mode config, per Figure 1), so an
    implementation cannot be enumerated under a mode that would
    violate Theorem 5.2. *)

type target =
  | Map of (unit -> (int, int) Proust_structures.Trait.Map.ops)
  | Queue of (unit -> int Proust_structures.Trait.Queue.ops)
  | Pqueue of (unit -> int Proust_structures.Trait.Pqueue.ops)
  | Counter of (unit -> Proust_structures.Trait.Counter.ops)

type entry = {
  name : string;  (** registry key; also the meta/trace label *)
  meta : Proust_structures.Trait.meta;
  config : Stm.config option;
      (** the STM config the entry needs for soundness; [None] =
          whatever the process default currently is *)
  target : target;
}

(** Eager-mode variant of the current default config (captured at call
    time — the default is mutable process state). *)
val eager_mode : unit -> Stm.config

(** Derive the config an implementation with this header requires. *)
val config_for : Proust_structures.Trait.meta -> Stm.config option

(** [under e mode] runs [e] under [mode] when its trait header admits
    it ({!Proust_structures.Trait.mode_ok}, Theorem 5.2), and under
    [Eager_lazy] otherwise; the rest of the config is [e]'s own or the
    current default. *)
val under : entry -> Stm.mode -> entry

val all : ?slots:int -> unit -> entry list

(** Builds only the named entry's structure (to read its meta). *)
val find : ?slots:int -> string -> entry option

val names : unit -> string list
