(** Finite models of abstract data types (§3: "it is sufficient to
    work with a model (or sequential implementation) of the abstract
    data type").  A model enumerates a bounded state space and a
    bounded set of operation instances; {!Commute} and {!Ca_check}
    quantify over them exhaustively. *)

type ('s, 'o, 'r) t = {
  name : string;
  states : 's list;  (** bounded state space to quantify over *)
  ops : 'o list;  (** operation instances, arguments included *)
  apply : 's -> 'o -> 's * 'r;
  equal_state : 's -> 's -> bool;
  equal_ret : 'r -> 'r -> bool;
  show_state : 's -> string;
  show_op : 'o -> string;
}

(** {1 The §3 non-negative counter} *)

type counter_op = Incr | Decr
type counter_ret = Ok_unit | Decr_ok | Decr_err

(** States [0 .. bound-2]; headroom keeps [Incr] total on the explored
    states. *)
val counter : bound:int -> (int, counter_op, counter_ret) t

(** {1 A small map (sorted association list)} *)

type map_op = MGet of int | MPut of int * int | MRemove of int
type map_ret = MVal of int option | MUnit

val insert_sorted : int -> 'v -> (int * 'v) list -> (int * 'v) list
val all_map_states : keys:int list -> values:int list -> (int * int) list list

val small_map :
  ?keys:int list -> ?values:int list -> unit ->
  ((int * int) list, map_op, map_ret) t

(** {1 A small priority queue (sorted multiset)} *)

type pq_op = PInsert of int | PRemoveMin | PMin | PContains of int
type pq_ret = PUnit | PVal of int option | PBool of bool

val all_multisets : values:int list -> max_size:int -> int list list

val small_pqueue :
  ?values:int list -> ?max_size:int -> unit -> (int list, pq_op, pq_ret) t

(** {1 A small FIFO queue (front-first list)} *)

type q_op = QEnq of int | QDeq | QFront
type q_ret = QUnit | QVal of int option

val all_lists : values:int list -> max_len:int -> int list list

val small_queue :
  ?values:int list -> ?max_len:int -> unit -> (int list, q_op, q_ret) t

(** {1 The §3 counter with an observable value read} *)

type obs_counter_op = CIncr | CDecr | CGet
type obs_counter_ret = CUnit | CBool of bool | CInt of int

val obs_counter : bound:int -> (int, obs_counter_op, obs_counter_ret) t

(** {1 A small double-ended queue (front-first list)} *)

type dq_op =
  | DPushFront of int
  | DPushBack of int
  | DPopFront
  | DPopBack
  | DPeekFront
  | DPeekBack

type dq_ret = DUnit | DVal of int option

val small_deque :
  ?values:int list -> ?max_len:int -> unit -> (int list, dq_op, dq_ret) t

(** {1 A small ordered map with range queries} *)

type o_op =
  | OGet of int
  | OPut of int * int
  | ORemove of int
  | ORange of int * int

type o_ret = OVal of int option | OList of (int * int) list

val small_omap :
  ?keys:int list -> ?values:int list -> unit ->
  ((int * int) list, o_op, o_ret) t
