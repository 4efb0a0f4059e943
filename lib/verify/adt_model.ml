(** Finite models of abstract data types (§3, "it is sufficient to work
    with a model (or sequential implementation) of the abstract data
    type").  A model enumerates a bounded state space and a bounded set
    of operation instances; {!Commute} and {!Ca_check} quantify over
    them exhaustively. *)

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

(* ------------------------------------------------------------------ *)
(* The §3 non-negative counter.                                        *)

type counter_op = Incr | Decr
type counter_ret = Ok_unit | Decr_ok | Decr_err

let counter ~bound : (int, counter_op, counter_ret) t =
  {
    name = "counter";
    (* Keep headroom below [bound] so Incr stays total on the explored
       states. *)
    states = List.init (bound - 1) Fun.id;
    ops = [ Incr; Decr ];
    apply =
      (fun s op ->
        match op with
        | Incr -> (s + 1, Ok_unit)
        | Decr -> if s = 0 then (0, Decr_err) else (s - 1, Decr_ok));
    equal_state = Int.equal;
    equal_ret = (fun a b -> a = b);
    show_state = string_of_int;
    show_op = (function Incr -> "incr" | Decr -> "decr");
  }

(* ------------------------------------------------------------------ *)
(* A small map (association list over a tiny key/value domain).        *)

type map_op = MGet of int | MPut of int * int | MRemove of int
type map_ret = MVal of int option | MUnit

let rec insert_sorted k v = function
  | [] -> [ (k, v) ]
  | (k', v') :: rest ->
      if k < k' then (k, v) :: (k', v') :: rest
      else if k = k' then (k, v) :: rest
      else (k', v') :: insert_sorted k v rest

let all_map_states ~keys ~values =
  (* Every partial function from keys to values, as a sorted alist. *)
  let rec go = function
    | [] -> [ [] ]
    | k :: rest ->
        let tails = go rest in
        List.concat_map
          (fun tail ->
            ([] @ [ tail ])
            @ List.map (fun v -> (k, v) :: tail) values)
          tails
        |> List.sort_uniq compare
  in
  go keys

let small_map ?(keys = [ 0; 1; 2 ]) ?(values = [ 0; 1 ]) () :
    ((int * int) list, map_op, map_ret) t =
  {
    name = "small-map";
    states = all_map_states ~keys ~values;
    ops =
      List.concat_map
        (fun k ->
          [ MGet k; MRemove k ] @ List.map (fun v -> MPut (k, v)) values)
        keys;
    apply =
      (fun s op ->
        match op with
        | MGet k -> (s, MVal (List.assoc_opt k s))
        | MPut (k, v) -> (insert_sorted k v s, MVal (List.assoc_opt k s))
        | MRemove k ->
            (List.remove_assoc k s, MVal (List.assoc_opt k s)));
    equal_state = (fun a b -> a = b);
    equal_ret = (fun a b -> a = b);
    show_state =
      (fun s ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) s)
        ^ "}");
    show_op =
      (function
      | MGet k -> Printf.sprintf "get(%d)" k
      | MPut (k, v) -> Printf.sprintf "put(%d,%d)" k v
      | MRemove k -> Printf.sprintf "remove(%d)" k);
  }

(* ------------------------------------------------------------------ *)
(* A small priority queue (sorted multiset of ints).                   *)

type pq_op = PInsert of int | PRemoveMin | PMin | PContains of int
type pq_ret = PUnit | PVal of int option | PBool of bool

let all_multisets ~values ~max_size =
  let rec go size =
    if size = 0 then [ [] ]
    else
      let smaller = go (size - 1) in
      smaller
      @ (List.concat_map
           (fun ms -> List.map (fun v -> List.sort compare (v :: ms)) values)
           (List.filter (fun ms -> List.length ms = size - 1) smaller)
        |> List.sort_uniq compare)
  in
  List.sort_uniq compare (go max_size)

let small_pqueue ?(values = [ 0; 1; 2 ]) ?(max_size = 3) () :
    (int list, pq_op, pq_ret) t =
  {
    name = "small-pqueue";
    states = all_multisets ~values ~max_size;
    ops =
      [ PRemoveMin; PMin ]
      @ List.concat_map (fun v -> [ PInsert v; PContains v ]) values;
    apply =
      (fun s op ->
        match op with
        | PInsert v -> (List.sort compare (v :: s), PUnit)
        | PRemoveMin -> (
            match s with [] -> ([], PVal None) | m :: rest -> (rest, PVal (Some m)))
        | PMin -> (s, PVal (match s with [] -> None | m :: _ -> Some m))
        | PContains v -> (s, PBool (List.mem v s)));
    equal_state = (fun a b -> a = b);
    equal_ret = (fun a b -> a = b);
    show_state =
      (fun s -> "[" ^ String.concat ";" (List.map string_of_int s) ^ "]");
    show_op =
      (function
      | PInsert v -> Printf.sprintf "insert(%d)" v
      | PRemoveMin -> "removeMin"
      | PMin -> "min"
      | PContains v -> Printf.sprintf "contains(%d)" v);
  }

(* ------------------------------------------------------------------ *)
(* A small FIFO queue (front-first list).                              *)

type q_op = QEnq of int | QDeq | QFront
type q_ret = QUnit | QVal of int option

let all_lists ~values ~max_len =
  let rec go len =
    if len = 0 then [ [] ]
    else
      let shorter = go (len - 1) in
      shorter
      @ (List.concat_map
           (fun l ->
             if List.length l = len - 1 then List.map (fun v -> v :: l) values
             else [])
           shorter
        |> List.sort_uniq compare)
  in
  List.sort_uniq compare (go max_len)

let small_queue ?(values = [ 0; 1 ]) ?(max_len = 3) () :
    (int list, q_op, q_ret) t =
  {
    name = "small-queue";
    states = all_lists ~values ~max_len;
    ops = [ QDeq; QFront ] @ List.map (fun v -> QEnq v) values;
    apply =
      (fun s op ->
        match op with
        | QEnq v -> (s @ [ v ], QUnit)
        | QDeq -> (
            match s with [] -> ([], QVal None) | x :: rest -> (rest, QVal (Some x)))
        | QFront ->
            (s, QVal (match s with [] -> None | x :: _ -> Some x)));
    equal_state = (fun a b -> a = b);
    equal_ret = (fun a b -> a = b);
    show_state =
      (fun s -> "<" ^ String.concat ";" (List.map string_of_int s) ^ ">");
    show_op =
      (function
      | QEnq v -> Printf.sprintf "enq(%d)" v
      | QDeq -> "deq"
      | QFront -> "front");
  }

(* ------------------------------------------------------------------ *)
(* The §3 counter with an observer: adds a transactional value read    *)
(* (P_counter's observable band), so recorded reads land in-history.   *)

type obs_counter_op = CIncr | CDecr | CGet
type obs_counter_ret = CUnit | CBool of bool | CInt of int

let obs_counter ~bound : (int, obs_counter_op, obs_counter_ret) t =
  {
    name = "obs-counter";
    states = List.init (bound - 1) Fun.id;
    ops = [ CIncr; CDecr; CGet ];
    apply =
      (fun s op ->
        match op with
        | CIncr -> (s + 1, CUnit)
        | CDecr -> if s = 0 then (0, CBool false) else (s - 1, CBool true)
        | CGet -> (s, CInt s));
    equal_state = Int.equal;
    equal_ret = (fun a b -> a = b);
    show_state = string_of_int;
    show_op =
      (function CIncr -> "incr" | CDecr -> "decr" | CGet -> "get");
  }

(* ------------------------------------------------------------------ *)
(* A small double-ended queue (front-first list).                      *)

type dq_op =
  | DPushFront of int
  | DPushBack of int
  | DPopFront
  | DPopBack
  | DPeekFront
  | DPeekBack

type dq_ret = DUnit | DVal of int option

let small_deque ?(values = [ 0; 1 ]) ?(max_len = 3) () :
    (int list, dq_op, dq_ret) t =
  {
    name = "small-deque";
    states = all_lists ~values ~max_len;
    ops =
      [ DPopFront; DPopBack; DPeekFront; DPeekBack ]
      @ List.concat_map (fun v -> [ DPushFront v; DPushBack v ]) values;
    apply =
      (fun s op ->
        let last l = List.nth l (List.length l - 1) in
        let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l in
        match op with
        | DPushFront v -> (v :: s, DUnit)
        | DPushBack v -> (s @ [ v ], DUnit)
        | DPopFront -> (
            match s with
            | [] -> ([], DVal None)
            | x :: rest -> (rest, DVal (Some x)))
        | DPopBack ->
            if s = [] then ([], DVal None)
            else (drop_last s, DVal (Some (last s)))
        | DPeekFront ->
            (s, DVal (match s with [] -> None | x :: _ -> Some x))
        | DPeekBack -> (s, DVal (if s = [] then None else Some (last s))));
    equal_state = (fun a b -> a = b);
    equal_ret = (fun a b -> a = b);
    show_state =
      (fun s -> ">" ^ String.concat ";" (List.map string_of_int s) ^ "<");
    show_op =
      (function
      | DPushFront v -> Printf.sprintf "pushFront(%d)" v
      | DPushBack v -> Printf.sprintf "pushBack(%d)" v
      | DPopFront -> "popFront"
      | DPopBack -> "popBack"
      | DPeekFront -> "peekFront"
      | DPeekBack -> "peekBack");
  }

(* ------------------------------------------------------------------ *)
(* A small ordered map with range queries.                             *)

type o_op = OGet of int | OPut of int * int | ORemove of int | ORange of int * int
type o_ret = OVal of int option | OList of (int * int) list

let small_omap ?(keys = [ 0; 1; 2; 3 ]) ?(values = [ 0 ]) () :
    ((int * int) list, o_op, o_ret) t =
  {
    name = "small-omap";
    states = all_map_states ~keys ~values;
    ops =
      List.concat_map
        (fun k -> [ OGet k; ORemove k ] @ List.map (fun v -> OPut (k, v)) values)
        keys
      @ [ ORange (0, 1); ORange (1, 2); ORange (0, 3); ORange (2, 3) ];
    apply =
      (fun s op ->
        match op with
        | OGet k -> (s, OVal (List.assoc_opt k s))
        | OPut (k, v) -> (insert_sorted k v s, OVal (List.assoc_opt k s))
        | ORemove k -> (List.remove_assoc k s, OVal (List.assoc_opt k s))
        | ORange (lo, hi) ->
            (s, OList (List.filter (fun (k, _) -> k >= lo && k <= hi) s)));
    equal_state = (fun a b -> a = b);
    equal_ret = (fun a b -> a = b);
    show_state =
      (fun s ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) s)
        ^ "}");
    show_op =
      (function
      | OGet k -> Printf.sprintf "get(%d)" k
      | OPut (k, v) -> Printf.sprintf "put(%d,%d)" k v
      | ORemove k -> Printf.sprintf "remove(%d)" k
      | ORange (lo, hi) -> Printf.sprintf "range(%d,%d)" lo hi);
  }
