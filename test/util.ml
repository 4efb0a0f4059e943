(** Shared helpers for the test suites. *)

let spawn_all n f =
  List.init n (fun i -> Domain.spawn (fun () -> f i)) |> List.iter Domain.join

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string
let copt_i = Alcotest.(option int)
let clist_i = Alcotest.(list int)

(** Master seed for every randomized/stress suite.  Fixed by default so
    runs are reproducible; override with [PROUST_SEED=<int>] to explore
    other schedules (CI pins it explicitly). *)
let proust_seed =
  match Sys.getenv_opt "PROUST_SEED" with
  | None -> 0xC0FFEE
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None ->
          Printf.ksprintf failwith "PROUST_SEED must be an integer, got %S" s)

let note_seed () =
  Printf.eprintf "\n[proust] failing run used PROUST_SEED=%d — re-run with \
                  PROUST_SEED=%d to reproduce\n%!"
    proust_seed proust_seed

(** [with_seed_note f] runs [f], printing the master seed if it fails,
    so any stress failure names the seed that reproduces it. *)
let with_seed_note f =
  try f ()
  with e ->
    note_seed ();
    raise e

(** Derive a sub-seed for one component of a suite from the master
    seed, so distinct call sites get distinct but reproducible
    streams. *)
let sub_seed salt = proust_seed lxor (salt * 0x9E3779B9)

(** Pin the mode explicitly: the process-wide default follows
    [PROUST_MODE], and suites must not drift with the environment. *)
let cfg_of_mode mode = { (Stm.get_default_config ()) with Stm.mode }

let lazy_cfg = cfg_of_mode Stm.Lazy_lazy
let eager_cfg = cfg_of_mode Stm.Eager_lazy
let eager_eager_cfg = cfg_of_mode Stm.Eager_eager
let serial_cfg = cfg_of_mode Stm.Serial_commit
let mvcc_cfg = cfg_of_mode Stm.Multi_version

(** Every STM mode, named, straight from the single authority —
    extending [Stm.Mode.all] extends each suite that sweeps this. *)
let all_modes =
  List.map (fun m -> (Stm.Mode.to_string m, cfg_of_mode m)) Stm.Mode.all

(** Config suitable for eager-update Proustian structures with an
    optimistic LAP (needs encounter-time detection). *)
let eager_struct_cfg = eager_cfg

let test name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 200) name gen prop =
  (* Seed qcheck's generator from the master seed (salted per test
     name) and report the seed alongside any counterexample. *)
  let rand = Random.State.make [| proust_seed; Hashtbl.hash name |] in
  let prop x =
    match prop x with
    | true -> true
    | false ->
        note_seed ();
        false
    | exception e ->
        note_seed ();
        raise e
  in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ~name gen prop)

(** A bounded FIFO over one plain tvar, front first.  [put] retries
    while the buffer is full and [take] while it is empty, so both
    block on the STM's parking retry path: the producer/consumer
    workload of the [sync] and [chaos] parking tests. *)
module Bounded = struct
  type 'a t = { items : 'a list Tvar.t; cap : int }

  let make cap = { items = Tvar.make []; cap }

  let put txn b v =
    let xs = Stm.read txn b.items in
    if List.length xs >= b.cap then Stm.retry txn;
    Stm.write txn b.items (xs @ [ v ])

  let take txn b =
    match Stm.read txn b.items with
    | [] -> Stm.retry txn
    | x :: rest ->
        Stm.write txn b.items rest;
        x

  let size txn b = List.length (Stm.read txn b.items)
end
