(** Parking suite: blocking [Stm.retry] on plain tvars.

    A blocked retry parks its domain on every tvar it read and is woken
    by the commit that changes one of them.  These tests pin that path:
    a parked retry consumes no busy-poll iterations, the legacy [Poll]
    mode still polls, deadlines are honored while parked, a blocked
    [or_else] parks once on the union of its branches' read sets, one
    commit wakes every waiter parked on a tvar, and a deliberately
    broken waker (dropped wakeups via {!Fault.Commit_wake}) is caught by
    deadline-bounded parks instead of hanging the domain.

    Multi-domain width scales with [PROUST_SYNC_DOMAINS] (CI runs the
    suite at 2 and 8). *)

open Util

let sync_domains =
  match Sys.getenv_opt "PROUST_SYNC_DOMAINS" with
  | None -> 4
  | Some s -> max 2 (int_of_string s)

(* Wait until [n] waiters are really parked, not merely spawned. *)
let await_parked n =
  let deadline = Clock.now_mono () +. 5.0 in
  while Stm.parked_waiters () < n && Clock.now_mono () < deadline do
    Domain.cpu_relax ()
  done

(* Run [f] under a generous deadline, so a missed wakeup fails the test
   instead of hanging it, while a slow schedule on an oversubscribed
   host does not. *)
let within ?config f =
  match Stm.atomic ?config ~deadline:(Clock.now_mono () +. 60.0) f with
  | Stm.Outcome.Committed v -> v
  | o -> Alcotest.fail ("transaction ended " ^ Stm.Outcome.name o)

let spawn_taker b =
  Domain.spawn (fun () -> Stm.atomically (fun txn -> Bounded.take txn b))

(* The tentpole property: a blocked retry PARKS — the stats window
   around a blocked-then-woken take shows at least one park and one
   wakeup, and exactly zero busy-poll iterations. *)
let test_parked_retry_no_polls () =
  check cb "park mode is the default" true (Stm.retry_mode () = Stm.Park);
  let b = Bounded.make 4 in
  let before = Stats.read () in
  let d = spawn_taker b in
  await_parked 1;
  check ci "consumer is parked" 1 (Stm.parked_waiters ());
  Stm.atomically (fun txn -> Bounded.put txn b 7);
  check ci "woken with the element" 7 (Domain.join d);
  let s = Stats.diff before (Stats.read ()) in
  check cb "parked at least once" true (s.Stats.parks >= 1);
  check cb "woken at least once" true (s.Stats.wakeups >= 1);
  check ci "zero busy-poll iterations" 0 s.Stats.retry_polls;
  check cb "wait-list high-water recorded" true (s.Stats.wait_list_max >= 1);
  check ci "no waiters left behind" 0 (Stm.parked_waiters ())

(* A parked-then-woken take with metrics on must land at least one
   sample in the wakeup-latency histogram: [Waitq.wake] stamps the
   publication time, the resuming domain records the delta.  Timer
   expiries must not contribute (checked implicitly: the put is the
   only wake here). *)
let test_wakeup_latency_histogram () =
  let module Obs = Proust_obs in
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Fun.protect ~finally:Obs.Metrics.disable @@ fun () ->
  let b = Bounded.make 4 in
  let d = spawn_taker b in
  await_parked 1;
  Stm.atomically (fun txn -> Bounded.put txn b 7);
  check ci "woken with the element" 7 (Domain.join d);
  let samples =
    List.fold_left
      (fun acc s -> acc + s.Obs.Metrics.wakeup.Obs.Histogram.count)
      0 (Obs.Metrics.scopes ())
  in
  check cb "wakeup latency sampled" true (samples >= 1)

(* The legacy poll mode still works and is observable: the same
   scenario burns poll iterations and never parks. *)
let test_poll_mode_burns_iterations () =
  Stm.set_retry_mode Stm.Poll;
  Fun.protect
    ~finally:(fun () -> Stm.set_retry_mode Stm.Park)
    (fun () ->
      let b = Bounded.make 4 in
      let before = Stats.read () in
      let d = spawn_taker b in
      Unix.sleepf 0.05;
      Stm.atomically (fun txn -> Bounded.put txn b 9);
      check ci "woken with the element" 9 (Domain.join d);
      let s = Stats.diff before (Stats.read ()) in
      check cb "poll iterations recorded" true (s.Stats.retry_polls > 0);
      check ci "never parked" 0 s.Stats.parks)

let test_deadline_while_parked () =
  let b : int Bounded.t = Bounded.make 4 in
  let t0 = Clock.now_mono () in
  (* Nobody ever puts: the park must be broken by the deadline timer,
     not hang. *)
  (match Stm.atomic ~deadline:(t0 +. 0.1) (fun txn -> Bounded.take txn b) with
  | Stm.Outcome.Timed_out -> ()
  | _ -> Alcotest.fail "expected Timed_out");
  let dt = Clock.now_mono () -. t0 in
  check cb "woke near the deadline, not seconds later" true (dt < 2.0);
  check ci "no waiters left behind" 0 (Stm.parked_waiters ());
  Stm.descriptor_pool_check ()

(* A transaction whose [or_else] branches both retry parks once, on the
   union of the branches' read sets: a commit to EITHER branch's tvar
   wakes it.  The deadline turns a missed wakeup into a failure
   instead of a hang. *)
let test_or_else_wakes_on_either ?config () =
  let pick side =
    let a = Tvar.make None and b = Tvar.make None in
    let take tv txn =
      match Stm.read txn tv with None -> Stm.retry txn | Some v -> v
    in
    let before = Stats.read () in
    let d =
      Domain.spawn (fun () ->
          Stm.atomic ?config
            ~deadline:(Clock.now_mono () +. 10.0)
            (fun txn -> Stm.or_else txn (take a) (take b)))
    in
    await_parked 1;
    let on_a = Tvar.waiter_count a and on_b = Tvar.waiter_count b in
    Stm.atomically ?config (fun txn ->
        Stm.write txn (if side = 0 then a else b) (Some (side + 10)));
    let o = Domain.join d in
    check ci "registered on the first branch's tvar" 1 on_a;
    check ci "registered on the second branch's tvar" 1 on_b;
    check ci "parked once" 1 (Stats.diff before (Stats.read ())).Stats.parks;
    match o with
    | Stm.Outcome.Committed v -> v
    | o -> Alcotest.fail ("expected Committed, got " ^ Stm.Outcome.name o)
  in
  check ci "woken by a commit to the first branch's tvar" 10 (pick 0);
  check ci "woken by a commit to the second branch's tvar" 11 (pick 1);
  check ci "no waiters left behind" 0 (Stm.parked_waiters ())

(* One commit wakes every waiter parked on a tvar: the committer
   detaches the tvar's whole wait list and wakes each entry.  The
   deadline turns a waiter left parked into a failure instead of a
   hang. *)
let test_commit_wakes_all_waiters ?config () =
  let flag = Tvar.make None in
  let waiters =
    List.init sync_domains (fun _ ->
        Domain.spawn (fun () ->
            Stm.atomic ?config
              ~deadline:(Clock.now_mono () +. 10.0)
              (fun txn ->
                match Stm.read txn flag with
                | None -> Stm.retry txn
                | Some v -> v)))
  in
  await_parked sync_domains;
  let parked = Stm.parked_waiters () in
  Stm.atomically ?config (fun txn -> Stm.write txn flag (Some 42));
  List.iter
    (fun d ->
      match Domain.join d with
      | Stm.Outcome.Committed v -> check ci "woken with the value" 42 v
      | o -> Alcotest.fail ("waiter left parked: " ^ Stm.Outcome.name o))
    waiters;
  check ci "every waiter was parked" sync_domains parked;
  check ci "no waiters left behind" 0 (Stm.parked_waiters ())

(* A bounded buffer hands elements over in FIFO order through both
   park directions, under the given mode on both sides: the producer
   parks on a full buffer, the consumer on an empty one. *)
let test_handoff ?config () =
  let b = Bounded.make 2 and n = 50 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          within ?config (fun txn -> Bounded.put txn b i)
        done)
  in
  let got =
    List.init n (fun _ -> within ?config (fun txn -> Bounded.take txn b))
  in
  Domain.join producer;
  check clist_i "fifo order" (List.init n succ) got;
  check ci "no waiters left behind" 0 (Stm.parked_waiters ())

(* ------------------------------------------------------------------ *)
(* Retry idioms on plain tvars, single domain                          *)

let test_bounded_capacity () =
  let b = Bounded.make 2 in
  let try_put v =
    Stm.atomically (fun txn ->
        Stm.or_else txn
          (fun txn ->
            Bounded.put txn b v;
            true)
          (fun _ -> false))
  in
  check cb "put 1" true (try_put 1);
  check cb "put 2" true (try_put 2);
  check cb "full" false (try_put 3);
  check ci "size" 2 (Stm.atomically (fun txn -> Bounded.size txn b));
  check ci "take" 1 (Stm.atomically (fun txn -> Bounded.take txn b));
  check cb "slot freed" true (try_put 3)

(* An [or_else] whose last branch never retries never parks. *)
let test_or_else_default () =
  let b : int Bounded.t = Bounded.make 2 in
  let before = Stats.read () in
  let v =
    Stm.atomically (fun txn ->
        Stm.or_else txn (fun txn -> Some (Bounded.take txn b)) (fun _ -> None))
  in
  check copt_i "default taken on an empty buffer" None v;
  check ci "never parked" 0 (Stats.diff before (Stats.read ())).Stats.parks

let test_or_else_list_priority () =
  let a = Bounded.make 4 and b = Bounded.make 4 in
  Stm.atomically (fun txn ->
      Bounded.put txn a 1;
      Bounded.put txn a 2;
      Bounded.put txn b 3);
  let pick () =
    Stm.atomically (fun txn ->
        Stm.or_else_list txn
          [
            (fun txn -> Some (Bounded.take txn a));
            (fun txn -> Some (Bounded.take txn b));
            (fun _ -> None);
          ])
  in
  let got = List.init 4 (fun _ -> pick ()) in
  check
    Alcotest.(list (option int))
    "first buffer drained before the second"
    [ Some 1; Some 2; Some 3; None ]
    got

(* ------------------------------------------------------------------ *)
(* Multi-domain coordination on plain tvars                            *)

(* A take that reads a [closed] flag next to an empty buffer parks on
   both; closing wakes every such taker, which then gives up. *)
let test_close_wakes_takers () =
  let b : int Bounded.t = Bounded.make 2 and closed = Tvar.make false in
  let takers =
    List.init sync_domains (fun _ ->
        Domain.spawn (fun () ->
            within (fun txn ->
                if Stm.read txn closed then None
                else Some (Bounded.take txn b))))
  in
  await_parked sync_domains;
  Stm.atomically (fun txn -> Stm.write txn closed true);
  List.iter
    (fun d -> check copt_i "released by the close" None (Domain.join d))
    takers;
  check ci "no waiters left behind" 0 (Stm.parked_waiters ())

(* Two stages of capacity-2 buffers: a source, [sync_domains] workers
   doubling each element, and the main domain as sink.  A [None]
   per worker shuts the stage down. *)
let test_pipeline_conserves () =
  with_seed_note (fun () ->
      let jobs = Bounded.make 2 and results = Bounded.make 2 in
      let n = 200 in
      let workers =
        List.init sync_domains (fun _ ->
            Domain.spawn (fun () ->
                let rec loop () =
                  match within (fun txn -> Bounded.take txn jobs) with
                  | None -> ()
                  | Some v ->
                      within (fun txn -> Bounded.put txn results (2 * v));
                      loop ()
                in
                loop ()))
      in
      let source =
        Domain.spawn (fun () ->
            for i = 1 to n do
              within (fun txn -> Bounded.put txn jobs (Some i))
            done;
            for _ = 1 to sync_domains do
              within (fun txn -> Bounded.put txn jobs None)
            done)
      in
      let sum = ref 0 in
      for _ = 1 to n do
        sum := !sum + within (fun txn -> Bounded.take txn results)
      done;
      Domain.join source;
      List.iter Domain.join workers;
      check ci "every element arrives once, doubled" (n * (n + 1)) !sum;
      check ci "no waiters left behind" 0 (Stm.parked_waiters ()))

let test_write_once_race () =
  with_seed_note (fun () ->
      let cell = Tvar.make None and winners = Atomic.make 0 in
      spawn_all sync_domains (fun i ->
          let won =
            Stm.atomically (fun txn ->
                Stm.read txn cell = None
                && (Stm.write txn cell (Some i);
                    true))
          in
          if won then Atomic.incr winners);
      check ci "exactly one writer wins" 1 (Atomic.get winners);
      check cb "the cell holds the winner" true
        (Stm.atomically (fun txn -> Stm.read txn cell) <> None))

(* A counting semaphore on one tvar: [acquire n] retries until [n]
   permits are free. *)
let acquire permits n txn =
  let p = Stm.read txn permits in
  Stm.guard txn (p >= n);
  Stm.write txn permits (p - n)

let release permits n txn = Stm.write txn permits (Stm.read txn permits + n)

let test_semaphore_occupancy () =
  with_seed_note (fun () ->
      let cap = 2 in
      let permits = Tvar.make cap in
      let inside = Atomic.make 0 and over = Atomic.make false in
      spawn_all sync_domains (fun _ ->
          for _ = 1 to 100 do
            within (acquire permits 1);
            if Atomic.fetch_and_add inside 1 >= cap then Atomic.set over true;
            Domain.cpu_relax ();
            Atomic.decr inside;
            Stm.atomically (release permits 1)
          done);
      check cb "occupancy never exceeds the permits" false (Atomic.get over);
      check ci "all permits returned" cap
        (Stm.atomically (fun txn -> Stm.read txn permits)))

(* A parked multi-permit acquire stays parked through a release that
   leaves it short and wakes on the one that completes its demand. *)
let test_multi_permit_acquire () =
  let permits = Tvar.make 1 in
  let d = Domain.spawn (fun () -> within (acquire permits 3)) in
  await_parked 1;
  Stm.atomically (release permits 1);
  Unix.sleepf 0.02;
  check ci "still parked with 2 of 3 permits" 1 (Stm.parked_waiters ());
  Stm.atomically (release permits 1);
  Domain.join d;
  check ci "3 of 3 permits taken" 0
    (Stm.atomically (fun txn -> Stm.read txn permits))

(* Waiters parked on one [serving] tvar, each for its own ticket: every
   commit wakes them all, and only the holder of the next ticket may
   proceed, so completions follow ticket order. *)
let test_ticket_order () =
  let serving = Tvar.make 0 and order = Tvar.make [] in
  let waiters =
    List.init sync_domains (fun t ->
        Domain.spawn (fun () ->
            within (fun txn ->
                Stm.guard txn (Stm.read txn serving = t);
                Stm.write txn order (t :: Stm.read txn order);
                Stm.write txn serving (t + 1))))
  in
  List.iter Domain.join waiters;
  check clist_i "served in ticket order"
    (List.init sync_domains (fun t -> sync_domains - 1 - t))
    (Stm.atomically (fun txn -> Stm.read txn order));
  check ci "no waiters left behind" 0 (Stm.parked_waiters ())

(* ------------------------------------------------------------------ *)
(* The lost-wakeup regression                                           *)

(* A broken waker — every writing commit drops its wait-list scan
   ([Commit_wake] draws [Kill] with probability 1) — must not hang a
   parked consumer: the deadline-bounded park times out instead.  The
   healthy control (no injection) wakes promptly and commits. *)
let test_lost_wakeup_regression () =
  let run_consumer () =
    let b = Bounded.make 4 in
    let d =
      Domain.spawn (fun () ->
          Stm.atomic
            ~deadline:(Clock.now_mono () +. 0.4)
            (fun txn -> Bounded.take txn b))
    in
    await_parked 1;
    Stm.atomically (fun txn -> Bounded.put txn b 21);
    Domain.join d
  in
  (* Healthy control first: the wakeup path works. *)
  (match run_consumer () with
  | Stm.Outcome.Committed 21 -> ()
  | o -> Alcotest.fail ("healthy waker: expected Committed, got " ^ Stm.Outcome.name o));
  (* Broken waker: the producer's commit is real (the element lands)
     but the wakeup is dropped; only the deadline frees the parked
     domain.  Without the timer this test would hang forever. *)
  Fault.configure ~seed:(sub_seed 0xbad)
    [ (Fault.Commit_wake, { Fault.prob = 1.0; actions = [ Fault.Kill ] }) ];
  Fun.protect ~finally:Fault.disable (fun () ->
      match run_consumer () with
      | Stm.Outcome.Timed_out -> ()
      | o ->
          Alcotest.fail
            ("broken waker: expected Timed_out, got " ^ Stm.Outcome.name o));
  check ci "no waiters left behind" 0 (Stm.parked_waiters ());
  Stm.descriptor_pool_check ()

(* ------------------------------------------------------------------ *)
(* Seeded multi-domain stress                                           *)

(* Producers fill two small buffers, so they park when both are full;
   consumers take from either through [or_else], so they park on both
   when both are empty.  Every element arrives exactly once and no
   waiter is left parked.  Each transaction carries a generous
   deadline, so a missed wakeup fails the test instead of hanging it. *)
let test_parking_stress () =
  with_seed_note (fun () ->
      let a = Bounded.make 4 and b = Bounded.make 4 in
      let half = sync_domains / 2 in
      let n = 300 in
      let total = half * n in
      let claimed = Atomic.make 0 and sum = Atomic.make 0 in
      let producers =
        List.init half (fun p ->
            Domain.spawn (fun () ->
                let rng = Random.State.make [| sub_seed (p + 1) |] in
                for i = 1 to n do
                  let buf = if Random.State.bool rng then a else b in
                  within (fun txn -> Bounded.put txn buf ((p * n) + i));
                  if Random.State.int rng 16 = 0 then Domain.cpu_relax ()
                done))
      in
      let consumers =
        List.init half (fun _ ->
            Domain.spawn (fun () ->
                while Atomic.fetch_and_add claimed 1 < total do
                  let v =
                    within (fun txn ->
                        Stm.or_else txn
                          (fun txn -> Bounded.take txn a)
                          (fun txn -> Bounded.take txn b))
                  in
                  ignore (Atomic.fetch_and_add sum v)
                done))
      in
      List.iter Domain.join producers;
      List.iter Domain.join consumers;
      check ci "every element received exactly once"
        (total * (total + 1) / 2)
        (Atomic.get sum);
      check ci "buffers drained" 0
        (Stm.atomically (fun txn -> Bounded.size txn a + Bounded.size txn b));
      check ci "no waiters left behind" 0 (Stm.parked_waiters ());
      Stm.descriptor_pool_check ())

let suite =
  [
    test "parked retry burns zero poll iterations" test_parked_retry_no_polls;
    test "wakeup latency histogram gets samples" test_wakeup_latency_histogram;
    test "poll mode still works and is observable"
      test_poll_mode_burns_iterations;
    test "deadline honored while parked" test_deadline_while_parked;
    test "a blocked or_else parks once and wakes on a commit to either \
          branch's tvar"
      (test_or_else_wakes_on_either ?config:None);
    test "one commit wakes every waiter parked on a tvar"
      (test_commit_wakes_all_waiters ?config:None);
    test "bounded buffer capacity accounting" test_bounded_capacity;
    test "or_else default makes a take non-blocking" test_or_else_default;
    test "or_else_list drains in priority order" test_or_else_list_priority;
    test "closing flag wakes takers parked on an empty buffer"
      test_close_wakes_takers;
    slow "pipeline over bounded buffers conserves elements"
      test_pipeline_conserves;
    test "write-once tvar: exactly one racing writer wins"
      test_write_once_race;
    slow "tvar semaphore occupancy stays within permits"
      test_semaphore_occupancy;
    test "multi-permit acquire parks until its demand is met"
      test_multi_permit_acquire;
    test "waiters on one tvar proceed in ticket order" test_ticket_order;
    slow "lost wakeup caught by deadline-bounded park"
      test_lost_wakeup_regression;
    slow "seeded multi-domain parking stress" test_parking_stress;
  ]
  (* Every mode's commit path must wake the waiters it releases. *)
  @ List.concat_map
      (fun (m, config) ->
        let under name f = test (Printf.sprintf "%s under %s" name m) f in
        [
          under "bounded buffer handoff" (test_handoff ~config);
          under "blocked or_else woken by either branch"
            (test_or_else_wakes_on_either ~config);
          under "one commit wakes every parked waiter"
            (test_commit_wakes_all_waiters ~config);
        ])
      all_modes
