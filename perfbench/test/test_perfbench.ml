(* Tests for the benchmark's own pure pieces: percentile selection,
   open-loop lateness, the timing wrapper, the sustained-rate pick and
   the correctness checks. *)

open Perfbench
module S = Proust_structures
module T = S.Trait

let ok = Alcotest.(check bool)
let is_error = function Ok () -> false | Error _ -> true

(* ------------------------------------------------------------------ *)
(* Percentiles                                                          *)

let test_nearest_rank () =
  let s = Pct.sorted (Array.init 100 (fun i -> 100 - i)) in
  Alcotest.(check int) "p50 of 1..100" 50 (Pct.at s 50.);
  Alcotest.(check int) "p99 of 1..100" 99 (Pct.at s 99.);
  Alcotest.(check int) "p100 of 1..100" 100 (Pct.at s 100.);
  Alcotest.(check int) "p0 clamps to the minimum" 1 (Pct.at s 0.);
  Alcotest.(check int) "samples beyond p99 of 100" 1 (Pct.beyond 100 99.)

let tail_q n =
  match Pct.tail ~q:99. (Pct.sorted (Array.init n Fun.id)) with
  | Some t -> t.Pct.q
  | None -> -1.

let test_tail_selection () =
  (* p99 needs 10 samples beyond it: 1000 samples leave exactly 10. *)
  Alcotest.(check (float 0.)) "1000 samples: p99" 99. (tail_q 1000);
  Alcotest.(check (float 0.)) "999 samples: p95" 95. (tail_q 999);
  Alcotest.(check (float 0.)) "150 samples: p90" 90. (tail_q 150);
  Alcotest.(check (float 0.)) "25 samples: p50" 50. (tail_q 25);
  Alcotest.(check (float 0.)) "15 samples: none" (-1.) (tail_q 15);
  match Pct.tail ~q:99. (Pct.sorted (Array.init 2000 (fun i -> i + 1))) with
  | Some t ->
      Alcotest.(check int) "exact value, not a bucket bound" 1980 t.Pct.value;
      Alcotest.(check int) "count" 2000 t.Pct.count
  | None -> Alcotest.fail "no tail"

let test_windowed_tail () =
  (* Four windows of 2000; one holds a stall that lifts its tail. *)
  let window stall = Array.init 2000 (fun i -> if stall && i >= 1900 then 1_000_000 else i) in
  let stream = Array.concat [ window false; window true; window false; window false ] in
  match Pct.windowed ~max_chunks:4 ~q:99. [ stream ] with
  | Some w ->
      Alcotest.(check int) "windows" 4 w.Pct.w_windows;
      Alcotest.(check (float 0.)) "median of window tails ignores one stall" 1979. w.Pct.w_value;
      Alcotest.(check int) "count" 8000 w.Pct.w_count
  | None -> Alcotest.fail "no tail"

(* ------------------------------------------------------------------ *)
(* Open-loop lateness                                                   *)

(* A simulated clock: waiting jumps time forward, serving advances it
   by the request's service time. *)
let fake_clock () =
  let t = ref 0. in
  ({ Openloop.now = (fun () -> !t); wait_until = (fun d -> if d > !t then t := d) }, t)

let test_stall_is_charged_forward () =
  let clock, t = fake_clock () in
  let offsets = Array.init 10 (fun i -> float_of_int i *. 0.001) in
  let r = Openloop.create ~t0:0. offsets in
  let service i = if i = 2 then 0.005 else 0.0001 in
  Openloop.worker ~clock ~next:(Atomic.make 0) r ~serve:(fun i -> t := !t +. service i);
  let late = Openloop.samples r `Lateness and intended = Openloop.samples r `Intended in
  let svc = Openloop.samples r `Service in
  let near name want got =
    if abs (got - want) > 10 then Alcotest.failf "%s: %d ns, expected %d" name got want
  in
  near "request 0 on time" 0 late.(0);
  near "request 1 on time" 0 late.(1);
  near "request 2 on time" 0 late.(2);
  (* Request 2 ends at 7.0 ms; request 3 was due at 3 ms. *)
  near "the request behind the stall waits 4 ms" 4_000_000 late.(3);
  near "and the next 3.1 ms" 3_100_000 late.(4);
  near "and the next 2.2 ms" 2_200_000 late.(5);
  near "service time alone does not show it" 100_000 svc.(3);
  near "intended latency does" 4_100_000 intended.(3);
  near "the queue drains" 0 late.(9);
  Alcotest.(check int) "backlog at the stall's end" 4 (Openloop.backlog_at r 0.0069)

let test_cutoff_skips () =
  let clock, t = fake_clock () in
  let r = Openloop.create ~t0:0. (Array.init 5 (fun i -> float_of_int i *. 0.001)) in
  let skipped = ref [] in
  Openloop.worker ~cutoff:0.0025 ~skip:(fun i -> skipped := i :: !skipped) ~clock
    ~next:(Atomic.make 0) r ~serve:(fun _ -> t := !t +. 0.0001);
  Alcotest.(check (list int)) "requests due after the cutoff are skipped" [ 4; 3 ] !skipped;
  ok "skipped requests are not served" false (Openloop.served r 3)

(* ------------------------------------------------------------------ *)
(* Timing wrapper                                                       *)

type op = Get of int | Put of int * int | Remove of int | Contains of int | Size

let ops_seq =
  let r = Random.State.make [| 7 |] in
  List.init 2000 (fun _ ->
      let k = Random.State.int r 64 in
      match Random.State.int r 5 with
      | 0 -> Get k
      | 1 | 2 -> Put (k, Random.State.int r 1000)
      | 3 -> Remove k
      | _ -> if Random.State.bool r then Contains k else Size)

let drive (o : (int, int) T.Map.ops) =
  let res =
    List.concat_map
      (fun chunk ->
        Stm.atomically (fun txn ->
            List.map
              (function
                | Get k -> `Opt (o.T.Map.get txn k)
                | Put (k, v) -> `Opt (o.T.Map.put txn k v)
                | Remove k -> `Opt (o.T.Map.remove txn k)
                | Contains k -> `Bool (o.T.Map.contains txn k)
                | Size -> `Int (o.T.Map.size txn))
              chunk))
      (List.init 100 (fun i -> List.filteri (fun j _ -> j / 20 = i) ops_seq))
  in
  let final = Stm.atomically (fun txn -> List.init 64 (fun k -> o.T.Map.get txn k)) in
  (res, final)

let test_wrapper_transparent () =
  let make () = S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ()) in
  let plain_res, plain_final = drive (make ()) in
  Spans.clear ();
  let before = Pct.Buf.length (Spans.ctx ()).Spans.buf.Spans.kind in
  let timed_res, timed_final = drive (Spans.timed_map (make ())) in
  ok "same results" true (plain_res = timed_res);
  ok "same final state" true (plain_final = timed_final);
  Alcotest.(check int) "one span per call" (List.length ops_seq + 64)
    (Pct.Buf.length (Spans.ctx ()).Spans.buf.Spans.kind - before)

(* ------------------------------------------------------------------ *)
(* Sustained rate                                                       *)

let rung rate p99_us backlog_end = { Ladder.rate; p99_us; backlog_end }

let test_sustained () =
  let limit_us = 1000. in
  Alcotest.(check (float 0.)) "highest rung met" 4000.
    (Ladder.sustained ~limit_us
       [ rung 8000. 5000. 3; rung 1000. 50. 0; rung 4000. 900. 1; rung 2000. 80. 0 ]);
  Alcotest.(check (float 0.)) "a rung met above a missed one does not count" 1000.
    (Ladder.sustained ~limit_us [ rung 1000. 50. 0; rung 2000. 1500. 0; rung 4000. 100. 0 ]);
  (* 10 queued requests at 2000/s are 5 ms of work: growing. *)
  Alcotest.(check (float 0.)) "a growing backlog misses even under the limit" 1000.
    (Ladder.sustained ~limit_us [ rung 1000. 50. 0; rung 2000. 500. 10 ]);
  Alcotest.(check (float 0.)) "nothing met" 0. (Ladder.sustained ~limit_us [ rung 1000. 2000. 0 ])

(* ------------------------------------------------------------------ *)
(* Correctness checks reject corrupted final states                     *)

let test_checks () =
  let balances = Array.make 10 100 in
  ok "conservation holds" false (is_error (Checks.conservation ~expected:1000 balances));
  balances.(3) <- 99;
  ok "conservation: a lost unit" true (is_error (Checks.conservation ~expected:1000 balances));
  ok "size holds" false (is_error (Checks.size ~prefill:512 ~delta:(-7) ~final:505));
  ok "size: an uncounted insert" true (is_error (Checks.size ~prefill:512 ~delta:(-7) ~final:506));
  let live = [| Some 1; None; Some 3 |] in
  ok "replay holds" false (is_error (Checks.replay ~live ~replayed:(Array.copy live)));
  ok "replay: a lost acked write" true
    (is_error (Checks.replay ~live ~replayed:[| Some 1; None; None |]));
  ok "replay: a resurrected key" true
    (is_error (Checks.replay ~live ~replayed:[| Some 1; Some 2; Some 3 |]));
  ok "replay: a stale value" true
    (is_error (Checks.replay ~live ~replayed:[| Some 0; None; Some 3 |]));
  ok "accounting holds" false (is_error (Checks.accounting ~served:[| 1; 1; 1 |] ~ro_aborts:0));
  ok "accounting: a lost arrival" true
    (is_error (Checks.accounting ~served:[| 1; 0; 1 |] ~ro_aborts:0));
  ok "accounting: a double count" true
    (is_error (Checks.accounting ~served:[| 1; 2; 1 |] ~ro_aborts:0));
  ok "accounting: a read-only abort" true
    (is_error (Checks.accounting ~served:[| 1; 1; 1 |] ~ro_aborts:1));
  ok "no read-only aborts holds" false (is_error (Checks.no_ro_aborts 0));
  ok "no read-only aborts: one abort" true (is_error (Checks.no_ro_aborts 1));
  ok "scan holds" false (is_error (Checks.scan ~keys:100 ~width:4 ~lo:10 [ 10; 11; 12; 13 ]));
  ok "scan holds at the end of the keyspace" false
    (is_error (Checks.scan ~keys:100 ~width:4 ~lo:98 [ 98; 99 ]));
  ok "scan: a missing key" true (is_error (Checks.scan ~keys:100 ~width:4 ~lo:10 [ 10; 12; 13 ]));
  ok "scan: out of order" true
    (is_error (Checks.scan ~keys:100 ~width:4 ~lo:10 [ 10; 12; 11; 13 ]));
  ok "all: first error wins" true
    (Checks.all [ Ok (); Error "a"; Error "b" ] = Error "a")

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "tail selection" `Quick test_tail_selection;
          Alcotest.test_case "windowed tail" `Quick test_windowed_tail;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "stall charged to queued requests" `Quick
            test_stall_is_charged_forward;
          Alcotest.test_case "cutoff skips" `Quick test_cutoff_skips;
        ] );
      ("wrapper", [ Alcotest.test_case "timing wrapper is transparent" `Quick test_wrapper_transparent ]);
      ("ladder", [ Alcotest.test_case "sustained rate" `Quick test_sustained ]);
      ("checks", [ Alcotest.test_case "corrupted states are rejected" `Quick test_checks ]);
    ]
