(* Durability: frame/CRC encoding, redo-log append+flush+recover, the
   torn-tail property, compaction (including compaction racing a
   crash), the crash-point chaos matrix, and the value-vs-intent
   bytes-per-commit claim on the COW pqueue. *)

open Util
module D = Proust_durable
module W = Proust_workload
module S = Proust_structures

let fresh_map () = S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ())

let map_contents (m : (int, int) S.Trait.Map.ops) ~keys =
  Stm.atomically (fun txn ->
      List.filter_map
        (fun k -> Option.map (fun v -> (k, v)) (m.S.Trait.Map.get txn k))
        (List.init keys Fun.id))

let cbindings = Alcotest.(list (pair int int))

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let test_crc_vector () =
  (* The canonical IEEE CRC-32 check value. *)
  check cs "crc32(123456789)" "cbf43926"
    (Printf.sprintf "%08lx" (D.Crc32.string "123456789"))

let qcheck_frame_roundtrip =
  qcheck "frame roundtrip survives encode/read"
    QCheck2.Gen.(triple (string_size (0 -- 200)) (0 -- 1_000_000) bool)
    (fun (payload, lsn, intent) ->
      let fmt = if intent then D.Frame.Intent else D.Frame.Value in
      let r = { D.Frame.fmt; lsn; payload } in
      let img =
        Bytes.cat (Bytes.of_string D.Frame.file_header) (D.Frame.encode r)
      in
      match D.Frame.read img ~pos:D.Frame.file_header_len with
      | D.Frame.Record (r', next) -> r' = r && next = Bytes.length img
      | D.Frame.Torn | D.Frame.Eof -> false)

let qcheck_frame_rejects_corruption =
  qcheck "a corrupted byte anywhere makes the frame Torn"
    QCheck2.Gen.(triple (string_size (1 -- 64)) (0 -- 10_000) (0 -- 10_000))
    (fun (payload, lsn, salt) ->
      let img = D.Frame.encode { D.Frame.fmt = D.Frame.Value; lsn; payload } in
      let i = salt mod Bytes.length img in
      Bytes.set img i (Char.chr (Char.code (Bytes.get img i) lxor 0x40));
      (* Magic flips fail the magic check; anything else fails the CRC
         (or the length bound).  Nothing corrupted may decode. *)
      match D.Frame.read img ~pos:0 with
      | D.Frame.Torn -> true
      | D.Frame.Record _ | D.Frame.Eof -> false)

(* ------------------------------------------------------------------ *)
(* The torn-tail property                                              *)

(* Build a log of [n] records, cut the file at an arbitrary byte, and
   recover: exactly the frames wholly inside the cut survive (a prefix,
   since they are written in LSN order), and the truncating first
   recovery leaves a clean log for the second. *)
let qcheck_torn_tail =
  qcheck ~count:60 "recovery keeps exactly the whole frames before a cut"
    QCheck2.Gen.(pair (1 -- 8) (0 -- 100_000))
    (fun (n, cut_salt) ->
      D.Temp.with_file (fun path ->
          let records =
            List.init n (fun i ->
                {
                  D.Frame.fmt =
                    (if i mod 2 = 0 then D.Frame.Value else D.Frame.Intent);
                  lsn = i + 1;
                  payload = String.make (5 + (7 * i mod 40)) (Char.chr (65 + i));
                })
          in
          let img =
            Bytes.concat Bytes.empty
              (Bytes.of_string D.Frame.file_header
              :: List.map D.Frame.encode records)
          in
          (* Cut at or after the header end; a sub-header cut is the
             corrupt/empty-header case, tested separately. *)
          let lo = D.Frame.file_header_len in
          let cut = lo + (cut_salt mod (Bytes.length img - lo + 1)) in
          let oc = open_out_bin path in
          output_bytes oc (Bytes.sub img 0 cut);
          close_out oc;
          let rep = D.Recovery.run path in
          let survived = rep.D.Recovery.records in
          let expect_n =
            (* how many whole frames fit in [cut] bytes *)
            let rec go pos k = function
              | [] -> k
              | r :: rest ->
                  let len = Bytes.length (D.Frame.encode r) in
                  if pos + len <= cut then go (pos + len) (k + 1) rest else k
            in
            go lo 0 records
          in
          survived = List.filteri (fun i _ -> i < expect_n) records
          &&
          (* idempotence: the torn tail was physically truncated, so a
             second recovery is clean and identical *)
          let rep2 = D.Recovery.run path in
          rep2.D.Recovery.records = survived
          && not rep2.D.Recovery.truncated_tail))

(* ------------------------------------------------------------------ *)
(* Redo log basics                                                     *)

let test_append_flush_recover () =
  D.Temp.with_file (fun path ->
      let log = D.Redo_log.create ~path () in
      let tickets =
        List.init 5 (fun i ->
            D.Redo_log.append log ~fmt:D.Frame.Value ~lsn:(i + 1)
              (Printf.sprintf "payload-%d" i))
      in
      List.iter (fun t -> check cb "append accepted" true (t <> None)) tickets;
      List.iter
        (fun t ->
          check cb "wait_durable" true
            (D.Redo_log.wait_durable log (Option.get t)))
        tickets;
      check ci "appends counted" 5 (D.Redo_log.appends log);
      D.Redo_log.close log;
      let rep = D.Recovery.run path in
      check ci "all records recovered" 5 (List.length rep.D.Recovery.records);
      check ci "last lsn" 5 rep.D.Recovery.last_lsn;
      check cb "no torn tail" false rep.D.Recovery.truncated_tail;
      check clist_i "lsn order" [ 1; 2; 3; 4; 5 ]
        (D.Recovery.replayed_lsns rep))

let test_empty_and_corrupt_logs () =
  (* Missing file: empty report. *)
  let missing = D.Temp.file () in
  Sys.remove missing;
  let rep = D.Recovery.run missing in
  check ci "missing file: no records" 0 (List.length rep.D.Recovery.records);
  (* Empty file: empty report, not an error. *)
  D.Temp.with_file (fun path ->
      let rep = D.Recovery.run path in
      check ci "empty file: no records" 0 (List.length rep.D.Recovery.records);
      check cb "empty file: no truncation" false rep.D.Recovery.truncated_tail);
  (* A non-empty file that is not a redo log is refused, untouched. *)
  D.Temp.with_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "definitely not a redo log";
      close_out oc;
      (match D.Recovery.run path with
      | exception D.Recovery.Corrupt_header _ -> ()
      | _ -> Alcotest.fail "corrupt header accepted");
      check cs "file untouched" "definitely not a redo log"
        (In_channel.with_open_bin path In_channel.input_all))

(* ------------------------------------------------------------------ *)
(* Durable map end-to-end                                              *)

let test_map_commit_recover fmt () =
  D.Temp.with_file (fun path ->
      let keys = 16 in
      let log = D.Redo_log.create ~path () in
      let acked = ref 0 in
      let m =
        D.Durable_map.ops
          (D.Durable_map.wrap
             ~on_commit:(fun ~lsn:_ ~acked:a -> if a then incr acked)
             ~fmt ~log (fresh_map ()))
      in
      for i = 1 to 40 do
        Stm.atomically (fun txn ->
            ignore (m.S.Trait.Map.put txn (i mod keys) i);
            if i mod 5 = 0 then
              ignore (m.S.Trait.Map.remove txn ((i + 3) mod keys)))
      done;
      let before = map_contents m ~keys in
      D.Redo_log.close log;
      check ci "every commit acked" 40 !acked;
      let rep = D.Recovery.run path in
      check ci "one record per committing txn" 40
        (List.length rep.D.Recovery.records);
      let fresh = fresh_map () in
      D.Durable_map.replay rep fresh;
      check cbindings "recovered contents" before (map_contents fresh ~keys))

(* ------------------------------------------------------------------ *)
(* Parked waits and the committer-aware linger                         *)

let append1 log =
  match D.Redo_log.append log ~fmt:D.Frame.Value ~lsn:1 "x" with
  | Some tk -> tk
  | None -> Alcotest.fail "append refused"

let since t0 = Clock.now_mono () -. t0

(* [n] domains each append once, meet, then wait for their ticket:
   every record is buffered before anyone parks, so the batch the
   first park releases holds them all.  Returns the seconds from the
   first append to the last ack, and the acks. *)
let commit_once log n =
  let t0 = Clock.now_mono () in
  let met = Atomic.make 0 in
  let meet () =
    Atomic.incr met;
    while Atomic.get met < n do
      Domain.cpu_relax ()
    done
  in
  let acks =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            let tk = append1 log in
            meet ();
            D.Redo_log.wait_durable log tk))
    |> List.map Domain.join
  in
  (since t0, acks)

(* A domain that waits once on [log] and then idles, alive, until
   [release] is called. *)
let idle_committer log =
  let go = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        ignore (D.Redo_log.wait_durable log (append1 log));
        while not (Atomic.get go) do
          Unix.sleepf 0.001
        done)
  in
  (* Registered once its wait has returned. *)
  while D.Redo_log.flushed log < 1 do
    Unix.sleepf 0.001
  done;
  fun () ->
    Atomic.set go true;
    Domain.join d

let test_linger_ends_when_all_parked () =
  D.Temp.with_file (fun path ->
      let log = D.Redo_log.create ~batch_delay:10. ~path () in
      let before = Stats.read () in
      let dt, acks = commit_once log 2 in
      D.Redo_log.close log;
      let d = Stats.diff before (Stats.read ()) in
      check (Alcotest.list cb) "both acked" [ true; true ] acks;
      check cb
        (Printf.sprintf "acked in %.3f s, well inside the 10 s linger" dt)
        true (dt < 1.);
      check ci "one fsync batch" 1 d.Stats.fsync_batches)

let test_idle_committer_keeps_linger () =
  D.Temp.with_file (fun path ->
      let delay = 0.2 in
      let log = D.Redo_log.create ~batch_delay:delay ~path () in
      let release = idle_committer log in
      let dt, acks = commit_once log 2 in
      check (Alcotest.list cb) "acked behind the idle committer" [ true; true ]
        acks;
      check cb
        (Printf.sprintf "full linger kept (%.3f s)" dt)
        true (dt >= delay);
      release ();
      let dt, acks = commit_once log 2 in
      check (Alcotest.list cb) "acked after it exited" [ true; true ] acks;
      check cb (Printf.sprintf "early again once it exited (%.3f s)" dt) true
        (dt < delay /. 2.);
      D.Redo_log.close log)

(* The timer fires a deadline at most one slice late, but on a loaded
   host the expired domain can wait longer than that for a core; a
   wait held by the 5 s linger instead would miss every attempt. *)
let test_deadline_wait_leaves_no_entry () =
  D.Temp.with_file (fun path ->
      let log = D.Redo_log.create ~batch_delay:5. ~path () in
      let release = idle_committer log in
      let attempt () =
        let ok, late =
          Domain.join
            (Domain.spawn (fun () ->
                 let tk = append1 log in
                 let deadline = Clock.now_mono () +. 0.05 in
                 let ok = D.Redo_log.wait_durable ~deadline log tk in
                 (ok, Clock.now_mono () -. deadline)))
        in
        check cb "deadline wait fails" false ok;
        check cb "not before its deadline" true (late >= 0.);
        check ci "no parked entry left" 0 (D.Redo_log.parked log);
        late
      in
      let rec within_a_slice tries =
        let late = attempt () in
        if late >= Parking.timer_slice then
          if tries > 1 then within_a_slice (tries - 1)
          else
            Alcotest.failf
              "no attempt returned within one timer slice (last %.2f ms late)"
              (late *. 1e3)
      in
      within_a_slice 3;
      release ();
      D.Redo_log.close log)

let test_halt_wakes_parked () =
  D.Temp.with_file (fun path ->
      let log = D.Redo_log.create ~batch_delay:5. ~path () in
      let release = idle_committer log in
      let t0 = Clock.now_mono () in
      let waiter =
        Domain.spawn (fun () -> D.Redo_log.wait_durable log (append1 log))
      in
      while D.Redo_log.parked log = 0 do
        Unix.sleepf 0.001
      done;
      D.Redo_log.halt log;
      check cb "a halted wait returns false" false (Domain.join waiter);
      check cb "woken by the halt, not the linger" true (since t0 < 1.);
      check ci "no parked entry left" 0 (D.Redo_log.parked log);
      release ();
      D.Redo_log.close log)

let test_flush_ends_linger () =
  D.Temp.with_file (fun path ->
      let log = D.Redo_log.create ~batch_delay:5. ~path () in
      let tk = append1 log in
      let t0 = Clock.now_mono () in
      D.Redo_log.flush log;
      let dt = since t0 in
      check cb (Printf.sprintf "flush returned in %.3f s" dt) true (dt < 1.);
      check cb "flushed" true (D.Redo_log.flushed log >= tk);
      check clist_i "record on disk" [ 1 ]
        (D.Recovery.replayed_lsns (D.Recovery.run path));
      D.Redo_log.close log)

(* Publish-then-wake, with the window between the two held open by a
   [Delay] at [Durable_pre_wake]: every wait still returns, and a
   [true] always means the watermark covers the ticket.  A flusher
   that woke before publishing would hand its waiters a watermark
   below their ticket here. *)
let test_wake_after_publish () =
  D.Temp.with_file (fun path ->
      let log = D.Redo_log.create ~path () in
      Fault.configure
        [
          ( Fault.Durable_pre_wake,
            { Fault.prob = 1.; actions = [ Fault.Delay 200_000 ] } );
        ];
      Fun.protect ~finally:Fault.disable (fun () ->
          spawn_all 2 (fun _ ->
              for _ = 1 to 20 do
                let tk = append1 log in
                let deadline = Clock.now_mono () +. 5. in
                let ok = D.Redo_log.wait_durable ~deadline log tk in
                let upto = D.Redo_log.flushed log in
                if not (ok && upto >= tk) then
                  Alcotest.failf "ticket %d: wait %b with flushed = %d" tk ok
                    upto
              done));
      check ci "no parked entry left" 0 (D.Redo_log.parked log);
      D.Redo_log.close log)

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)

let test_compaction () =
  D.Temp.with_file (fun path ->
      let keys = 8 in
      let log = D.Redo_log.create ~path () in
      let last_lsn = ref 0 in
      let m =
        D.Durable_map.ops
          (D.Durable_map.wrap
             ~on_commit:(fun ~lsn ~acked:_ -> last_lsn := max !last_lsn lsn)
             ~fmt:D.Frame.Intent ~log (fresh_map ()))
      in
      for i = 1 to 20 do
        Stm.atomically (fun txn -> ignore (m.S.Trait.Map.put txn (i mod keys) i))
      done;
      let bindings = map_contents m ~keys in
      D.Redo_log.compact log
        ~snapshot:(D.Durable_map.snapshot_payload bindings)
        ~upto_lsn:!last_lsn;
      (* Post-compaction commits append to the rewritten log. *)
      for i = 21 to 25 do
        Stm.atomically (fun txn -> ignore (m.S.Trait.Map.put txn (i mod keys) i))
      done;
      let final = map_contents m ~keys in
      D.Redo_log.close log;
      let rep = D.Recovery.run path in
      check cb "snapshot present" true (rep.D.Recovery.snapshot <> None);
      check ci "only post-snapshot records remain" 5
        (List.length rep.D.Recovery.records);
      let fresh = fresh_map () in
      D.Durable_map.replay rep fresh;
      check cbindings "snapshot + tail replay contents" final
        (map_contents fresh ~keys);
      (* Double recovery after compaction is still a no-op. *)
      let rep2 = D.Recovery.run path in
      check clist_i "stable record set" (D.Recovery.replayed_lsns rep)
        (D.Recovery.replayed_lsns rep2))

(* Compaction racing a crash: under a seeded coin, [compact] halts at
   its first or second chaos check (or completes).  Whichever happened
   — no snapshot + full log, new snapshot + untruncated log, or the
   compacted pair — recovery must reproduce the pre-compaction
   contents. *)
let test_compaction_crash () =
  with_seed_note @@ fun () ->
  for salt = 0 to 7 do
    D.Temp.with_file (fun path ->
        let keys = 8 in
        let log = D.Redo_log.create ~path () in
        let last_lsn = ref 0 in
        let m =
          D.Durable_map.ops
            (D.Durable_map.wrap
               ~on_commit:(fun ~lsn ~acked:_ -> last_lsn := max !last_lsn lsn)
               ~fmt:D.Frame.Value ~log (fresh_map ()))
        in
        for i = 1 to 15 do
          Stm.atomically (fun txn ->
              ignore (m.S.Trait.Map.put txn (i mod keys) i))
        done;
        let expect = map_contents m ~keys in
        Fault.configure ~seed:(sub_seed (0xC0 + salt))
          [
            ( Fault.Durable_mid_compaction,
              { Fault.prob = 0.5; actions = [ Fault.Crash ] } );
          ];
        Fun.protect ~finally:Fault.disable (fun () ->
            D.Redo_log.compact log
              ~snapshot:(D.Durable_map.snapshot_payload expect)
              ~upto_lsn:!last_lsn);
        D.Redo_log.close log;
        let rep = D.Recovery.run path in
        let fresh = fresh_map () in
        D.Durable_map.replay rep fresh;
        check cbindings
          (Printf.sprintf "contents survive compaction crash (salt %d)" salt)
          expect
          (map_contents fresh ~keys))
  done

(* ------------------------------------------------------------------ *)
(* The crash-point matrix                                              *)

let crash_cell point cfg =
  D.Temp.with_file (fun path ->
      let cfg =
        {
          cfg with
          W.Recovery_runner.crash_point = Some point;
          crash_prob = 0.1;
        }
      in
      let res = W.Recovery_runner.run ~path ~base:fresh_map cfg in
      check cb
        (Printf.sprintf "%s crash fired" (Fault.point_name point))
        true res.W.Recovery_runner.crashed;
      match
        W.Recovery_runner.verify res ~base:fresh_map
          ~keys:cfg.W.Recovery_runner.keys
      with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)

let test_crash_matrix point fmt () =
  with_seed_note @@ fun () ->
  crash_cell point
    {
      W.Recovery_runner.default_config with
      W.Recovery_runner.seed =
        sub_seed (Hashtbl.hash (Fault.point_name point, fmt));
      fmt;
    }

(* The same crash points behind a 2 ms linger, so a halt lands while
   committers are parked on the wait list.  The run returning at all
   means the halt woke every one of them; the recovery check means no
   wake that answered [true] was for a lost record. *)
let test_linger_crash_matrix point () =
  with_seed_note @@ fun () ->
  crash_cell point
    {
      W.Recovery_runner.default_config with
      W.Recovery_runner.seed =
        sub_seed (Hashtbl.hash ("linger", Fault.point_name point));
      fmt = D.Frame.Intent;
      batch_delay = 0.002;
    }

let test_clean_run_verifies fmt () =
  with_seed_note @@ fun () ->
  D.Temp.with_file (fun path ->
      let cfg =
        {
          W.Recovery_runner.default_config with
          W.Recovery_runner.seed = sub_seed 0xD0;
          fmt;
          txns_per_domain = 60;
        }
      in
      let res = W.Recovery_runner.run ~path ~base:fresh_map cfg in
      check cb "no crash" false res.W.Recovery_runner.crashed;
      match
        W.Recovery_runner.verify res ~base:fresh_map
          ~keys:cfg.W.Recovery_runner.keys
      with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)

(* Group commit under the crash matrix.  The runner's workers use
   [Stm.atomically] with the process default config, so forcing the
   default to [Serial_commit] (combining is on by default) routes every
   durable commit through the flat-combining publisher: batches drain
   under one gate acquisition, per-entry durable hooks and all. *)
let with_serial_default f =
  let saved = Stm.get_default_config () in
  Stm.set_default_config { saved with Stm.mode = Stm.Serial_commit };
  (* Linger so batches actually form on a machine with fewer cores
     than worker domains (see Stm.set_combine_linger). *)
  Stm.set_combine_linger 1e-3;
  Fun.protect
    ~finally:(fun () ->
      Stm.set_combine_linger 0.;
      Stm.set_default_config saved)
    f

(* (a) Halt the redo log mid-fsync while batches are draining: the
   combiner is mid-batch when the log dies, and recovery must still
   satisfy acked ⊆ replayed ⊆ committed — an entry acked from inside a
   batch is durable exactly like an inline one. *)
let test_combining_crash_matrix fmt () =
  with_seed_note @@ fun () ->
  with_serial_default @@ fun () ->
  check cb "combining on by default" true (Stm.combining ());
  D.Temp.with_file (fun path ->
      let cfg =
        {
          W.Recovery_runner.default_config with
          W.Recovery_runner.seed = sub_seed (Hashtbl.hash ("combining", fmt));
          fmt;
          crash_point = Some Fault.Durable_mid_fsync;
          crash_prob = 0.1;
        }
      in
      let res = W.Recovery_runner.run ~path ~base:fresh_map cfg in
      check cb "mid-fsync crash fired under group commit" true
        res.W.Recovery_runner.crashed;
      (match
         W.Recovery_runner.verify res ~base:fresh_map
           ~keys:cfg.W.Recovery_runner.keys
       with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      check Alcotest.int "no stranded publication entry" 0
        (Stm.pending_publications ()))

(* (b) Kill/crash the combiner itself, at the hand-off point.  A
   hand-off draw abandons the drain (a waiter self-elects and finishes
   the batch) but cannot halt the log — so the run completes cleanly,
   and the recovery criterion degenerates to the strongest form: every
   acked commit replays, nothing lost to an abandoned drain. *)
let test_combining_handoff_recovery fmt () =
  with_seed_note @@ fun () ->
  with_serial_default @@ fun () ->
  (* Batch formation depends on scheduling, so repeat (with distinct
     seeds) until a hand-off draw actually fired — every run must
     verify either way. *)
  let before = Stats.read () in
  let injected () =
    (Stats.diff before (Stats.read ())).Stats.injected_faults
  in
  let attempt = ref 0 in
  while !attempt < 5 && (!attempt = 0 || injected () = 0) do
    incr attempt;
    D.Temp.with_file (fun path ->
        let cfg =
          {
            W.Recovery_runner.default_config with
            W.Recovery_runner.seed =
              sub_seed (Hashtbl.hash ("handoff", fmt, !attempt));
            fmt;
            crash_point = Some Fault.Combine_handoff;
            crash_prob = 0.6;
          }
        in
        let res = W.Recovery_runner.run ~path ~base:fresh_map cfg in
        check cb "hand-off draws do not halt the log" false
          res.W.Recovery_runner.crashed;
        (match
           W.Recovery_runner.verify res ~base:fresh_map
             ~keys:cfg.W.Recovery_runner.keys
         with
        | Ok () -> ()
        | Error msg -> Alcotest.fail msg);
        check Alcotest.int "no stranded publication entry" 0
          (Stm.pending_publications ()))
  done;
  check cb "a combiner was killed mid-drain" true (injected () > 0)

(* ------------------------------------------------------------------ *)
(* Value vs intent on the COW pqueue                                   *)

let test_pqueue_value_vs_intent () =
  let drive fmt =
    D.Temp.with_file (fun path ->
        let log = D.Redo_log.create ~path () in
        let pq = D.Durable_pqueue.create ~fmt ~log ~cmp:compare () in
        let ops = D.Durable_pqueue.ops pq in
        for i = 1 to 120 do
          Stm.atomically (fun txn ->
              if i mod 4 = 0 then ignore (ops.S.Trait.Pqueue.remove_min txn)
              else ops.S.Trait.Pqueue.insert txn (i * 37 mod 101))
        done;
        let contents = D.Durable_pqueue.to_list pq in
        let bytes = D.Redo_log.bytes_appended log in
        check ci "one record per commit" 120 (D.Redo_log.appends log);
        D.Redo_log.close log;
        let rep = D.Recovery.run path in
        (* Replay into a fresh pqueue (its own scratch log: replay
           never appends, but create needs one). *)
        let recovered =
          D.Temp.with_file (fun scratch ->
              let log2 = D.Redo_log.create ~path:scratch () in
              let pq2 =
                D.Durable_pqueue.create ~fmt ~log:log2 ~cmp:compare ()
              in
              D.Durable_pqueue.replay rep pq2;
              let l = D.Durable_pqueue.to_list pq2 in
              D.Redo_log.close log2;
              l)
        in
        check clist_i
          (Printf.sprintf "%s-format recovery" (D.Frame.format_name fmt))
          contents recovered;
        bytes)
  in
  let value_bytes = drive D.Frame.Value in
  let intent_bytes = drive D.Frame.Intent in
  (* The paper-motivated gap: the COW value log re-marshals the whole
     multiset per commit; the intent log names one operation. *)
  check cb
    (Printf.sprintf "intent log (%d B) at most half the value log (%d B)"
       intent_bytes value_bytes)
    true
    (intent_bytes * 2 < value_bytes)

(* ------------------------------------------------------------------ *)
(* Stats plumbing                                                      *)

let test_stats_counters () =
  let before = Stats.read () in
  D.Temp.with_file (fun path ->
      let log = D.Redo_log.create ~path () in
      (match D.Redo_log.append log ~fmt:D.Frame.Value ~lsn:1 "x" with
      | Some tk -> ignore (D.Redo_log.wait_durable log tk)
      | None -> Alcotest.fail "append refused");
      D.Redo_log.close log;
      (* Tear the tail by hand so the truncation counter moves too. *)
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
      ignore (Unix.write fd (Bytes.of_string "PRRC\000garbage") 0 12);
      Unix.close fd;
      ignore (D.Recovery.run path));
  let d = Stats.diff before (Stats.read ()) in
  check cb "log_appends grew" true (d.Stats.log_appends >= 1);
  check cb "fsync_batches grew" true (d.Stats.fsync_batches >= 1);
  check cb "recoveries grew" true (d.Stats.recoveries >= 1);
  check cb "torn_tail_truncations grew" true
    (d.Stats.torn_tail_truncations >= 1);
  let keys = List.map fst (Stats.to_assoc d) in
  List.iter
    (fun k -> check cb (k ^ " exported") true (List.mem k keys))
    [
      "log_appends";
      "fsync_batches";
      "fsync_batch_size_p50";
      "fsync_batch_size_p99";
      "recoveries";
      "torn_tail_truncations";
    ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    test "crc32 known vector" test_crc_vector;
    qcheck_frame_roundtrip;
    qcheck_frame_rejects_corruption;
    qcheck_torn_tail;
    test "append / flush / recover" test_append_flush_recover;
    test "empty and corrupt logs" test_empty_and_corrupt_logs;
    test "durable map recovers (value)" (test_map_commit_recover D.Frame.Value);
    test "durable map recovers (intent)"
      (test_map_commit_recover D.Frame.Intent);
    test "flush ends the linger at once" test_flush_ends_linger;
    test "linger ends once every committer is parked"
      test_linger_ends_when_all_parked;
    test "an idle committer keeps the full linger"
      test_idle_committer_keeps_linger;
    test "deadline wait behind a linger leaves no entry"
      test_deadline_wait_leaves_no_entry;
    test "halt wakes parked waits with false" test_halt_wakes_parked;
    test "waiters wake only after the watermark is published"
      test_wake_after_publish;
    test "compaction drops the folded prefix" test_compaction;
    slow "compaction racing a crash" test_compaction_crash;
    slow "crash matrix: pre-append x value"
      (test_crash_matrix Fault.Durable_pre_append D.Frame.Value);
    slow "crash matrix: pre-append x intent"
      (test_crash_matrix Fault.Durable_pre_append D.Frame.Intent);
    slow "crash matrix: post-append x value"
      (test_crash_matrix Fault.Durable_post_append D.Frame.Value);
    slow "crash matrix: post-append x intent"
      (test_crash_matrix Fault.Durable_post_append D.Frame.Intent);
    slow "crash matrix: mid-fsync x value"
      (test_crash_matrix Fault.Durable_mid_fsync D.Frame.Value);
    slow "crash matrix: mid-fsync x intent"
      (test_crash_matrix Fault.Durable_mid_fsync D.Frame.Intent);
    slow "crash matrix: pre-append, 2 ms linger"
      (test_linger_crash_matrix Fault.Durable_pre_append);
    slow "crash matrix: post-append, 2 ms linger"
      (test_linger_crash_matrix Fault.Durable_post_append);
    slow "crash matrix: mid-fsync, 2 ms linger"
      (test_linger_crash_matrix Fault.Durable_mid_fsync);
    slow "crash matrix: pre-wake, 2 ms linger"
      (test_linger_crash_matrix Fault.Durable_pre_wake);
    slow "crash matrix: mid-fsync x value, group commit"
      (test_combining_crash_matrix D.Frame.Value);
    slow "crash matrix: mid-fsync x intent, group commit"
      (test_combining_crash_matrix D.Frame.Intent);
    slow "crash matrix: combiner hand-off x value, group commit"
      (test_combining_handoff_recovery D.Frame.Value);
    slow "crash matrix: combiner hand-off x intent, group commit"
      (test_combining_handoff_recovery D.Frame.Intent);
    slow "clean run verifies (value)" (test_clean_run_verifies D.Frame.Value);
    slow "clean run verifies (intent)" (test_clean_run_verifies D.Frame.Intent);
    test "pqueue: intent log smaller than value log"
      test_pqueue_value_vs_intent;
    test "stats counters exported" test_stats_counters;
  ]
