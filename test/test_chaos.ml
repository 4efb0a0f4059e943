(** Chaos soak: seeded fault schedules against the STM modes × the
    compatible Proust design points.

    Three guarantees are exercised: (a) the post-attempt leak auditor
    passes under every injected-fault schedule — no tvar version-lock,
    abstract lock, commit-gate or quiesce token survives a finished
    attempt; (b) the committed state equals a sequential model of the
    per-domain operation streams (increments commute, so the final map
    contents are schedule-independent); (c) the escalation ladder makes
    [Too_many_attempts] unreachable: a hostile single-key 100% RMW
    workload completes in all five modes, with a nonzero fallback count
    under forced contention.  The per-domain descriptor pool is audited
    throughout: every worker checks {!Stm.descriptor_pool_check} after
    its faulty schedule and that {!Stm.pool_reuses} shows the pooled
    record was actually recycled. *)

open Util
module S = Proust_structures

let all_modes = Stm.Mode.all

let eager_modes = [ Stm.Eager_lazy; Stm.Eager_eager ]

let chaos_cfg mode =
  {
    (Stm.get_default_config ()) with
    Stm.mode;
    cm = Contention.karma ();
    abort_budget = 8;
    fallback_after = 24;
    (* keep hostile schedules hot: degrade to (short) sleeps sooner *)
    backoff_sleep_after = 3;
    backoff_sleep = 5e-7;
  }

(* The design points whose (point, mode) pairings Figure 1 declares
   opaque, instantiated over the hash-map wrappers. *)
let points :
    (string * Stm.mode list * (unit -> (int, int) S.Trait.Map.ops)) list =
  [
    ( "eager/pess",
      all_modes,
      fun () ->
        S.P_hashmap.ops
          (S.P_hashmap.make ~slots:64 ~lap:S.Trait.Pessimistic ()) );
    ( "eager/opt",
      eager_modes,
      fun () -> S.P_hashmap.ops (S.P_hashmap.make ~slots:64 ()) );
    ( "lazy/opt",
      all_modes,
      fun () -> S.P_lazy_hashmap.ops (S.P_lazy_hashmap.make ~slots:64 ()) );
  ]

(* Chaos schedules derive from the master PROUST_SEED (fixed by
   default, overridable for exploration); failures print it. *)
let full_schedule ~seed ~prob =
  Fault.configure ~seed
    (List.map
       (fun p -> (p, { Fault.prob; actions = [ Fault.Delay 150; Abort; Kill ] }))
       Fault.all_points)

(* Commutative workload: every domain walks a seeded stream of keys and
   increments each.  The final map contents are therefore a pure
   function of the streams — the sequential model — regardless of the
   interleaving or of any injected fault.  [cell] ("<point> under
   <mode>") names the failing cell in each check message. *)
let soak_cell ~cell ~cfg ~make ~domains ~iters ~keys () =
  let ops = make () in
  let streams =
    Array.init domains (fun d ->
        let rng = Random.State.make [| 0xc4a05; d |] in
        Array.init iters (fun _ -> Random.State.int rng keys))
  in
  let expected = Array.make keys 0 in
  Array.iter (Array.iter (fun k -> expected.(k) <- expected.(k) + 1)) streams;
  spawn_all domains (fun d ->
      Array.iter
        (fun k ->
          Stm.atomically ~config:cfg (fun txn ->
              let v = Option.value ~default:0 (ops.S.Trait.Map.get txn k) in
              ignore (ops.S.Trait.Map.put txn k (v + 1))))
        streams.(d);
      (* The domain's pooled descriptor record must come back scrubbed
         after every faulty schedule: no log entry, lock or hook may
         bleed into the idle pool slot. *)
      Stm.descriptor_pool_check ();
      assert (Stm.pool_reuses () >= iters));
  let final =
    Stm.atomically ~config:cfg (fun txn ->
        Array.init keys (fun k ->
            Option.value ~default:0 (ops.S.Trait.Map.get txn k)))
  in
  Stm.descriptor_pool_check ();
  Array.iteri
    (fun k want ->
      check ci
        (Printf.sprintf "%s: key %d matches sequential model" cell k)
        want
        final.(k))
    expected

let test_chaos_soak () =
  with_seed_note @@ fun () ->
  let before = Stats.read () in
  Stm.set_leak_audit true;
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Stm.set_leak_audit false)
    (fun () ->
      List.iteri
        (fun i (name, modes, make) ->
          List.iteri
            (fun j mode ->
              full_schedule ~seed:(sub_seed (0xbad + (16 * i) + j)) ~prob:0.2;
              soak_cell
                ~cell:(Printf.sprintf "%s under %s" name (Stm.mode_name mode))
                ~cfg:(chaos_cfg mode) ~make ~domains:4 ~iters:300 ~keys:16 ())
            modes)
        points);
  let injected = (Stats.diff before (Stats.read ())).Stats.injected_faults in
  check cb
    (Printf.sprintf "soak injected enough faults (got %d, want >= 10000)"
       injected)
    true
    (injected >= 10_000)

(* A transaction that loses every race must still commit: spurious
   conflict aborts at every pre-commit make plain retrying hopeless, so
   only the serial-irrevocable rung of the ladder can finish the job. *)
let test_fallback_beats_adversary mode () =
  let cfg =
    {
      (chaos_cfg mode) with
      Stm.max_attempts = 100;
      abort_budget = 2;
      fallback_after = 8;
    }
  in
  let r = Tvar.make 0 in
  Fault.configure ~seed:(sub_seed 7)
    [ (Fault.Pre_commit, { Fault.prob = 1.0; actions = [ Fault.Abort ] }) ];
  Fun.protect ~finally:Fault.disable (fun () ->
      let before = Stats.read () in
      Stm.atomically ~config:cfg (fun t -> Stm.write t r (Stm.read t r + 1));
      let d = Stats.diff before (Stats.read ()) in
      check ci "committed despite a certain-abort schedule" 1 (Tvar.peek r);
      check cb "escalated to the serial fallback" true (d.Stats.fallbacks >= 1))

let test_ladder_off_starves mode () =
  let cfg =
    {
      (chaos_cfg mode) with
      Stm.serial_fallback = false;
      max_attempts = 20;
    }
  in
  let r = Tvar.make 0 in
  Fault.configure ~seed:(sub_seed 7)
    [ (Fault.Pre_commit, { Fault.prob = 1.0; actions = [ Fault.Abort ] }) ];
  Fun.protect ~finally:Fault.disable (fun () ->
      match Stm.atomically ~config:cfg (fun t -> Stm.write t r (Stm.read t r + 1))
      with
      | () -> Alcotest.fail "expected Too_many_attempts with the ladder off"
      | exception Stm.Too_many_attempts _ -> ())

(* The acceptance workload: 4 domains hammering one key with 100%
   read-modify-write transactions, in every STM mode.  Must conserve
   the count (zero [Too_many_attempts] — any starvation raises) and,
   under forced contention, exercise the fallback. *)
let test_hostile_single_key mode () =
  with_seed_note @@ fun () ->
  let cfg =
    {
      (chaos_cfg mode) with
      Stm.max_attempts = 2_000;
      abort_budget = 4;
      fallback_after = 12;
    }
  in
  let r = Tvar.make 0 in
  let domains = 4 and iters = 400 in
  (* Forced contention: a coin-flip spurious abort at each commit entry
     plus delays inside the race windows. *)
  Fault.configure ~seed:(sub_seed (11 + Hashtbl.hash (Stm.mode_name mode)))
    [
      (Fault.Pre_commit, { Fault.prob = 0.8; actions = [ Fault.Abort ] });
      (Fault.Post_lock_acquire, { Fault.prob = 0.1; actions = [ Fault.Delay 200 ] });
      (Fault.Mid_write_back, { Fault.prob = 0.1; actions = [ Fault.Delay 200 ] });
    ];
  Stm.set_leak_audit true;
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Stm.set_leak_audit false)
    (fun () ->
      let before = Stats.read () in
      spawn_all domains (fun _ ->
          for _ = 1 to iters do
            Stm.atomically ~config:cfg (fun t -> Stm.write t r (Stm.read t r + 1))
          done;
          (* A fresh domain's pool starts cold, so the forced-contention
             loop must both reuse the record heavily and hand it back
             clean each time. *)
          Stm.descriptor_pool_check ();
          assert (Stm.pool_reuses () >= iters));
      let d = Stats.diff before (Stats.read ()) in
      check ci "every increment committed exactly once" (domains * iters)
        (Tvar.peek r);
      check cb "fallbacks engaged under forced contention" true
        (d.Stats.fallbacks > 0))

(* Descriptor-pool hygiene under chaos: transactions that abort, retry,
   register hooks, take or_else branches and write locals must still
   retire a fully scrubbed record to the per-domain pool, and the pool
   must actually be reused (not silently replaced by fresh records). *)
let test_pool_reset_after_chaos () =
  with_seed_note @@ fun () ->
  let cfg = chaos_cfg Stm.Eager_lazy in
  let r = Tvar.make 0 and s = Tvar.make 0 in
  let key = Stm.Local.key (fun _ -> 0) in
  full_schedule ~seed:(sub_seed 0xdead) ~prob:0.3;
  Stm.set_leak_audit true;
  let reuses0 = Stm.pool_reuses () in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Stm.set_leak_audit false)
    (fun () ->
      for i = 1 to 200 do
        Stm.atomically ~config:cfg (fun t ->
            Stm.Local.set t key i;
            Stm.after_commit t (fun () -> ());
            Stm.on_abort t (fun () -> ());
            Stm.or_else t
              (fun t ->
                Stm.write t r (Stm.read t r + 1);
                if i mod 2 = 0 then Stm.retry t)
              (fun t -> Stm.write t s (Stm.read t s + 1)));
        (* Between atomic blocks the pooled record must be idle and
           empty; a bleed-through trips Lock_leak right here. *)
        Stm.descriptor_pool_check ()
      done);
  check cb "pool was reused across attempts" true
    (Stm.pool_reuses () - reuses0 >= 200)

(* Exception storm: user bodies, commit hooks and abort hooks all raise
   — on top of a live injected-fault schedule — and the exception
   firewall must hold: every escape leaves tvar version-locks and
   abstract locks released (leak auditor), the pooled record scrubbed
   (descriptor_pool_check), and the committed state exactly matching
   which episodes linearized.  Post-commit hook failures (after_commit,
   on_commit_locked) propagate *after* publication, so their episodes
   count as committed; body and abort-hook failures must leave no
   trace. *)
exception Storm of int

let test_exception_storm () =
  with_seed_note @@ fun () ->
  Stm.set_leak_audit true;
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Stm.set_leak_audit false)
    (fun () ->
      List.iteri
        (fun mi mode ->
          full_schedule ~seed:(sub_seed (0x570a + mi)) ~prob:0.1;
          let cfg = chaos_cfg mode in
          let ops =
            S.P_hashmap.ops
              (S.P_hashmap.make ~slots:64 ~lap:S.Trait.Pessimistic ())
          in
          let domains = 2 and iters = 120 in
          let committed = Array.make domains 0 in
          let counters = Array.init domains (fun _ -> Tvar.make 0) in
          spawn_all domains (fun d ->
              for i = 1 to iters do
                let flavour = i mod 4 in
                (match
                   Stm.atomically ~config:cfg (fun txn ->
                       (* Hold an abstract lock while the storm hits, so
                          a firewall hole would orphan it. *)
                       ignore (ops.S.Trait.Map.put txn ((d * iters) + i) i);
                       Stm.write txn counters.(d)
                         (Stm.read txn counters.(d) + 1);
                       match flavour with
                       | 0 -> raise (Storm i)
                       | 1 -> Stm.after_commit txn (fun () -> raise (Storm i))
                       | 2 ->
                           Stm.on_commit_locked txn (fun () -> raise (Storm i))
                       | _ ->
                           Stm.on_abort txn (fun () -> raise (Storm i));
                           Stm.restart txn)
                 with
                | () -> committed.(d) <- committed.(d) + 1
                | exception Storm _ ->
                    (* Post-commit hook storms propagate after the
                       effects published. *)
                    if flavour = 1 || flavour = 2 then
                      committed.(d) <- committed.(d) + 1);
                (* The pooled record must come back scrubbed after every
                   stormy episode, whichever path it escaped through. *)
                Stm.descriptor_pool_check ()
              done);
          (* Sequential model: each domain's counter counts exactly its
             committed episodes, and the map holds exactly the keys of
             committed episodes. *)
          Array.iteri
            (fun d want ->
              check ci
                (Printf.sprintf "%s: domain %d counter matches commits"
                   (Stm.mode_name mode) d)
                want (Tvar.peek counters.(d)))
            committed;
          Fault.disable ();
          for d = 0 to domains - 1 do
            for i = 1 to iters do
              let present =
                Stm.atomically ~config:cfg (fun txn ->
                    ops.S.Trait.Map.get txn ((d * iters) + i))
                <> None
              in
              check cb
                (Printf.sprintf "%s: key (%d,%d) present iff committed"
                   (Stm.mode_name mode) d i)
                (i mod 4 = 1 || i mod 4 = 2)
                present
            done
          done;
          Stm.descriptor_pool_check ())
        all_modes)

(* Disabled-mode fast path: no policy, no draws, no counters. *)
let test_disabled_is_free () =
  Fault.disable ();
  let before = Stats.read () in
  check cb "disabled" false (Fault.enabled ());
  for _ = 1 to 1_000 do
    assert (Fault.check Fault.Pre_commit = None)
  done;
  let d = Stats.diff before (Stats.read ()) in
  check ci "no faults counted while disabled" 0 d.Stats.injected_faults

(* Determinism: the same (seed, domain) pair must replay the same
   schedule, which is what makes chaos failures reproducible. *)
let test_seeded_determinism () =
  let draw () =
    Fault.configure ~seed:42
      [ (Fault.Pre_commit, { Fault.prob = 0.5; actions = [ Fault.Abort ] }) ];
    List.init 64 (fun _ -> Fault.check Fault.Pre_commit <> None)
  in
  Fun.protect ~finally:Fault.disable (fun () ->
      let a = draw () and b = draw () in
      check cb "same seed, same schedule" true (a = b))

(* Every injection point (the five durability points included) must be
   enumerable with a distinct, nonempty name — the bench/CI fault
   matrix keys on these. *)
let test_point_names () =
  let names = List.map Fault.point_name Fault.all_points in
  check ci "sixteen injection points" 16 (List.length names);
  List.iter (fun n -> check cb ("nonempty: " ^ n) true (n <> "")) names;
  check ci "names are distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

(* -- combiner chaos -------------------------------------------------- *)

(* Crash-safety at the combiner hand-off: [Kill]/[Crash] draws inside
   the flat-combining drain abandon the batch mid-flight, [Abort]
   spuriously rejects entries, [Wedge]/[Delay] stretch the window where
   waiters decide between spinning and self-electing.  Under all of it,
   conservation must hold — every [atomically] that returned left its
   increment in the committed state (no acked commit lost to an
   abandoned drain) — and quiescence must leave no publication-list
   entry stranded in [Waiting].  The counters then prove the schedule
   actually exercised grouping rather than degenerating to inline. *)
let test_combine_handoff_chaos () =
  with_seed_note @@ fun () ->
  check cb "combining is on by default" true (Stm.combining ());
  let cfg = chaos_cfg Stm.Serial_commit in
  Fault.configure ~seed:(sub_seed 0xc0b)
    [
      ( Fault.Combine_handoff,
        {
          Fault.prob = 0.3;
          actions =
            [
              Fault.Kill; Fault.Crash; Fault.Wedge; Fault.Abort;
              Fault.Delay 150;
            ];
        } );
    ];
  Stm.set_leak_audit true;
  (* Batches need arrivals in the combiner's window.  New Serial_commit
     transactions seqlock their snapshot against the gate, so only
     transactions already past their snapshot can join — on a box with
     fewer cores than domains that never happens by luck.  So each
     round holds [domains] transactions open on a barrier until the
     whole round is in flight, then releases them into the publisher
     together, with the combiner lingering long enough to drain the
     stragglers. *)
  Stm.set_combine_linger 2e-3;
  let domains = 4 in
  let cells = Array.init domains (fun _ -> Tvar.make 0) in
  let before = Stats.read () in
  let batched d = d.Stats.combined_commits - d.Stats.combiner_elections in
  let enough () =
    let d = Stats.diff before (Stats.read ()) in
    d.Stats.injected_faults > 0 && batched d > 0
  in
  let rounds = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Stm.set_combine_linger 0.;
      Stm.set_leak_audit false)
    (fun () ->
      while !rounds < 200 && not (!rounds >= 30 && enough ()) do
        incr rounds;
        let arrived = Atomic.make 0 in
        spawn_all domains (fun d ->
            let announced = ref false in
            Stm.atomically ~config:cfg (fun txn ->
                Stm.write txn cells.(d) (Stm.read txn cells.(d) + 1);
                if not !announced then begin
                  (* Latched across retries: a killed entry's re-run
                     must not block a barrier everyone already left. *)
                  announced := true;
                  Atomic.incr arrived
                end;
                while Atomic.get arrived < domains do
                  Domain.cpu_relax ()
                done);
            Stm.descriptor_pool_check ())
      done);
  (* Every [atomically] that returned left exactly one increment in the
     committed state: no acked commit was lost to an abandoned drain,
     no kill/crash draw double-applied one through a retry. *)
  Array.iteri
    (fun d tv ->
      check ci
        (Printf.sprintf "conservation: domain %d acked increments" d)
        !rounds (Tvar.peek tv))
    cells;
  check ci "no stranded publication entry" 0 (Stm.pending_publications ());
  let d = Stats.diff before (Stats.read ()) in
  check cb "faults were injected at the hand-off" true
    (d.Stats.injected_faults > 0);
  check cb "combiner elections under fire" true
    (d.Stats.combiner_elections > 0);
  check cb "entries committed by another domain's combiner" true
    (batched d > 0)

(* The same hand-off schedule with combining switched off: the knob
   must route every Serial_commit publication through the inline path,
   where the hand-off point is never drawn — conservation for free and
   zero combiner activity prove the toggle isolates the new machinery. *)
let test_combine_off_bypasses_handoff () =
  with_seed_note @@ fun () ->
  let saved = Stm.combining () in
  Stm.set_combining false;
  let cfg = chaos_cfg Stm.Serial_commit in
  Fault.configure ~seed:(sub_seed 0xc0c)
    [
      ( Fault.Combine_handoff,
        { Fault.prob = 1.0; actions = [ Fault.Kill; Fault.Crash ] } );
    ];
  let r = Tvar.make 0 in
  let before = Stats.read () in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Stm.set_combining saved)
    (fun () ->
      spawn_all 4 (fun _ ->
          for _ = 1 to 100 do
            Stm.atomically ~config:cfg (fun txn ->
                Stm.write txn r (Stm.read txn r + 1))
          done));
  check ci "inline path conserves" 400 (Tvar.peek r);
  let d = Stats.diff before (Stats.read ()) in
  check ci "no elections with combining off" 0 d.Stats.combiner_elections;
  check ci "no hand-off draws with combining off" 0 d.Stats.injected_faults

(* -- parking chaos --------------------------------------------------- *)

(* Injection at the three parking points — forced spurious unparks
   before blocking, delays in the wake-to-revalidate window, and
   dropped/delayed wakeups at commit — under producer/consumer stress.
   Deadline-bounded takes absorb the dropped wakeups; afterwards the
   leak audit must see no orphaned wait-list entries anywhere. *)
let test_park_unpark_chaos () =
  with_seed_note (fun () ->
      let b = Bounded.make 4 in
      Fault.configure ~seed:(sub_seed 0x9a7)
        [
          ( Fault.Pre_park,
            { Fault.prob = 0.3; actions = [ Fault.Delay 100; Fault.Abort ] } );
          (Fault.Post_unpark, { Fault.prob = 0.3; actions = [ Fault.Delay 100 ] });
          ( Fault.Commit_wake,
            { Fault.prob = 0.25; actions = [ Fault.Kill; Fault.Delay 50 ] } );
        ];
      Fun.protect ~finally:Fault.disable (fun () ->
          let total = 200 in
          let produced = Atomic.make 0 in
          let consumed = Atomic.make 0 in
          let producers =
            List.init 2 (fun _ ->
                Domain.spawn (fun () ->
                    let continue = ref true in
                    while !continue do
                      let i = Atomic.fetch_and_add produced 1 in
                      if i < total then
                        Stm.atomically (fun txn -> Bounded.put txn b i)
                      else continue := false
                    done))
          in
          let consumers =
            List.init 2 (fun _ ->
                Domain.spawn (fun () ->
                    let continue = ref true in
                    while !continue do
                      if Atomic.get consumed >= total then continue := false
                      else
                        match
                          Stm.atomic
                            ~deadline:(Clock.now_mono () +. 0.05)
                            (fun txn -> Bounded.take txn b)
                        with
                        | Stm.Outcome.Committed _ -> Atomic.incr consumed
                        | _ -> ()
                    done))
          in
          List.iter Domain.join producers;
          List.iter Domain.join consumers;
          check ci "every element consumed" total (Atomic.get consumed));
      check ci "no orphaned waiters" 0 (Stm.parked_waiters ());
      Stm.descriptor_pool_check ())

(* A woken (or expired) waiter deregisters from every tvar it watched:
   the per-tvar lists are empty once the waiters drained. *)
let test_wait_lists_pruned () =
  let flag = Tvar.make false in
  let ds =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            Stm.atomically (fun txn ->
                if not (Stm.read txn flag) then Stm.retry txn)))
  in
  let deadline = Clock.now_mono () +. 5.0 in
  while Stm.parked_waiters () < 3 && Clock.now_mono () < deadline do
    Domain.cpu_relax ()
  done;
  check cb "waiters registered on the tvar" true (Tvar.waiter_count flag >= 3);
  Stm.atomically (fun txn -> Stm.write txn flag true);
  List.iter Domain.join ds;
  check ci "wait list left empty" 0 (Tvar.waiter_count flag);
  check ci "no orphaned waiters" 0 (Stm.parked_waiters ())

let suite =
  [
    test "fault injection disabled is free" test_disabled_is_free;
    test "fault schedules are seeded and deterministic"
      test_seeded_determinism;
    test "all injection points are named" test_point_names;
  ]
  @ List.map
      (fun mode ->
        slow
          (Printf.sprintf "fallback beats certain-abort under %s"
             (Stm.mode_name mode))
          (test_fallback_beats_adversary mode))
      all_modes
  @ List.map
      (fun mode ->
        test
          (Printf.sprintf "ladder off starves under %s" (Stm.mode_name mode))
          (test_ladder_off_starves mode))
      all_modes
  @ List.map
      (fun mode ->
        slow
          (Printf.sprintf "hostile single key conserves under %s"
             (Stm.mode_name mode))
          (test_hostile_single_key mode))
      all_modes
  @ [
      test "descriptor pool resets under chaos" test_pool_reset_after_chaos;
      slow "exception storm leaves no residue" test_exception_storm;
      slow "chaos soak: modes x points, audited" test_chaos_soak;
      slow "combiner hand-off chaos conserves acked commits"
        test_combine_handoff_chaos;
      test "combining off bypasses the hand-off point"
        test_combine_off_bypasses_handoff;
      slow "park/unpark chaos leaves no orphans" test_park_unpark_chaos;
      test "woken waiters prune their wait lists" test_wait_lists_pruned;
    ]
