(* Blocking [retry]: park the domain on its read set instead of
   busy-polling.

   The no-lost-wakeup protocol, against the commit path's
   publish-then-scan order (see [Commit_ladder] and
   [Tvar.take_waiters]):

     waiter                               committer
     ------                               ---------
     register on every read-set tvar      publish new versions
     revalidate recorded versions         detach + wake each list
     park (if still valid)

   Whichever way the race goes, the waiter cannot sleep through the
   commit: if the committer's scan saw the registration, the waiter is
   woken; if it did not, the registration happened after the scan's
   exchange, hence after the publish, and the waiter's revalidation —
   which follows its registration — observes the new version and
   cancels itself instead of parking.  OCaml atomics are SC, so the
   publish/scan and register/revalidate orders cannot invert.

   Deadlines are honored while parked: stdlib [Condition] has no timed
   wait, so a lazily-spawned timer domain holds (deadline, waiter)
   entries and expires them in bounded sleep slices.  A woken-by-timer
   episode re-enters the ladder, whose attempt-boundary check raises
   [Deadline_exceeded] as usual.

   The legacy polling wait survives as the [Poll] mode, switchable at
   runtime, so the parking bench can measure parks against busy-poll
   iterations on the same workload. *)

type retry_mode = Park | Poll

let mode = Atomic.make Park

let set_retry_mode m = Atomic.set mode m
let retry_mode () = Atomic.get mode
let live_waiters = Waitq.live_waiters

(* Commit fast path: one atomic load when nobody is parked. *)
let have_waiters () = Waitq.live_waiters () > 0

type watch = Rwset.packed_tvar * int

let changed ((tv, ver) : watch) = (Tvar.load tv).Tvar.version <> ver

(* ------------------------------------------------------------------ *)
(* The deadline timer                                                   *)

module Timer = struct
  (* One daemon domain servicing every deadline-carrying park in the
     process.  It blocks on its condition while idle, and while armed
     sleeps in bounded slices towards the earliest deadline, so a
     registration that undercuts the current sleep is late by at most
     one slice.  Spawned on first use; [at_exit] stops and joins it so
     the runtime's domain-exit barrier never waits on an infinite
     loop. *)
  let slice = 0.001

  let mu = Mutex.create ()
  let cv = Condition.create ()
  let entries : (int * Waitq.waiter) list ref = ref []
  let running = ref false
  let stopping = ref false

  let rec loop () =
    Mutex.lock mu;
    let action =
      if !stopping then `Stop
      else
        match !entries with
        | [] ->
            Condition.wait cv mu;
            `Again
        | es ->
            let now = Clock.now_mono_ns () in
            let due, later =
              List.partition (fun (d, _) -> d <= now) es
            in
            entries := later;
            if due <> [] then `Expire (List.map snd due)
            else
              let next =
                List.fold_left (fun acc (d, _) -> min acc d) max_int later
              in
              `Sleep (float_of_int (next - now) *. 1e-9)
    in
    Mutex.unlock mu;
    match action with
    | `Stop -> ()
    | `Again -> loop ()
    | `Expire ws ->
        List.iter (fun w -> ignore (Waitq.expire w)) ws;
        loop ()
    | `Sleep dt ->
        Unix.sleepf (Float.min dt slice);
        loop ()

  let ensure_running () =
    if not !running then begin
      running := true;
      let d = Domain.spawn loop in
      at_exit (fun () ->
          Mutex.lock mu;
          stopping := true;
          Condition.broadcast cv;
          Mutex.unlock mu;
          Domain.join d)
    end

  let register w ~deadline_ns =
    Mutex.lock mu;
    ensure_running ();
    entries := (deadline_ns, w) :: !entries;
    Condition.broadcast cv;
    Mutex.unlock mu

  let cancel w =
    Mutex.lock mu;
    entries := List.filter (fun (_, x) -> x != w) !entries;
    Mutex.unlock mu
end

let timer_slice = Timer.slice

(* Block on [w] until it is woken or, when [deadline_ns <> 0], the
   timer expires it at the deadline. *)
let park_until ~deadline_ns w =
  if deadline_ns <> 0 then Timer.register w ~deadline_ns;
  Waitq.park w;
  if deadline_ns <> 0 then Timer.cancel w

(* ------------------------------------------------------------------ *)
(* The two waits                                                        *)

(* Legacy busy-poll, kept for comparison benches: spin the version
   checks under a private backoff, counting every iteration.  Returns
   on change or (when [deadline_ns] is set) on expiry. *)
let poll_wait ~deadline_ns entries =
  let b = Backoff.create () in
  let rec loop () =
    Stats.record_retry_poll ();
    if List.exists changed entries then ()
    else if deadline_ns <> 0 && Clock.now_mono_ns () >= deadline_ns then ()
    else begin
      Backoff.once ~until_ns:deadline_ns b;
      loop ()
    end
  in
  loop ()

let chaos point =
  if Fault.enabled () then Fault.check point else None

let park_wait ~deadline_ns entries =
  let w = Waitq.make () in
  let longest =
    List.fold_left (fun acc (tv, _) -> max acc (Tvar.add_waiter tv w)) 0 entries
  in
  Waitq.enlist w;
  Stats.note_wait_list_len longest;
  (* Registered on every list: revalidate.  A version that moved since
     the attempt recorded it means the wakeup may already have been
     scanned past us — consume the change and re-attempt instead of
     parking. *)
  if List.exists changed entries then ignore (Waitq.cancel w)
  else begin
    (match chaos Fault.Pre_park with
    | Some (Fault.Delay n) -> Fault.spin n
    | Some (Fault.Abort | Fault.Kill | Fault.Crash | Fault.Wedge) ->
        (* Forced spurious unpark: the waiter must cope with waking for
           no reason at any moment, so serve disruptive draws as a
           self-cancel just before blocking. *)
        ignore (Waitq.cancel w)
    | None -> ());
    if Waitq.is_waiting w then begin
      Stats.record_park ();
      park_until ~deadline_ns w;
      (* Wakeup latency: commit-side publication stamp (see
         [Waitq.wake]) to this resume.  Timer expiries leave the stamp
         at 0 and are not samples. *)
      if Proust_obs.Metrics.enabled () then begin
        let t0 = Waitq.wake_ns w in
        if t0 > 0 then
          Proust_obs.Metrics.add_wakeup_latency
            (Proust_obs.Trace.now_ns () - t0)
      end
    end;
    (match chaos Fault.Post_unpark with
    | Some (Fault.Delay n) -> Fault.spin n
    | Some _ -> Fault.spin 64
    | None -> ())
  end;
  (* Orphan-freedom: whatever path ended the wait, leave every list we
     joined.  Racing a committer's detach just finds us already gone. *)
  List.iter (fun (tv, _) -> Tvar.remove_waiter tv w) entries

(* [await ~deadline_ns entries] blocks until some watched tvar's
   version moves past its recorded value, the deadline passes, or a
   spurious unpark fires; the caller re-attempts and re-blocks as
   needed.  [entries] must be non-empty. *)
let await ~deadline_ns entries =
  match Atomic.get mode with
  | Poll -> poll_wait ~deadline_ns entries
  | Park -> park_wait ~deadline_ns entries

(* ------------------------------------------------------------------ *)
(* Commit-side wake                                                     *)

(* Wake everything parked on [tv].  The caller (the commit path) has
   already published the new versions, which is what makes the detach
   race-free against registration — see the protocol note above. *)
let wake_tvar tv =
  match Tvar.take_waiters tv with
  | [] -> ()
  | ws -> List.iter (fun w -> ignore (Waitq.wake w)) ws
