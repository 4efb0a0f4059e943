let next_seed = Atomic.make 0x9e3779b9

type t = {
  mutable attempts : int;
  mutable ceiling : int;
  mutable sleep_after : int;
  mutable sleep : float;
  mutable slept_ns : int;
  rng : Random.State.t;
}

let default_ceiling = 14

let create ?(ceiling = default_ceiling) ?(sleep_after = 6) ?(sleep = 1e-6) () =
  let seed =
    (Domain.self () :> int) lxor Atomic.fetch_and_add next_seed 0x61c88647
  in
  {
    attempts = 0;
    ceiling;
    sleep_after;
    sleep;
    slept_ns = 0;
    rng = Random.State.make [| seed |];
  }

(* Reconfiguring instead of recreating keeps the [Random.State]
   allocation (the expensive part of [create]) out of per-transaction
   paths: pooled backoffs are retuned to the episode's config and their
   contention history forgotten.  Labelled, not optional, arguments:
   an optional one would box its value on every call. *)
let reconfigure t ~sleep_after ~sleep =
  t.attempts <- 0;
  t.ceiling <- default_ceiling;
  t.sleep_after <- sleep_after;
  t.sleep <- sleep;
  t.slept_ns <- 0

let spin n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

(* When there are more runnable domains than cores, pure spinning can
   starve whichever domain holds the contended resource, so persistent
   contention degrades to a short OS sleep.  Sleep accounting rides on
   the monotonic clock ([Clock.now_mono_ns]) so a deadline-bounded
   caller can pass [until_ns] and never oversleep its deadline — and an
   NTP step cannot inflate the recorded stall. *)
let once ?(until_ns = 0) t =
  let e = min t.attempts t.ceiling in
  let window = 1 lsl e in
  spin (1 + Random.State.int t.rng window);
  t.attempts <- t.attempts + 1;
  if t.attempts > t.sleep_after then begin
    let d =
      if until_ns = 0 then t.sleep
      else
        (* Clamp the degraded sleep so it ends at the caller's
           monotonic deadline; a deadline already past sleeps 0. *)
        Float.min t.sleep
          (Float.max 0.0 (float_of_int (until_ns - Clock.now_mono_ns ()) *. 1e-9))
    in
    if d > 0.0 then begin
      let t0 = Clock.now_mono_ns () in
      Unix.sleepf d;
      t.slept_ns <- t.slept_ns + (Clock.now_mono_ns () - t0)
    end
  end

let reset t = t.attempts <- 0
let rounds t = t.attempts
let slept_ns t = t.slept_ns
