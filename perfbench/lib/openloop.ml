(* The open-loop service loop: a pre-generated schedule of intended
   arrival offsets worked by service domains that share one cursor.

   Lateness is never forgiven.  A worker that falls behind starts the
   backlog at once rather than re-anchoring the schedule, so a stall on
   one request is charged to every request queued behind it: latency
   is measured from the intended arrival time, not from when service
   began. *)

type clock = { now : unit -> float; wait_until : float -> unit }

(* Sleep to within a millisecond of [target], then spin out the
   scheduler's wake-up jitter. *)
let real_clock =
  let now = Clock.now_mono in
  let wait_until target =
    let dt = target -. now () in
    if dt > 0.0015 then Unix.sleepf (dt -. 0.001);
    while now () < target do
      Domain.cpu_relax ()
    done
  in
  { now; wait_until }

type run = {
  intended : float array;  (** absolute intended arrival times *)
  start : float array;  (** service start; [nan] if skipped at cutoff *)
  fin : float array;  (** service end; [nan] if skipped at cutoff *)
}

let create ~t0 (offsets : float array) =
  let n = Array.length offsets in
  {
    intended = Array.map (fun o -> t0 +. o) offsets;
    start = Array.make n Float.nan;
    fin = Array.make n Float.nan;
  }

(* One service worker.  Requests still unstarted after [cutoff] are
   handed to [skip] instead of [serve] (and left [nan]), so an
   overloaded rung still terminates. *)
let worker ?(cutoff = Float.infinity) ?(skip = ignore) ~clock
    ~(next : int Atomic.t) r ~(serve : int -> unit) =
  let n = Array.length r.intended in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      clock.wait_until r.intended.(i);
      let s = clock.now () in
      if s <= cutoff then begin
        r.start.(i) <- s;
        serve i;
        r.fin.(i) <- clock.now ()
      end
      else skip i;
      loop ()
    end
  in
  loop ()

let served r i = not (Float.is_nan r.fin.(i))

(* Per-request nanosecond samples over requests [lo, hi) that were
   served: from intended arrival ([`Intended]), from service start
   ([`Service]), or the wait between them ([`Lateness]). *)
let samples ?(lo = 0) ?hi r which =
  let hi = Option.value hi ~default:(Array.length r.intended) in
  let b = Pct.Buf.create ~cap:(max 1 (hi - lo)) () in
  for i = lo to hi - 1 do
    if served r i then
      let a, z =
        match which with
        | `Intended -> (r.intended.(i), r.fin.(i))
        | `Service -> (r.start.(i), r.fin.(i))
        | `Lateness -> (r.intended.(i), r.start.(i))
      in
      Pct.Buf.push b (int_of_float ((z -. a) *. 1e9))
  done;
  Pct.Buf.to_array b

(* Requests due by time [t] that had not started by then. *)
let backlog_at r t =
  let c = ref 0 in
  Array.iteri
    (fun i due ->
      if due <= t && (Float.is_nan r.start.(i) || r.start.(i) > t) then incr c)
    r.intended;
  !c
