(* Picking the sustained rate from an offered-load ladder. *)

type rung = {
  rate : float;  (** offered arrivals per second *)
  p99_us : float;  (** intended-time tail latency at this rate *)
  backlog_end : int;  (** requests due but not yet started at rung end *)
}

(* A backlog the offered rate needs more than the latency limit to
   drain has been growing for a while: the queue, not the service, is
   setting the latency. *)
let growing ~limit_us r = float_of_int r.backlog_end /. r.rate *. 1e6 > limit_us
let meets ~limit_us r = r.p99_us <= limit_us && not (growing ~limit_us r)

(* The highest rate of an ascending ladder met by it and every rung
   below it; 0 when the lowest rung already misses. *)
let sustained ~limit_us rungs =
  let rungs = List.sort (fun a b -> Float.compare a.rate b.rate) rungs in
  let rec go best = function
    | r :: rest when meets ~limit_us r -> go r.rate rest
    | _ -> best
  in
  go 0. rungs
