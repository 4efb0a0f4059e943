(* Growable sample buffers and exact order statistics.

   Timings are kept as raw integer nanoseconds and ranked exactly: the
   library's log-bucketed histograms are up to 6.25% wide per bucket,
   which is most of a 10% regression bound. *)

(* Samples live outside the OCaml heap, so the benchmark's own
   bookkeeping neither feeds the collector nor shows in the live heap
   it reports. *)
module Buf = struct
  open Bigarray

  type t = { mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let make cap = Array1.create int c_layout (max 1 cap)
  let create ?(cap = 1024) () = { a = make cap; n = 0 }

  let push b x =
    if b.n = Array1.dim b.a then begin
      let a = make (2 * b.n) in
      Array1.blit b.a (Array1.sub a 0 b.n);
      b.a <- a
    end;
    Array1.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let length b = b.n
  let get b i = if i < b.n then Array1.get b.a i else invalid_arg "Pct.Buf.get"
  let to_array b = Array.init b.n (fun i -> Array1.unsafe_get b.a i)
end

let sorted (a : int array) =
  let b = Array.copy a in
  Array.sort Int.compare b;
  b

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [q]% of the samples at or below it. *)
let rank n q = max 1 (min n (int_of_float (Float.ceil (q /. 100. *. float_of_int n))))
let at (s : int array) q = s.(rank (Array.length s) q - 1)

(* Samples strictly beyond the [q]th percentile's rank. *)
let beyond n q = n - rank n q

type tail = { q : float; value : int; count : int }

let min_beyond = 10
let candidates = [ 99.; 95.; 90.; 75.; 50. ]

(* The highest percentile of [candidates] (descending, at most [q]) that
   leaves at least [min_beyond] samples above it: a percentile backed
   by fewer samples is one outlier's value, not a distribution's. *)
let tail ~q (s : int array) =
  let n = Array.length s in
  let ok c = c <= q && beyond n c >= min_beyond in
  match List.find_opt ok candidates with
  | None -> None
  | Some c -> Some { q = c; value = at s c; count = n }

let median_float l =
  match List.sort Float.compare l with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* [a] cut into at most [max_chunks] contiguous chunks of at least
   [min_size] samples each (one chunk when [a] is smaller). *)
let chunks ~min_size ~max_chunks (a : int array) =
  let n = Array.length a in
  let k = max 1 (min max_chunks (n / max 1 min_size)) in
  List.init k (fun j ->
      let lo = j * n / k and hi = (j + 1) * n / k in
      Array.sub a lo (hi - lo))

type windowed = { w_q : float; w_value : float; w_windows : int; w_count : int }

(* The [q]th percentile of each time-contiguous window of each sample
   stream, and their median.  One stall lifts the tail of the window it
   lands in; the median over windows reports what the system shows in
   a typical stretch, so a run-to-run comparison is not decided by
   where the host preempted the benchmark.  Each window's percentile is
   chosen by {!tail}, and the lowest percentile any window needed is
   reported. *)
let window_min_size = 2000

let windowed ~max_chunks ~q (streams : int array list) =
  let tails =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun c -> if Array.length c = 0 then None else tail ~q (sorted c))
          (chunks ~min_size:window_min_size ~max_chunks a))
      streams
  in
  match tails with
  | [] -> None
  | _ ->
      Some
        {
          w_q = List.fold_left (fun acc t -> Float.min acc t.q) q tails;
          w_value = median_float (List.map (fun t -> float_of_int t.value) tails);
          w_windows = List.length tails;
          w_count = List.fold_left (fun acc a -> acc + Array.length a) 0 streams;
        }
