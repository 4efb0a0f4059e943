(* Correctness checks on a workload's final state.  Each returns
   [Error msg] naming the first discrepancy it finds. *)

type verdict = (unit, string) result

let all (vs : verdict list) : verdict =
  List.fold_left (fun acc v -> match acc with Error _ -> acc | Ok () -> v) (Ok ()) vs

(* transfer-uniform: transfers move money, never make or lose it. *)
let conservation ~expected (balances : int array) : verdict =
  let total = Array.fold_left ( + ) 0 balances in
  if total = expected then Ok ()
  else Error (Printf.sprintf "total balance %d, expected %d" total expected)

(* map-contended: the final size is the prefill plus the net size
   change the committed operations' return values report. *)
let size ~prefill ~delta ~final : verdict =
  if final = prefill + delta then Ok ()
  else
    Error
      (Printf.sprintf "final size %d, expected %d + %d = %d" final prefill
         delta (prefill + delta))

(* durable-commit: replaying the log into a fresh structure reproduces
   the live committed bindings key for key. *)
let replay ~(live : int option array) ~(replayed : int option array) : verdict =
  let n = Array.length live in
  if Array.length replayed <> n then
    Error
      (Printf.sprintf "replayed %d keys, live %d" (Array.length replayed) n)
  else
    let rec go k =
      if k = n then Ok ()
      else if live.(k) = replayed.(k) then go (k + 1)
      else
        let show = function None -> "-" | Some v -> string_of_int v in
        Error
          (Printf.sprintf "key %d: live %s, replayed %s" k (show live.(k))
             (show replayed.(k)))
    in
    go 0

(* scan-open: no read-only snapshot attempt aborted. *)
let no_ro_aborts ro_aborts : verdict =
  if ro_aborts = 0 then Ok ()
  else Error (Printf.sprintf "%d read-only attempts aborted" ro_aborts)

(* scan-open: each arrival reached exactly one terminal state ([served]
   counts how often arrival [i] was recorded), and no read-only
   snapshot attempt aborted. *)
let accounting ~(served : int array) ~ro_aborts : verdict =
  let bad = ref None in
  Array.iteri
    (fun i c -> if c <> 1 && !bad = None then bad := Some (i, c))
    served;
  match !bad with
  | Some (i, c) -> Error (Printf.sprintf "arrival %d accounted %d times" i c)
  | None -> no_ro_aborts ro_aborts

(* scan-open: a scan of [width] keys from [lo] over the never-shrinking
   prefilled keyspace [0, keys) returns exactly the keys present. *)
let scan ~keys ~width ~lo (got : int list) : verdict =
  let expect = max 0 (min width (keys - lo)) in
  let rec ascending k = function
    | [] -> true
    | x :: rest -> x = k && ascending (k + 1) rest
  in
  if List.length got = expect && ascending lo got then Ok ()
  else
    Error
      (Printf.sprintf "scan from %d returned %d keys, expected %d" lo
         (List.length got) expect)
