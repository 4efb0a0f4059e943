(* Holds are recorded as membership only: [release_all] drops every
   level an owner took at once, so reentrant acquisitions need no
   count. *)
type t = {
  m : Mutex.t;
  readers : (int, unit) Hashtbl.t;  (* owners holding shared mode *)
  mutable writer : int option;
}

let create () =
  { m = Mutex.create (); readers = Hashtbl.create 4; writer = None }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Deadlines are monotonic seconds, same time base as the STM's
   [Clock.now_mono]: an NTP step moving the wall clock must not fire
   (or indefinitely postpone) lock timeouts. *)
let now_mono () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Deadline-bounded acquisition polls rather than using condition
   variables: waiters are transactions that will abort on timeout, so
   the wait is short-lived by construction and a micro-sleep poll keeps
   the implementation obviously deadlock-free. *)
let poll_until ~deadline attempt =
  let rec loop () =
    if attempt () then true
    else if now_mono () > deadline then false
    else begin
      Unix.sleepf 20e-6;
      loop ()
    end
  in
  loop ()

let try_acquire_read t ~owner ~deadline =
  let attempt () =
    with_lock t (fun () ->
        match t.writer with
        | Some w when w <> owner -> false
        | _ ->
            Hashtbl.replace t.readers owner ();
            true)
  in
  poll_until ~deadline attempt

let try_acquire_write t ~owner ~deadline =
  let attempt () =
    with_lock t (fun () ->
        let others_reading =
          Hashtbl.fold (fun o _ acc -> acc || o <> owner) t.readers false
        in
        match t.writer with
        | Some w when w <> owner -> false
        | _ when others_reading -> false
        | _ ->
            t.writer <- Some owner;
            true)
  in
  poll_until ~deadline attempt

let release_all t ~owner =
  with_lock t (fun () ->
      Hashtbl.remove t.readers owner;
      match t.writer with
      | Some w when w = owner -> t.writer <- None
      | _ -> ())

let reader_count t = with_lock t (fun () -> Hashtbl.length t.readers)
let writer t = with_lock t (fun () -> t.writer)

let holds t ~owner =
  with_lock t (fun () ->
      t.writer = Some owner || Hashtbl.mem t.readers owner)
