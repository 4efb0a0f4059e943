(* Group-commit redo log: producers buffer framed records under a
   mutex and signal a dedicated flusher domain, which takes the whole
   buffer, writes it in LSN order and fsyncs once per batch.

   Durable waits park.  A waiter registers (ticket, waiter) on the
   ticket-ordered [parked] list under [buf_lock], rechecking [flushed]
   and the halt flag under that lock, then blocks on its domain's
   {!Waitq} lot (deadline waits also hold a {!Parking} timer entry).
   The flusher publishes [flushed] first and only then, under
   [buf_lock], detaches and wakes every waiter at or below it: the
   publish-then-detach order of [Stm.retry].  Either the detach sees
   the registration, or the registration came after it and its recheck
   sees the new watermark; no wake is lost.  A waiter's answer is the
   watermark itself, never the fact of being woken.

   The linger knows its committers.  A domain is a committer of a log
   from its first [wait_durable] on it until the domain exits.  Once
   the parked list holds a waiter from every live committer, nobody
   who could still join the batch is running, so the flusher stops
   lingering; otherwise it lingers the full [batch_delay], which an
   idle committer therefore still gets. *)

let snap_path p = Filename.remove_extension p ^ ".snap"
let snap_header = "PROUST-SNAP1"

(* Batch-size percentiles cover the last [window] batches and are
   recomputed every [refresh_every] batches, off the wake path. *)
let window = 1024
let refresh_every = 64

type t = {
  log_path : string;
  batch_delay : float;
  fsync_delay : float;
  buf_lock : Mutex.t;
  cond : Condition.t;
  mutable pending : (int * Bytes.t * int) list;  (* ticket, frame, lsn; LIFO *)
  mutable next_ticket : int;
  mutable taken : int;  (* highest ticket the flusher has taken *)
  mutable flush_upto : int;  (* [flush]'s target: linger ends while > [taken] *)
  mutable stopping : bool;
  mutable parked : (int * Waitq.waiter) list;  (* ascending ticket *)
  mutable committers : int;  (* live domains that have waited here *)
  mutable lingerer : Waitq.waiter option;  (* the flusher, mid-linger *)
  flushed : int Atomic.t;  (* every ticket <= this is on disk *)
  halted_flag : bool Atomic.t;
  io_lock : Mutex.t;  (* file writes: flusher batches vs. compaction *)
  mutable fd : Unix.file_descr;
  mutable flusher : unit Domain.t option;
  bytes_acc : int Atomic.t;
  appends_acc : int Atomic.t;
  batch_sizes : int array;  (* flusher-private ring of [window] *)
  mutable batches : int;
}

let path t = t.log_path
let halted t = Atomic.get t.halted_flag
let bytes_appended t = Atomic.get t.bytes_acc
let appends t = Atomic.get t.appends_acc
let flushed t = Atomic.get t.flushed

let parked t =
  Mutex.lock t.buf_lock;
  let n = List.length t.parked in
  Mutex.unlock t.buf_lock;
  n

(* [buf_lock] held for both. *)
let linger_over t =
  t.flush_upto > t.taken || t.stopping || halted t
  || (t.committers > 0 && List.length t.parked >= t.committers)

let nudge t =
  match t.lingerer with
  | Some w when linger_over t -> ignore (Waitq.wake w)
  | _ -> ()

(* Committer bookkeeping: the logs the calling domain has waited on.
   The domain's first registration arms one [Domain.at_exit] that
   retires it from all of them. *)
type mine = { mutable logs : t list; mutable armed : bool }

let mine_key = Domain.DLS.new_key (fun () -> { logs = []; armed = false })

let retire t =
  Mutex.lock t.buf_lock;
  t.committers <- t.committers - 1;
  nudge t;
  Mutex.unlock t.buf_lock

let enroll t =
  let m = Domain.DLS.get mine_key in
  if not (List.memq t m.logs) then begin
    if not m.armed then begin
      m.armed <- true;
      Domain.at_exit (fun () -> List.iter retire m.logs)
    end;
    m.logs <- t :: List.filter (fun l -> not l.stopping) m.logs;
    Mutex.lock t.buf_lock;
    t.committers <- t.committers + 1;
    Mutex.unlock t.buf_lock
  end

let wake_all ws = List.iter (fun (_, w) -> ignore (Waitq.wake w)) ws

let halt t =
  if not (Atomic.get t.halted_flag) then begin
    Atomic.set t.halted_flag true;
    Mutex.lock t.buf_lock;
    t.pending <- [];
    let ws = t.parked in
    t.parked <- [];
    Condition.broadcast t.cond;
    nudge t;
    Mutex.unlock t.buf_lock;
    wake_all ws
  end

(* Detach and wake every waiter whose ticket is now durable: a prefix
   of the ticket-ordered list.  Called only after [flushed] is
   published. *)
let wake_flushed t =
  let upto = Atomic.get t.flushed in
  let rec split = function
    | ((tk, _) as e) :: rest when tk <= upto ->
        let ready, rest = split rest in
        (e :: ready, rest)
    | rest -> ([], rest)
  in
  Mutex.lock t.buf_lock;
  let ready, rest = split t.parked in
  t.parked <- rest;
  Mutex.unlock t.buf_lock;
  wake_all ready

let write_all fd buf pos len =
  let off = ref pos and left = ref len in
  while !left > 0 do
    let n = Unix.write fd buf !off !left in
    off := !off + n;
    left := !left - n
  done

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0
  | n -> sorted.(min (n - 1) (p * n / 100))

let publish_percentiles t =
  if t.batches > 0 then begin
    let sorted = Array.sub t.batch_sizes 0 (min t.batches window) in
    Array.sort Int.compare sorted;
    Stats.set_fsync_batch_percentiles ~p50:(percentile sorted 50)
      ~p99:(percentile sorted 99)
  end

let note_batch t size =
  t.batch_sizes.(t.batches mod window) <- size;
  t.batches <- t.batches + 1;
  if t.batches mod refresh_every = 0 then publish_percentiles t

(* The group-commit window, entered and left with [buf_lock] held:
   park until [linger_over] (the waiter that completes the set, a
   flush, a halt or [close] wakes us) or [batch_delay] has passed. *)
let linger t =
  if t.batch_delay > 0. then begin
    let deadline_ns =
      Clock.now_mono_ns () + int_of_float (t.batch_delay *. 1e9)
    in
    while (not (linger_over t)) && Clock.now_mono_ns () < deadline_ns do
      let w = Waitq.make ~counted:false () in
      t.lingerer <- Some w;
      Mutex.unlock t.buf_lock;
      Parking.park_until ~deadline_ns w;
      Mutex.lock t.buf_lock;
      t.lingerer <- None
    done
  end

(* Write one batch LSN-sorted, fsync once, publish, then wake. *)
let write_batch t batch =
  let batch = List.sort (fun (_, _, l1) (_, _, l2) -> compare l1 l2) batch in
  let max_ticket = List.fold_left (fun m (tk, _, _) -> max m tk) 0 batch in
  let image = Bytes.concat Bytes.empty (List.map (fun (_, f, _) -> f) batch) in
  Mutex.lock t.io_lock;
  let crashed =
    match Fault.check Fault.Durable_mid_fsync with
    | Some Fault.Crash ->
        (* Power fails inside the batch write: a strict byte prefix
           reaches the file, so the last frame of the prefix is
           genuinely torn.  Everything already fsynced (and hence
           acknowledged) is untouched. *)
        let cut = Bytes.length image - 1 in
        if cut > 0 then write_all t.fd image 0 cut;
        true
    | Some (Fault.Delay n) ->
        Fault.spin n;
        false
    | _ -> false
  in
  if crashed then begin
    Mutex.unlock t.io_lock;
    halt t
  end
  else begin
    write_all t.fd image 0 (Bytes.length image);
    (* Simulated device latency: spent inside the flush cycle, so
       appends arriving mid-sync wait for the next batch — the dynamic
       that makes real storage reward bigger batches. *)
    if t.fsync_delay > 0. then Unix.sleepf t.fsync_delay;
    Unix.fsync t.fd;
    Mutex.unlock t.io_lock;
    Stats.record_fsync_batch ();
    (* Publish after the fsync: a ticket is durable only once its whole
       batch is on disk.  Wake only after publishing. *)
    Atomic.set t.flushed max_ticket;
    (match Fault.check Fault.Durable_pre_wake with
    | Some Fault.Crash -> halt t
    | Some (Fault.Delay n) -> Fault.spin n
    | _ -> ());
    wake_flushed t;
    note_batch t (List.length batch)
  end

(* One flusher round: wait for work, linger, take the whole buffer,
   write it. *)
let rec flusher_loop t =
  Mutex.lock t.buf_lock;
  while t.pending = [] && (not t.stopping) && not (halted t) do
    Condition.wait t.cond t.buf_lock
  done;
  linger t;
  let batch = if halted t then [] else t.pending in
  t.pending <- [];
  t.taken <- t.next_ticket - 1;
  Mutex.unlock t.buf_lock;
  (* Empty only when stopping or halted. *)
  if batch = [] then publish_percentiles t
  else begin
    write_batch t batch;
    flusher_loop t
  end

let create ?(batch_delay = 0.) ?(fsync_delay = 0.) ~path:log_path () =
  let fd =
    Unix.openfile log_path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
  in
  let size = (Unix.fstat fd).Unix.st_size in
  if size = 0 then begin
    let h = Bytes.of_string Frame.file_header in
    write_all fd h 0 (Bytes.length h);
    Unix.fsync fd
  end
  else begin
    let h = Bytes.create Frame.file_header_len in
    let n = Unix.read fd h 0 Frame.file_header_len in
    if n < Frame.file_header_len || not (Frame.check_header h) then begin
      Unix.close fd;
      invalid_arg (Printf.sprintf "Redo_log.create: %s is not a redo log" log_path)
    end
  end;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let t =
    {
      log_path;
      batch_delay;
      fsync_delay;
      buf_lock = Mutex.create ();
      cond = Condition.create ();
      pending = [];
      next_ticket = 1;
      taken = 0;
      flush_upto = 0;
      stopping = false;
      parked = [];
      committers = 0;
      lingerer = None;
      flushed = Atomic.make 0;
      halted_flag = Atomic.make false;
      io_lock = Mutex.create ();
      fd;
      flusher = None;
      bytes_acc = Atomic.make 0;
      appends_acc = Atomic.make 0;
      batch_sizes = Array.make window 0;
      batches = 0;
    }
  in
  t.flusher <- Some (Domain.spawn (fun () -> flusher_loop t));
  t

let append t ~fmt ~lsn payload =
  if Atomic.get t.halted_flag then None
  else
    match Fault.check Fault.Durable_pre_append with
    | Some Fault.Crash ->
        halt t;
        None
    | other -> (
        (match other with Some (Fault.Delay n) -> Fault.spin n | _ -> ());
        let frame = Frame.encode { Frame.fmt; lsn; payload } in
        Mutex.lock t.buf_lock;
        if Atomic.get t.halted_flag || t.stopping then begin
          Mutex.unlock t.buf_lock;
          None
        end
        else begin
          let ticket = t.next_ticket in
          t.next_ticket <- ticket + 1;
          t.pending <- (ticket, frame, lsn) :: t.pending;
          Condition.signal t.cond;
          Mutex.unlock t.buf_lock;
          ignore (Atomic.fetch_and_add t.bytes_acc (Bytes.length frame));
          ignore (Atomic.fetch_and_add t.appends_acc 1);
          Stats.record_log_append ();
          match Fault.check Fault.Durable_post_append with
          | Some Fault.Crash ->
              (* The record is buffered but unflushed: halting drops it,
                 which is exactly the appended-but-unacknowledged loss
                 this point exists to model. *)
              halt t;
              None
          | other ->
              (match other with
              | Some (Fault.Delay n) -> Fault.spin n
              | _ -> ());
              Some ticket
        end)

let rec insert ((tk, _) as e) = function
  | ((tk', _) as e') :: rest when tk' < tk -> e' :: insert e rest
  | l -> e :: l

(* Park until [ticket] is durable, the log halts or [deadline_ns]
   (0 = none) passes; the answer is the watermark. *)
let await t ~deadline_ns ticket =
  Mutex.lock t.buf_lock;
  if
    Atomic.get t.flushed >= ticket
    || halted t
    || (deadline_ns <> 0 && Clock.now_mono_ns () >= deadline_ns)
  then Mutex.unlock t.buf_lock
  else begin
    let w = Waitq.make ~counted:false () in
    t.parked <- insert (ticket, w) t.parked;
    nudge t;
    Mutex.unlock t.buf_lock;
    Parking.park_until ~deadline_ns w;
    if deadline_ns <> 0 then begin
      (* The flusher and [halt] detach before waking; only an expiry
         leaves the entry behind. *)
      Mutex.lock t.buf_lock;
      t.parked <- List.filter (fun (_, x) -> x != w) t.parked;
      Mutex.unlock t.buf_lock
    end
  end;
  Atomic.get t.flushed >= ticket

let wait_durable ?deadline t ticket =
  enroll t;
  Atomic.get t.flushed >= ticket
  ||
  let deadline_ns =
    match deadline with None -> 0 | Some d -> int_of_float (d *. 1e9)
  in
  await t ~deadline_ns ticket

(* Not a committer wait: the caller is not enrolled, and the flusher
   skips the linger for everything up to [target]. *)
let flush t =
  Mutex.lock t.buf_lock;
  let target = t.next_ticket - 1 in
  t.flush_upto <- max t.flush_upto target;
  nudge t;
  Condition.signal t.cond;
  Mutex.unlock t.buf_lock;
  if target > 0 then ignore (await t ~deadline_ns:0 target)

let close t =
  flush t;
  Mutex.lock t.buf_lock;
  t.stopping <- true;
  Condition.broadcast t.cond;
  nudge t;
  Mutex.unlock t.buf_lock;
  (match t.flusher with
  | Some d ->
      Domain.join d;
      t.flusher <- None
  | None -> ());
  (try Unix.close t.fd with Unix.Unix_error _ -> ())

(* Scan the whole on-disk log, returning the records up to the first
   bad frame.  Compaction-private: recovery has its own scan with
   truncation and stats. *)
let scan_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create size in
  let rec fill off =
    if off < size then
      match Unix.read fd buf off (size - off) with
      | 0 -> ()
      | n -> fill (off + n)
  in
  fill 0;
  Unix.close fd;
  if not (Frame.check_header buf) then []
  else
    let rec go pos acc =
      match Frame.read buf ~pos with
      | Frame.Record (r, next) -> go next (r :: acc)
      | Frame.Torn | Frame.Eof -> List.rev acc
    in
    go Frame.file_header_len []

let mid_compaction_crash t =
  match Fault.check Fault.Durable_mid_compaction with
  | Some Fault.Crash ->
      halt t;
      true
  | Some (Fault.Delay n) ->
      Fault.spin n;
      false
  | _ -> false

let write_file_atomic ~header ~frames path =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let h = Bytes.of_string header in
  write_all fd h 0 (Bytes.length h);
  List.iter (fun f -> write_all fd f 0 (Bytes.length f)) frames;
  Unix.fsync fd;
  Unix.close fd;
  Sys.rename tmp path

let compact t ~snapshot ~upto_lsn =
  flush t;
  if not (Atomic.get t.halted_flag) then
    if not (mid_compaction_crash t) then begin
      (* Step 1: publish the snapshot.  Tmp-write + rename makes it
         atomic: recovery either sees the old snapshot or the new one,
         never a torn one.  The payload rides in an ordinary CRC frame
         whose LSN is the fold point. *)
      write_file_atomic ~header:snap_header
        ~frames:[ Frame.encode { Frame.fmt = Frame.Value; lsn = upto_lsn; payload = snapshot } ]
        (snap_path t.log_path);
      if not (mid_compaction_crash t) then begin
        (* Step 2: drop the folded prefix from the log.  A crash
           between the steps leaves the new snapshot plus the full log,
           which recovery handles by skipping records <= the snapshot
           LSN. *)
        (* The io lock covers the scan as well as the rewrite: a flusher
           batch landing between the two would be dropped by the
           rename.  Appends arriving meanwhile just buffer; the flusher
           re-reads [t.fd] under this lock, so they drain into the
           rewritten file. *)
        Mutex.lock t.io_lock;
        let keep =
          List.filter
            (fun r -> r.Frame.lsn > upto_lsn)
            (scan_file t.log_path)
        in
        (try Unix.close t.fd with Unix.Unix_error _ -> ());
        write_file_atomic ~header:Frame.file_header
          ~frames:(List.map Frame.encode keep)
          t.log_path;
        t.fd <- Unix.openfile t.log_path [ Unix.O_RDWR ] 0o644;
        ignore (Unix.lseek t.fd 0 Unix.SEEK_END);
        Mutex.unlock t.io_lock
      end
    end
