type 'a versioned = { value : 'a; version : int; prev : 'a versioned option }

type 'a t = {
  uid : int;
  fbit : int;
  state : 'a versioned Atomic.t;
  mutable chain_len : int;
      (* Length of [state]'s version chain (head included).  Written
         only by [publish], which runs under the owner lock or the
         serial commit gate; the write is ordered before the head
         install and the next publisher's read after its head load, so
         the [state] atomic carries the happens-before edge.  Keeping
         the count here makes armed publishes O(1) instead of walking
         the chain. *)
  owner : Txn_desc.t option Atomic.t;
  readers : Txn_desc.t list Atomic.t;
  waiters : Waitq.waiter list Atomic.t;
}

let next_uid = Atomic.make 1

(* One of the 62 low non-sign bits of a word, chosen by uid.  Write-set
   summary filters OR these together so a read can rule out
   read-after-write with one [land].  62 (not 63/64) keeps the shift
   below the sign bit of a 63-bit OCaml int: [1 lsl 62] is [min_int]
   (still a usable bit) but [1 lsl 63] is 0, which would make the
   filter lose writes.  Precomputed here so the read hot path never
   pays the division. *)
let filter_bit uid = 1 lsl (uid mod 62)

let make v =
  let uid = Atomic.fetch_and_add next_uid 1 in
  {
    uid;
    fbit = filter_bit uid;
    state = Atomic.make { value = v; version = 0; prev = None };
    chain_len = 1;
    owner = Atomic.make None;
    readers = Atomic.make [];
    waiters = Atomic.make [];
  }

let load t = Atomic.get t.state
let peek t = (Atomic.get t.state).value
let current_owner t = Atomic.get t.owner

(* The CAS installs the descriptor's preallocated [owner_word], so
   taking a lock allocates nothing. *)
let rec try_lock t desc =
  match Atomic.get t.owner with
  | Some d when d == desc -> `Mine
  | Some d -> `Held d
  | None ->
      if Atomic.compare_and_set t.owner None desc.Txn_desc.owner_word then
        `Locked
      else try_lock t desc

let unlock t desc =
  match Atomic.get t.owner with
  | Some d when d == desc -> Atomic.set t.owner None
  | _ -> ()

let rec chain_length = function
  | None -> 0
  | Some v -> 1 + chain_length v.prev

(* Trim a version chain (newest-first) against the active-snapshot
   floor: keep the newest [keep] entries unconditionally, keep older
   entries while their version exceeds [floor], and at the first entry
   at depth >= [keep] with version <= [floor], keep that entry as the
   boundary (a snapshot at any timestamp >= floor resolves to the
   newest entry <= its timestamp, and the boundary is exactly the
   newest entry <= floor) and drop its tail.  Returns the possibly
   rebuilt chain, the number of reclaimed entries, and whether any
   node changed — an unchanged suffix is reused, so a publish that
   reclaims nothing allocates nothing beyond the new head. *)
let rec chain_trim node depth ~keep ~floor =
  match node with
  | None -> (None, 0, false)
  | Some v ->
      if depth < keep || v.version > floor then
        let prev', dropped, changed =
          chain_trim v.prev (depth + 1) ~keep ~floor
        in
        if changed then (Some { v with prev = prev' }, dropped, true)
        else (node, dropped, false)
      else
        let dropped = chain_length v.prev in
        if dropped = 0 then (node, 0, false)
        else (Some { v with prev = None }, dropped, true)

let publish t value ~version =
  (* Chaos hook: stretch the window between individual write-backs.
     Disruptive actions are not allowed here — the owning transaction
     is already past its linearization point. *)
  Fault.delay_only Fault.Mid_write_back;
  if not (Snapshots.armed ()) then
    (* Single-version modes: the original one-store hot path, no chain. *)
    Atomic.set t.state { value; version; prev = None }
  else begin
    let head = Atomic.get t.state in
    let keep = Snapshots.max_versions () in
    (* Amortized GC: let the chain grow to 2K, then trim back to ~K+1
       in one pass.  A full chain_trim rebuilds up to [keep] nodes, so
       trimming on every publish would allocate K records per store;
       deferring it to every Kth publish keeps the steady-state cost
       at ~one extra allocation per publish while still bounding the
       chain at 2K (plus whatever an active snapshot pins).  The
       [chain_len] count (maintained here, read after the head load)
       keeps the common no-trim publish O(1). *)
    let len = t.chain_len in
    let prev, len' =
      if len < 2 * keep then (Some head, len + 1)
      else begin
        let floor = Snapshots.floor () in
        (* Chaos hook: widen the floor-read -> install window, the
           reclamation race against a registering snapshot.  A snapshot
           this scan missed registered after our clock tick, so its
           timestamp covers the head we are about to install and never
           needs the trimmed tail.  Delay-only: past linearization. *)
        Fault.delay_only Fault.Version_gc;
        Stats.note_version_chain_len (len + 1);
        let prev, dropped, _ = chain_trim (Some head) 1 ~keep ~floor in
        if dropped > 0 then Stats.add_versions_gced dropped;
        (prev, len + 1 - dropped)
      end
    in
    t.chain_len <- len';
    (* Single store installs the new head; publish runs under the
       owner lock (or the serial commit gate), so no concurrent
       publish can interleave with this read-trim-store. *)
    Atomic.set t.state { value; version; prev };
    Stats.record_version_install ()
  end

(* Newest version at or below [version], walking the history chain
   from the head.  [None] means the history was already reclaimed
   below [version] — unreachable for a snapshot registered before it
   sampled its timestamp (see Snapshots), but surfaced as a conflict
   rather than an assertion so a protocol bug fails loudly. *)
let read_at t ~version =
  let rec go = function
    | None -> None
    | Some v -> if v.version <= version then Some v else go v.prev
  in
  go (Some (Atomic.get t.state))

let version_chain_len t = chain_length (Some (Atomic.get t.state))

(* Visible readers: CAS-push, pruning dead entries once the list grows
   past a small threshold.  Losing a prune race only leaves extra dead
   entries, which writers skip; a registration CAS failure retries. *)
let max_unpruned = 8

let rec register_reader t desc =
  let cur = Atomic.get t.readers in
  if List.memq desc cur then ()
  else
    let live =
      if List.length cur >= max_unpruned then
        List.filter Txn_desc.is_active cur
      else cur
    in
    if not (Atomic.compare_and_set t.readers cur (desc :: live)) then
      register_reader t desc

let active_readers t ~except =
  List.filter
    (fun d -> d != except && Txn_desc.is_active d)
    (Atomic.get t.readers)

(* Wait lists: CAS-push like the visible readers, pruning entries that
   already left [Waiting] (woken via another watched tvar, cancelled,
   expired) once the list grows past the same threshold.  Returns the
   new list length so registration can feed the wait-list high-water
   gauge. *)
let rec add_waiter t w =
  let cur = Atomic.get t.waiters in
  let live =
    if List.length cur >= max_unpruned then List.filter Waitq.is_waiting cur
    else cur
  in
  if Atomic.compare_and_set t.waiters cur (w :: live) then 1 + List.length live
  else add_waiter t w

(* Explicit deregistration keeps the lists orphan-free: a waiter that
   leaves (woken, cancelled or expired) removes itself from every list
   it joined.  Losing the race against a committer's [take_waiters]
   exchange just means the entry is already gone. *)
let rec remove_waiter t w =
  let cur = Atomic.get t.waiters in
  if List.memq w cur then begin
    let next = List.filter (fun x -> x != w) cur in
    if not (Atomic.compare_and_set t.waiters cur next) then remove_waiter t w
  end

(* Committer side: detach the whole list in one exchange.  The caller
   must have published the new version first — any waiter that misses
   this scan registered after the exchange, hence after the publish,
   and its post-registration revalidation sees the new version and
   self-cancels instead of parking (the no-lost-wakeup argument; see
   Parking). *)
let take_waiters t =
  if Atomic.get t.waiters == [] then [] else Atomic.exchange t.waiters []

let waiter_count t = List.length (Atomic.get t.waiters)
