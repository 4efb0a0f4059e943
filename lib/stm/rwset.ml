(* Log-structured transaction read/write/local sets.

   All three logs use the same uniform-representation trick the old
   Hashtbl-of-existentials used: entries erase their value type to
   [Obj.t] (reads/writes) or [exn] (locals), and the original type is
   re-established by the caller under the uid-uniqueness argument —
   equal tvar uid implies physically the same tvar, hence the same type
   parameter.  [unit Tvar.t] is the uniform *view* of a tvar whose
   value type has been erased; only type-agnostic fields (uid, version,
   owner) are touched through it.

   Representation hazard: an [Obj.t array] must never be created from a
   float initializer, or the runtime builds a flat [Double_array] and
   subsequent non-float stores corrupt it.  Every array below is
   created with [dummy] (an immediate int), so the arrays are ordinary
   boxed arrays and the generic (tag-dispatching) access primitives
   handle any later element, boxed floats included. *)

let dummy : Obj.t = Obj.repr 0

(* A tvar with its value type forgotten. *)
type packed_tvar = unit Tvar.t

let pack (type a) (tv : a Tvar.t) : packed_tvar = Obj.magic tv

(* ------------------------------------------------------------------ *)
(* Read log                                                             *)

(* Append-only chunked log of (tvar, observed version) pairs.
   Validation walks flat arrays chunk by chunk — no Hashtbl.fold, no
   iteration allocation.  Duplicate entries for the same tvar are
   permitted: a duplicate only makes validation stricter (each recorded
   version is checked), and the TL2 snapshot check in the read path
   ([version > rv] aborts or extends) already rejects the only schedule
   where two reads of one tvar could disagree.  Chunking keeps growth
   O(chunk) — the directory doubles, full chunks are never copied. *)
module Rlog = struct
  let chunk_bits = 8
  let chunk_size = 1 lsl chunk_bits
  let chunk_mask = chunk_size - 1

  type t = {
    mutable tvs : Obj.t array array;
    mutable vers : int array array;
    mutable len : int;
  }

  let create () = { tvs = [||]; vers = [||]; len = 0 }
  let size t = t.len

  let grow_dir t =
    let n = Array.length t.tvs in
    let n' = if n = 0 then 4 else 2 * n in
    let tvs = Array.make n' [||] and vers = Array.make n' [||] in
    Array.blit t.tvs 0 tvs 0 n;
    Array.blit t.vers 0 vers 0 n;
    t.tvs <- tvs;
    t.vers <- vers

  let push (type a) t (tv : a Tvar.t) ver =
    let i = t.len in
    let c = i lsr chunk_bits in
    if c >= Array.length t.tvs then grow_dir t;
    if Array.length (Array.unsafe_get t.tvs c) = 0 then begin
      Array.unsafe_set t.tvs c (Array.make chunk_size dummy);
      Array.unsafe_set t.vers c (Array.make chunk_size 0)
    end;
    let s = i land chunk_mask in
    Array.unsafe_set (Array.unsafe_get t.tvs c) s (Obj.repr tv);
    Array.unsafe_set (Array.unsafe_get t.vers c) s ver;
    t.len <- i + 1

  let iter t f =
    let i = ref 0 and c = ref 0 in
    while !i < t.len do
      let tvs = Array.unsafe_get t.tvs !c
      and vers = Array.unsafe_get t.vers !c in
      let stop = min chunk_size (t.len - !i) in
      for s = 0 to stop - 1 do
        f
          (Obj.obj (Array.unsafe_get tvs s) : packed_tvar)
          (Array.unsafe_get vers s)
      done;
      i := !i + stop;
      incr c
    done

  (* An entry is valid when the tvar still carries the recorded version
     and is not locked by anyone else (a foreign owner may be halfway
     through publishing). *)
  let validate t ~(owner : Txn_desc.t) =
    let ok = ref true in
    (try
       iter t (fun tv ver ->
           if (Tvar.load tv).Tvar.version <> ver then raise_notrace Exit;
           match Tvar.current_owner tv with
           | None -> ()
           | Some d -> if d != owner then raise_notrace Exit)
     with Exit -> ok := false);
    !ok

  (* Scrub the tvar pointers so a pooled log does not keep dead tvars
     (and whatever they reference) reachable across transactions. *)
  let clear t =
    let i = ref 0 and c = ref 0 in
    while !i < t.len do
      let tvs = Array.unsafe_get t.tvs !c in
      let stop = min chunk_size (t.len - !i) in
      Array.fill tvs 0 stop dummy;
      i := !i + stop;
      incr c
    done;
    t.len <- 0
end

(* ------------------------------------------------------------------ *)
(* Write log                                                            *)

(* Adaptive last-wins write set.  Entries live in parallel append-only
   arrays; lookup is a 62-bit summary filter (almost always rules the
   uid out in one [land]), then a backward linear scan while the set is
   small, escalating to an open-addressing uid index past
   [small_limit].

   The index is a flat [int array] of entry positions plus one (0 marks
   an empty cell), probed linearly from a Fibonacci hash of the uid and
   kept at most half full.  It maps each uid to its newest entry, so an
   insert over a present uid overwrites the cell.  Nothing is ever
   deleted from it: [truncate] rebuilds it and [clear] empties it, and
   a pooled log's index shrinks back to [index_cap] on [clear] so one
   large transaction does not pin a large table for the life of the
   domain.

   or_else watermarks: [floor] marks the innermost open alternative.  A
   write to a tvar already present at index ≥ floor updates in place
   (so hot tvars do not grow the log); a write to one recorded below
   the floor appends a shadowing entry instead, because truncating back
   to the watermark must restore the pre-branch value exactly.  The
   newest entry for a uid always wins ([find_idx] scans backward; the
   index tracks the newest). *)
module Wlog = struct
  let small_limit = 12
  let initial_cap = 16

  (* Power of two, and at least twice [small_limit] so an index built
     at the threshold never grows straight away. *)
  let index_cap = 64
  let golden = 0x9E3779B97F4A7C1

  type t = {
    mutable uids : int array;
    mutable fbits : int array;
    mutable tvs : Obj.t array;
    mutable vals : Obj.t array;
    mutable len : int;
    mutable summary : int;
    mutable floor : int;
    mutable indexed : bool;
    mutable index : int array;
    mutable index_shift : int;  (* 63 - log2 (Array.length index) *)
    mutable index_used : int;  (* occupied cells *)
    (* Commit plan: indices of the winning (newest-per-uid) entries in
       ascending uid order, reused across commits of a pooled txn. *)
    mutable plan : int array;
    mutable plan_len : int;
  }

  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

  let create () =
    {
      uids = Array.make initial_cap 0;
      fbits = Array.make initial_cap 0;
      tvs = Array.make initial_cap dummy;
      vals = Array.make initial_cap dummy;
      len = 0;
      summary = 0;
      floor = 0;
      indexed = false;
      index = Array.make index_cap 0;
      index_shift = 63 - log2 index_cap;
      index_used = 0;
      plan = Array.make initial_cap 0;
      plan_len = 0;
    }

  let size t = t.len
  let is_empty t = t.len = 0
  let index_capacity t = Array.length t.index

  (* Home cell of [uid]: the top bits of its Fibonacci product, so
     uids that differ only in high bits (tvars allocated in strided
     batches) still spread. *)
  let home t uid = (uid * golden) lsr t.index_shift

  (* Top-level recursions with explicit arguments: a local closure over
     [t] and [uid] would allocate on every probe. *)
  let rec probe index uids mask uid h =
    let e = Array.unsafe_get index h in
    if e = 0 then -1
    else if Array.unsafe_get uids (e - 1) = uid then e - 1
    else probe index uids mask uid ((h + 1) land mask)

  (* Point [uid]'s cell at entry [n]; [true] if the cell was empty. *)
  let rec place index uids mask uid n h =
    let e = Array.unsafe_get index h in
    if e = 0 then begin
      Array.unsafe_set index h (n + 1);
      true
    end
    else if Array.unsafe_get uids (e - 1) = uid then begin
      Array.unsafe_set index h (n + 1);
      false
    end
    else place index uids mask uid n ((h + 1) land mask)

  let index_entry t n =
    let uid = Array.unsafe_get t.uids n in
    let index = t.index in
    if place index t.uids (Array.length index - 1) uid n (home t uid) then
      t.index_used <- t.index_used + 1

  (* (Re)build the index over every entry, oldest first so the newest
     entry per uid wins.  Sized for [len] distinct uids at half load. *)
  let build_index t =
    let need = 2 * t.len in
    if Array.length t.index >= need then
      Array.fill t.index 0 (Array.length t.index) 0
    else begin
      let cap = ref index_cap in
      while !cap < need do
        cap := 2 * !cap
      done;
      t.index <- Array.make !cap 0;
      t.index_shift <- 63 - log2 !cap
    end;
    t.index_used <- 0;
    for n = 0 to t.len - 1 do
      index_entry t n
    done;
    t.indexed <- true

  (* Forget the index, dropping a grown table back to [index_cap]. *)
  let drop_index t =
    if Array.length t.index > index_cap then begin
      t.index <- Array.make index_cap 0;
      t.index_shift <- 63 - log2 index_cap
    end
    else Array.fill t.index 0 (Array.length t.index) 0;
    t.index_used <- 0;
    t.indexed <- false

  (* Index of the newest entry for [tv], or -1.  The summary filter
     makes the common miss (reading a tvar never written) one load and
     one [land]. *)
  let find_idx (type a) t (tv : a Tvar.t) =
    if t.summary land tv.Tvar.fbit = 0 then -1
    else if t.indexed then
      let uid = tv.Tvar.uid in
      probe t.index t.uids (Array.length t.index - 1) uid (home t uid)
    else begin
      let uid = tv.Tvar.uid in
      let i = ref (t.len - 1) in
      while !i >= 0 && Array.unsafe_get t.uids !i <> uid do
        decr i
      done;
      !i
    end

  (* Sound for the same reason the packed existential was: the entry at
     [i] was stored through a tvar with this uid, and uid determines
     the value type. *)
  let value (type a) t i : a = Obj.magic (Array.unsafe_get t.vals i)

  let grow t =
    let cap = 2 * Array.length t.uids in
    let resize_int a = Array.append a (Array.make (cap - Array.length a) 0) in
    let resize_obj a =
      Array.append a (Array.make (cap - Array.length a) dummy)
    in
    t.uids <- resize_int t.uids;
    t.fbits <- resize_int t.fbits;
    t.tvs <- resize_obj t.tvs;
    t.vals <- resize_obj t.vals

  let write (type a) t (tv : a Tvar.t) (v : a) =
    let i = find_idx t tv in
    if i >= t.floor then Array.unsafe_set t.vals i (Obj.repr v)
    else begin
      let n = t.len in
      if n = Array.length t.uids then grow t;
      Array.unsafe_set t.uids n tv.Tvar.uid;
      Array.unsafe_set t.fbits n tv.Tvar.fbit;
      Array.unsafe_set t.tvs n (Obj.repr tv);
      Array.unsafe_set t.vals n (Obj.repr v);
      t.len <- n + 1;
      t.summary <- t.summary lor tv.Tvar.fbit;
      if t.indexed then
        if 2 * (t.index_used + 1) > Array.length t.index then build_index t
        else index_entry t n
      else if n + 1 > small_limit then build_index t
    end

  (* --- or_else watermarks ------------------------------------------ *)

  let mark t = t.len
  let floor t = t.floor
  let set_floor t f = t.floor <- f

  let truncate t mark =
    if mark < t.len then begin
      for i = mark to t.len - 1 do
        Array.unsafe_set t.tvs i dummy;
        Array.unsafe_set t.vals i dummy;
        Array.unsafe_set t.uids i 0;
        Array.unsafe_set t.fbits i 0
      done;
      t.len <- mark;
      let s = ref 0 in
      for i = 0 to mark - 1 do
        s := !s lor Array.unsafe_get t.fbits i
      done;
      t.summary <- !s;
      if t.indexed then
        if t.len > small_limit then build_index t else drop_index t
    end

  (* --- commit plan -------------------------------------------------- *)

  (* Winning entries (newest per uid) sorted by uid, so commit-time
     locking has a canonical global order.  Shell sort keeps it in
     place and allocation-free; write sets are small in the common
     case and nearly sorted when tvars were written in creation order. *)
  let sort_plan t =
    let a = t.plan and uids = t.uids in
    let m = t.plan_len in
    let gap = ref 1 in
    while !gap < m / 3 do
      gap := (3 * !gap) + 1
    done;
    while !gap >= 1 do
      for i = !gap to m - 1 do
        let v = Array.unsafe_get a i in
        let kv = Array.unsafe_get uids v in
        let j = ref i in
        while
          !j >= !gap
          && Array.unsafe_get uids (Array.unsafe_get a (!j - !gap)) > kv
        do
          Array.unsafe_set a !j (Array.unsafe_get a (!j - !gap));
          j := !j - !gap
        done;
        Array.unsafe_set a !j v
      done;
      gap := !gap / 3
    done

  let build_plan t =
    if Array.length t.plan < t.len then t.plan <- Array.make (Array.length t.uids) 0;
    let m = ref 0 in
    for i = 0 to t.len - 1 do
      (* Keep [i] iff it is the newest entry for its uid. *)
      if find_idx t (Obj.obj (Array.unsafe_get t.tvs i) : packed_tvar) = i
      then begin
        Array.unsafe_set t.plan !m i;
        incr m
      end
    done;
    t.plan_len <- !m;
    sort_plan t

  let plan_iter_tv t f =
    for i = 0 to t.plan_len - 1 do
      f (Obj.obj (Array.unsafe_get t.tvs (Array.unsafe_get t.plan i)) : packed_tvar)
    done

  let publish_plan t ~version =
    for i = 0 to t.plan_len - 1 do
      let e = Array.unsafe_get t.plan i in
      (* The packed view has type [unit Tvar.t]; re-type it to match
         the erased value so [publish] stores the right word. *)
      let tv : Obj.t Tvar.t = Obj.magic (Array.unsafe_get t.tvs e) in
      Tvar.publish tv (Array.unsafe_get t.vals e) ~version
    done

  (* All entries, shadowed ones included (leak audit checks each). *)
  let iter_tvs t f =
    for i = 0 to t.len - 1 do
      f
        (Array.unsafe_get t.uids i)
        (Obj.obj (Array.unsafe_get t.tvs i) : packed_tvar)
    done

  let clear t =
    Array.fill t.tvs 0 t.len dummy;
    Array.fill t.vals 0 t.len dummy;
    Array.fill t.uids 0 t.len 0;
    Array.fill t.fbits 0 t.len 0;
    t.len <- 0;
    t.summary <- 0;
    t.floor <- 0;
    t.plan_len <- 0;
    if t.indexed then drop_index t
end

(* ------------------------------------------------------------------ *)
(* Transaction-local log                                                *)

(* Locals use the [exn] packing the old Hashtbl did (each key carries
   its own injection/projection constructor).  Same last-wins /
   watermark discipline as the write log, without the summary filter —
   locals are few and cold. *)
module Llog = struct
  let initial_cap = 8
  let no_value : exn = Not_found

  type t = {
    mutable kuids : int array;
    mutable vals : exn array;
    mutable len : int;
    mutable floor : int;
  }

  let create () =
    {
      kuids = Array.make initial_cap 0;
      vals = Array.make initial_cap no_value;
      len = 0;
      floor = 0;
    }

  let size t = t.len

  let find_idx t kuid =
    let i = ref (t.len - 1) in
    while !i >= 0 && Array.unsafe_get t.kuids !i <> kuid do
      decr i
    done;
    !i

  let value t i = Array.unsafe_get t.vals i

  let grow t =
    let cap = 2 * Array.length t.kuids in
    t.kuids <- Array.append t.kuids (Array.make (cap - Array.length t.kuids) 0);
    t.vals <-
      Array.append t.vals (Array.make (cap - Array.length t.vals) no_value)

  let set t kuid v =
    let i = find_idx t kuid in
    if i >= t.floor then Array.unsafe_set t.vals i v
    else begin
      let n = t.len in
      if n = Array.length t.kuids then grow t;
      Array.unsafe_set t.kuids n kuid;
      Array.unsafe_set t.vals n v;
      t.len <- n + 1
    end

  let mark t = t.len
  let floor t = t.floor
  let set_floor t f = t.floor <- f

  let truncate t mark =
    if mark < t.len then begin
      for i = mark to t.len - 1 do
        Array.unsafe_set t.kuids i 0;
        Array.unsafe_set t.vals i no_value
      done;
      t.len <- mark
    end

  let clear t =
    Array.fill t.kuids 0 t.len 0;
    Array.fill t.vals 0 t.len no_value;
    t.len <- 0;
    t.floor <- 0
end
