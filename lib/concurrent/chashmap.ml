(* Each stripe is one open-addressed array with its bindings inline:

     [| k0; v0; k1; v1; ...; k(cap-1); v(cap-1) |]

   The capacity [cap] is a power of two.  A key's home slot is the low
   bits of [Hashtbl.hash k]; probing is linear, wrapping past the end.
   An empty slot holds [empty] as both key and value, so a removed
   value is not kept alive.  Inserts follow Robin Hood hashing, so a
   run stays sorted by home slot and no binding sits much further from
   home than the rest.  [remove] shifts the rest of the run back over
   the hole, so no tombstones are left and every key stays reachable
   from its home slot without crossing an empty slot.  The array
   doubles before an insert would take it past 4/5 full, so there is
   always an empty slot to end a probe, and halves when a removal
   leaves it under 1/4 full, down to [initial_capacity].

   Float hazard (see [Rwset]): an [Obj.t array] made from a float
   initializer is a flat float array.  Every stripe array is made by
   [Array.make] from [empty], a block that is not a float, so none is. *)

type ('k, 'v) stripe = {
  m : Mutex.t;
  mutable slots : Obj.t array;
  mutable used : int;  (** occupied slots *)
  count : Striped_counter.t;  (** the map's counter, shared by every stripe *)
}

type ('k, 'v) t = {
  stripes : ('k, 'v) stripe array;
  shift : int;
  count : Striped_counter.t;
}

(* Unique and never handed out, so no key is physically equal to it. *)
let empty : Obj.t = Obj.repr (ref ())

(* A resize rehashes every binding of the stripe, so a map filled to a
   few hundred keys would pay mostly for resizes; 32 slots take 25
   bindings before the first, so 32 stripes hold about 800 evenly
   spread keys without one. *)
let initial_capacity = 32

let fresh_slots cap = Array.make (2 * cap) empty
let mask_of a = (Array.length a lsr 1) - 1
let key a i = Array.unsafe_get a (2 * i)
let raw_value a i = Array.unsafe_get a ((2 * i) + 1)
let value a i = Obj.obj (raw_value a i)
let set_value a i v = Array.unsafe_set a ((2 * i) + 1) (Obj.repr v)

let set a i k v =
  Array.unsafe_set a (2 * i) k;
  Array.unsafe_set a ((2 * i) + 1) v

(* [compare]-based equality, as Stdlib [Hashtbl] uses; two distinct
   immediates are never equal, so ints skip the C call. *)
let same (k : Obj.t) (s : Obj.t) =
  k == s || ((Obj.is_block k || Obj.is_block s) && compare k s = 0)

let rec log2_ceil n b = if 1 lsl b >= n then b else log2_ceil n (b + 1)

let create ?(stripes = 32) () =
  let bits = log2_ceil stripes 0 in
  let count = Striped_counter.create () in
  {
    stripes =
      Array.init (1 lsl bits) (fun _ ->
          {
            m = Mutex.create ();
            slots = fresh_slots initial_capacity;
            used = 0;
            count;
          });
    shift = 32 - bits;
    count;
  }

(* [k]'s slot in [a] searching from slot [i], or -1 at the empty slot
   that ends its probe run. *)
let rec probe a mask k i =
  let s = key a i in
  if s == empty then -1
  else if same k s then i
  else probe a mask k ((i + 1) land mask)

let find a h k =
  let mask = mask_of a in
  probe a mask (Obj.repr k) (h land mask)

let rec free_slot a mask i =
  if key a i == empty then i else free_slot a mask ((i + 1) land mask)

(* The Robin Hood slot of a key with home [i], at distance [d] from it:
   the first slot whose resident sits nearer its own home than the key
   would, or the empty slot [stop] that ends the run.  Each run so
   stays sorted by home slot, which keeps the longest probe short. *)
let rec slot_for a mask i d stop =
  if i = stop || (i - Hashtbl.hash (key a i)) land mask < d then i
  else slot_for a mask ((i + 1) land mask) (d + 1) stop

(* Move the bindings in slots [p, j) one slot on. *)
let rec shift_on a mask p j =
  if j <> p then begin
    let i = (j - 1) land mask in
    set a j (key a i) (raw_value a i);
    shift_on a mask p i
  end

(* Bind [k], absent from [a] and with hash [h], in its Robin Hood slot. *)
let place a h k v =
  let mask = mask_of a in
  let home = h land mask in
  let stop = free_slot a mask home in
  let p = slot_for a mask home 0 stop in
  shift_on a mask p stop;
  set a p k v

let resize s cap =
  let old = s.slots in
  let a = fresh_slots cap in
  for i = 0 to mask_of old do
    let k = key old i in
    if k != empty then place a (Hashtbl.hash k) k (raw_value old i)
  done;
  s.slots <- a

(* Bind absent [k], doubling the array first if the insert would take
   it past 4/5 full.  A stripe then sits between 2/5 and 4/5 load, and
   at 100k int keys over 32 stripes (~3,125 keys each, 4,096 slots)
   spends about 2.6 words per binding; a 3/4 limit would put such a
   stripe in 8,192 slots. *)
let insert s h k v =
  let cap = mask_of s.slots + 1 in
  if 5 * (s.used + 1) > 4 * cap then resize s (2 * cap);
  place s.slots h (Obj.repr k) (Obj.repr v);
  s.used <- s.used + 1;
  Striped_counter.incr s.count

(* Shift the run after [hole] back over it, up to an entry already in
   its home slot, and empty the slot that leaves free. *)
let rec shift_back a mask hole j =
  let k = key a j in
  if k == empty || (j - Hashtbl.hash k) land mask = 0 then
    set a hole empty empty
  else begin
    set a hole k (raw_value a j);
    shift_back a mask j ((j + 1) land mask)
  end

(* Empty slot [i], and halve the array if that leaves it under 1/4
   full: a stripe that once grew does not keep its peak size, and the
   gap to the 4/5 limit keeps churn around one size from resizing back
   and forth. *)
let delete s i =
  let a = s.slots in
  let mask = mask_of a in
  shift_back a mask i ((i + 1) land mask);
  s.used <- s.used - 1;
  Striped_counter.decr s.count;
  let cap = mask + 1 in
  if cap > initial_capacity && 4 * s.used < cap then resize s (cap / 2)

(* The stripe is the top [bits] bits of a 32-bit Fibonacci hash of the
   key's hash, not its low bits: each stripe takes a key's home slot
   from [Hashtbl.hash k]'s low bits, and a stripe chosen by those same
   bits would leave all its keys sharing them, so only one home slot
   in [stripes] would ever be used.

   [f s h k x] runs under [k]'s stripe lock, with [h] the key's hash.
   Per-key operations pass closed functions and their arguments rather
   than a closure, and the lock is released inline rather than by
   [Mutex.protect], so the hot path allocates no closure. *)
let with_stripe t k f x =
  let h = Hashtbl.hash k in
  let s = t.stripes.(((h * 0x9E3779B1) land 0xFFFF_FFFF) lsr t.shift) in
  Mutex.lock s.m;
  match f s h k x with
  | r ->
      Mutex.unlock s.m;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.unlock s.m;
      Printexc.raise_with_backtrace e bt

let get t k =
  with_stripe t k
    (fun s h k () ->
      let i = find s.slots h k in
      if i < 0 then None else Some (value s.slots i))
    ()

let contains t k = with_stripe t k (fun s h k () -> find s.slots h k >= 0) ()

let put t k v =
  with_stripe t k
    (fun s h k v ->
      let i = find s.slots h k in
      if i < 0 then begin
        insert s h k v;
        None
      end
      else
        let old = value s.slots i in
        set_value s.slots i v;
        Some old)
    v

let put_if_absent t k v =
  with_stripe t k
    (fun s h k v ->
      let i = find s.slots h k in
      if i < 0 then begin
        insert s h k v;
        None
      end
      else Some (value s.slots i))
    v

let remove t k =
  with_stripe t k
    (fun s h k () ->
      let i = find s.slots h k in
      if i < 0 then None
      else
        let old = value s.slots i in
        delete s i;
        Some old)
    ()

let compute t k f =
  with_stripe t k
    (fun s h k f ->
      let i = find s.slots h k in
      let old = if i < 0 then None else Some (value s.slots i) in
      (match f old with
      | Some v when i < 0 -> insert s h k v
      | Some v -> set_value s.slots i v
      | None -> if i >= 0 then delete s i);
      old)
    f

let size t = Striped_counter.get t.count
let is_empty t = size t = 0

let iter f t =
  Array.iter
    (fun s ->
      Mutex.protect s.m (fun () ->
          let a = s.slots in
          for i = 0 to mask_of a do
            let k = key a i in
            if k != empty then f (Obj.obj k) (value a i)
          done))
    t.stripes

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let clear t =
  Array.iter
    (fun s ->
      Mutex.protect s.m (fun () ->
          Striped_counter.add t.count (-s.used);
          s.slots <- fresh_slots initial_capacity;
          s.used <- 0))
    t.stripes

let bindings t = fold (fun k v acc -> (k, v) :: acc) t []

let max_probe_length t =
  Array.fold_left
    (fun acc s ->
      Mutex.protect s.m (fun () ->
          let a = s.slots in
          let mask = mask_of a in
          let longest = ref acc in
          for i = 0 to mask do
            let k = key a i in
            if k != empty then
              longest := max !longest ((i - Hashtbl.hash k) land mask)
          done;
          !longest))
    0 t.stripes
