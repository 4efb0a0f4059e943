type ('k, 'v) stripe = {
  m : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
  count : Striped_counter.t;  (** the map's counter, shared by every stripe *)
}

type ('k, 'v) t = {
  stripes : ('k, 'v) stripe array;
  shift : int;
  count : Striped_counter.t;
}

let rec log2_ceil n b = if 1 lsl b >= n then b else log2_ceil n (b + 1)

let create ?(stripes = 32) () =
  let bits = log2_ceil stripes 0 in
  let count = Striped_counter.create () in
  {
    stripes =
      Array.init (1 lsl bits) (fun _ ->
          { m = Mutex.create (); tbl = Hashtbl.create 16; count });
    shift = 32 - bits;
    count;
  }

(* The stripe is the top [bits] bits of a 32-bit Fibonacci hash of the
   key's hash, not its low bits: each stripe's [Hashtbl] picks its bucket
   from [Hashtbl.hash k]'s low bits, and a stripe chosen by those same
   bits would leave all its keys sharing them, so only one bucket in
   [stripes] would ever be used. *)
let stripe_of t k =
  t.stripes.(((Hashtbl.hash k * 0x9E3779B1) land 0xFFFF_FFFF) lsr t.shift)

(* [f s k x] runs under [k]'s stripe lock.  Per-key operations pass
   closed functions and their arguments rather than a closure, and the
   lock is released inline rather than by [Mutex.protect], so the hot
   path allocates no closure. *)
let with_stripe t k f x =
  let s = stripe_of t k in
  Mutex.lock s.m;
  match f s k x with
  | r ->
      Mutex.unlock s.m;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.unlock s.m;
      Printexc.raise_with_backtrace e bt

let get t k = with_stripe t k (fun s k () -> Hashtbl.find_opt s.tbl k) ()
let contains t k = with_stripe t k (fun s k () -> Hashtbl.mem s.tbl k) ()

let put t k v =
  with_stripe t k
    (fun s k v ->
      let old = Hashtbl.find_opt s.tbl k in
      Hashtbl.replace s.tbl k v;
      if old = None then Striped_counter.incr s.count;
      old)
    v

let put_if_absent t k v =
  with_stripe t k
    (fun s k v ->
      match Hashtbl.find_opt s.tbl k with
      | Some _ as old -> old
      | None ->
          Hashtbl.replace s.tbl k v;
          Striped_counter.incr s.count;
          None)
    v

let remove t k =
  with_stripe t k
    (fun s k () ->
      let old = Hashtbl.find_opt s.tbl k in
      if old <> None then begin
        Hashtbl.remove s.tbl k;
        Striped_counter.decr s.count
      end;
      old)
    ()

let compute t k f =
  with_stripe t k
    (fun s k f ->
      let old = Hashtbl.find_opt s.tbl k in
      (match f old with
      | Some v ->
          Hashtbl.replace s.tbl k v;
          if old = None then Striped_counter.incr s.count
      | None ->
          if old <> None then begin
            Hashtbl.remove s.tbl k;
            Striped_counter.decr s.count
          end);
      old)
    f

let size t = Striped_counter.get t.count
let is_empty t = size t = 0

let iter f t =
  Array.iter
    (fun s -> Mutex.protect s.m (fun () -> Hashtbl.iter f s.tbl))
    t.stripes

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let clear t =
  Array.iter
    (fun s ->
      Mutex.protect s.m (fun () ->
          Striped_counter.add t.count (-Hashtbl.length s.tbl);
          Hashtbl.reset s.tbl))
    t.stripes

let bindings t = fold (fun k v acc -> (k, v) :: acc) t []

let max_bucket_length t =
  Array.fold_left
    (fun acc s ->
      Mutex.protect s.m (fun () ->
          max acc (Hashtbl.stats s.tbl).max_bucket_length))
    0 t.stripes
