(** Eager Proustian hash map: {!Proust_concurrent.Chashmap} wrapped by
    the generic eager construction (Figure 2a over ConcurrentHashMap). *)

type ('k, 'v) t = {
  backing : ('k, 'v) Proust_concurrent.Chashmap.t;
  wrapper : ('k, 'v) Eager_map.t;
}

let base_of backing =
  {
    Eager_map.bget = Proust_concurrent.Chashmap.get backing;
    bput = Proust_concurrent.Chashmap.put backing;
    bremove = Proust_concurrent.Chashmap.remove backing;
    bcontains = Proust_concurrent.Chashmap.contains backing;
  }

let make ?(slots = 1024) ?(lap = Trait.Optimistic) ?size_mode () =
  let backing = Proust_concurrent.Chashmap.create () in
  let ca = Conflict_abstraction.striped ~slots () in
  let lap = Trait.make_lap lap ~ca in
  {
    backing;
    wrapper =
      Eager_map.make ~base:(base_of backing) ~lap ?size_mode ~name:"p-hashmap" ();
  }

let get t = Eager_map.get t.wrapper
let put t = Eager_map.put t.wrapper
let remove t = Eager_map.remove t.wrapper
let contains t = Eager_map.contains t.wrapper
let size t = Eager_map.size t.wrapper
let committed_size t = Eager_map.committed_size t.wrapper
let ops t = Eager_map.ops t.wrapper

(** The raw backing map, for tests that inspect committed state. *)
let backing t = t.backing
