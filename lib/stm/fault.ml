type point =
  | Pre_commit
  | Post_lock_acquire
  | Mid_write_back
  | Pre_validate
  | Abstract_lock_acquire
  | Replay_apply
  | Durable_pre_append
  | Durable_post_append
  | Durable_mid_fsync
  | Durable_mid_compaction
  | Durable_pre_wake
  | Pre_park
  | Post_unpark
  | Commit_wake
  | Version_gc
  | Combine_handoff

let point_name = function
  | Pre_commit -> "pre-commit"
  | Post_lock_acquire -> "post-lock-acquire"
  | Mid_write_back -> "mid-write-back"
  | Pre_validate -> "pre-validate"
  | Abstract_lock_acquire -> "abstract-lock-acquire"
  | Replay_apply -> "replay-apply"
  | Durable_pre_append -> "durable-pre-append"
  | Durable_post_append -> "durable-post-append"
  | Durable_mid_fsync -> "durable-mid-fsync"
  | Durable_mid_compaction -> "durable-mid-compaction"
  | Durable_pre_wake -> "durable-pre-wake"
  | Pre_park -> "pre-park"
  | Post_unpark -> "post-unpark"
  | Commit_wake -> "commit-wake"
  | Version_gc -> "version-gc"
  | Combine_handoff -> "combine-handoff"

let all_points =
  [
    Pre_commit;
    Post_lock_acquire;
    Mid_write_back;
    Pre_validate;
    Abstract_lock_acquire;
    Replay_apply;
    Durable_pre_append;
    Durable_post_append;
    Durable_mid_fsync;
    Durable_mid_compaction;
    Durable_pre_wake;
    Pre_park;
    Post_unpark;
    Commit_wake;
    Version_gc;
    Combine_handoff;
  ]

let point_index = function
  | Pre_commit -> 0
  | Post_lock_acquire -> 1
  | Mid_write_back -> 2
  | Pre_validate -> 3
  | Abstract_lock_acquire -> 4
  | Replay_apply -> 5
  | Durable_pre_append -> 6
  | Durable_post_append -> 7
  | Durable_mid_fsync -> 8
  | Durable_mid_compaction -> 9
  | Pre_park -> 10
  | Post_unpark -> 11
  | Commit_wake -> 12
  | Version_gc -> 13
  | Combine_handoff -> 14
  | Durable_pre_wake -> 15

let n_points = 16

type action = Delay of int | Abort | Kill | Wedge | Crash
type site = { prob : float; actions : action list }

type policy = {
  generation : int;
  seed : int;
  sites : site option array;  (* indexed by point_index *)
}

let no_policy = { generation = 0; seed = 0; sites = Array.make n_points None }

(* [on] is the disabled-mode fast path: one atomic load per injection
   point.  [policy] only changes under [configure]/[disable]. *)
let on = Atomic.make false
let policy = Atomic.make no_policy

let configure ?(seed = 0xfa017) sites =
  let arr = Array.make n_points None in
  List.iter (fun (p, s) -> arr.(point_index p) <- Some s) sites;
  let prev = Atomic.get policy in
  Atomic.set policy { generation = prev.generation + 1; seed; sites = arr };
  Atomic.set on true

let uniform ?seed ?(prob = 0.05) ?(actions = [ Delay 200; Abort; Kill ]) points =
  configure ?seed (List.map (fun p -> (p, { prob; actions })) points)

let disable () = Atomic.set on false
let enabled () = Atomic.get on

(* Per-domain PRNG, re-derived whenever the policy generation moves so
   a reconfiguration restarts every domain's schedule from the seed. *)
let dls_rng : (int * Random.State.t) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (0, Random.State.make [| 0 |]))

let domain_rng (p : policy) =
  let cell = Domain.DLS.get dls_rng in
  let gen, st = !cell in
  if gen = p.generation then st
  else begin
    let st =
      Random.State.make [| p.seed; (Domain.self () :> int); 0x9e3779b9 |]
    in
    cell := (p.generation, st);
    st
  end

let spin n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

let check point =
  if not (Atomic.get on) then None
  else
    let p = Atomic.get policy in
    match p.sites.(point_index point) with
    | None -> None
    | Some { prob; actions } -> (
        let rng = domain_rng p in
        if Random.State.float rng 1.0 >= prob || actions = [] then None
        else
          let a = List.nth actions (Random.State.int rng (List.length actions)) in
          Stats.record_injected_fault ();
          match a with
          | Delay bound when bound > 1 ->
              Some (Delay (1 + Random.State.int rng bound))
          | a -> Some a)

let delay_only point =
  match check point with
  | None -> ()
  | Some (Delay n) -> spin n
  | Some (Abort | Kill | Wedge | Crash) ->
      (* Past the linearization point an abort would tear a committed
         transaction (and a wedge would stall it forever); serve the
         draw as a fixed delay instead.  Crash draws are only meaningful
         at the durability points, whose code consults [check]
         directly. *)
      spin 64
