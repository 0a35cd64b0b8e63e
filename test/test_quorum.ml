(* The quorum layer's contract: version vectors form a join-semilattice
   (so anti-entropy converges in any exchange order), tombstones keep a
   remove from being resurrected by repair or anti-entropy, digests
   agree exactly when the canonical bindings agree, quorum reads
   reconcile and read-repair divergence, and at the runner level the
   inactive quorum block degenerates byte-for-byte to the historical
   first-live-replica run while raising R monotonically masks stale
   reads under churn. *)

module Key = Hashing.Key
module Version = Storage.Version
module Replicated = Storage.Replicated_store
module Anti_entropy = Storage.Anti_entropy

let resolver n =
  Dht.Static_dht.resolver (Dht.Static_dht.create ~seed:5L ~node_count:n ())

let k s = Key.of_string s

(* ------------------------------------------------------------------ *)
(* Version vectors: semilattice laws and causal comparison. *)

(* Vectors are abstract; build them the only way writes do — by bumping
   actor dots — from a generated (actor, bumps) event list. *)
let vec_of events =
  List.fold_left
    (fun v (actor, bumps) ->
      let rec go v i = if i = 0 then v else go (Version.bump v ~actor) (i - 1) in
      go v bumps)
    Version.zero events

let events_arb =
  QCheck.(
    set_print
      (fun evs -> Version.to_string (vec_of evs))
      (small_list (pair (int_bound 8) (int_range 1 4))))

let version_merge_commutative =
  QCheck.Test.make ~name:"merge is commutative" ~count:300
    QCheck.(pair events_arb events_arb)
    (fun (ea, eb) ->
      let a = vec_of ea and b = vec_of eb in
      Version.equal (Version.merge a b) (Version.merge b a))

let version_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:300
    QCheck.(triple events_arb events_arb events_arb)
    (fun (ea, eb, ec) ->
      let a = vec_of ea and b = vec_of eb and c = vec_of ec in
      Version.equal
        (Version.merge a (Version.merge b c))
        (Version.merge (Version.merge a b) c))

let version_merge_idempotent =
  QCheck.Test.make ~name:"merge is idempotent" ~count:300 events_arb
    (fun ea ->
      let a = vec_of ea in
      Version.equal (Version.merge a a) a)

let version_merge_is_upper_bound =
  QCheck.Test.make ~name:"merge dominates both arguments" ~count:300
    QCheck.(pair events_arb events_arb)
    (fun (ea, eb) ->
      let a = vec_of ea and b = vec_of eb in
      let m = Version.merge a b in
      Version.well_formed m
      && Version.dominates_or_eq m a
      && Version.dominates_or_eq m b)

let version_render_faithful =
  QCheck.Test.make ~name:"to_string equality coincides with equal" ~count:300
    QCheck.(pair events_arb events_arb)
    (fun (ea, eb) ->
      let a = vec_of ea and b = vec_of eb in
      Version.equal a b = String.equal (Version.to_string a) (Version.to_string b))

let relation = function
  | Version.Eq -> "eq"
  | Version.Dominates -> "dominates"
  | Version.Dominated -> "dominated"
  | Version.Concurrent -> "concurrent"

let version_compare_units () =
  let a = Version.bump Version.zero ~actor:0 in
  let b = Version.bump Version.zero ~actor:1 in
  Alcotest.(check string) "zero = zero" "eq" (relation (Version.compare Version.zero Version.zero));
  Alcotest.(check string) "a = a" "eq" (relation (Version.compare a a));
  Alcotest.(check string) "one bump dominates zero" "dominates"
    (relation (Version.compare a Version.zero));
  Alcotest.(check string) "zero dominated by one bump" "dominated"
    (relation (Version.compare Version.zero a));
  Alcotest.(check string) "disjoint actors are concurrent" "concurrent"
    (relation (Version.compare a b));
  Alcotest.(check string) "merge dominates a branch" "dominates"
    (relation (Version.compare (Version.merge a b) a));
  Alcotest.(check int) "counter reads the dot" 1 (Version.counter a ~actor:0);
  Alcotest.(check int) "absent actor counts zero" 0 (Version.counter a ~actor:7);
  Alcotest.(check int) "zero has no dots" 0 (Version.dots Version.zero);
  Alcotest.(check int) "two actors, two dots" 2 (Version.dots (Version.merge a b));
  Alcotest.(check bool) "negative actor rejected" true
    (try ignore (Version.bump Version.zero ~actor:(-1) : Version.t); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Digests: equal bindings, equal digest — and nothing else.  Bindings
   are canonical single-line renders, so the generator stays away from
   the newline the digest joins on. *)

let binding_arb =
  QCheck.(
    small_list
      (string_gen_of_size (Gen.int_range 1 8) (Gen.char_range 'a' 'z')))

let digest_equality_property =
  QCheck.Test.make ~name:"digests agree exactly when the bindings agree"
    ~count:400
    QCheck.(pair binding_arb binding_arb)
    (fun (a, b) ->
      String.equal (Anti_entropy.digest a) (Anti_entropy.digest b) = (a = b))

let range_digest_tracks_state () =
  let r = resolver 8 in
  let store : string Replicated.t =
    Replicated.create ~resolver:r ~replication:3 ()
  in
  Replicated.insert store ~key:(k "shared") "x";
  let nodes = Dht.Resolver.replicas r (k "shared") 3 in
  let digest_at node =
    Anti_entropy.range_digest store ~node ~keys:[ k "shared" ]
      ~render:(fun s -> s)
  in
  (match nodes with
  | a :: b :: _ ->
      Alcotest.(check string) "replicas of one write digest equally"
        (Hashing.Sha1.to_hex (digest_at a))
        (Hashing.Sha1.to_hex (digest_at b));
      (* One replica sleeps through a write: digests diverge. *)
      Replicated.fail_node store b;
      Replicated.insert store ~key:(k "shared") "y";
      Replicated.revive_node store b;
      Alcotest.(check bool) "a lagging replica digests differently" false
        (String.equal (digest_at a) (digest_at b))
  | _ -> Alcotest.fail "expected three replicas")

(* ------------------------------------------------------------------ *)
(* Tombstones: the stale-entry resurrection regression.  A replica that
   sleeps through a remove keeps its copy; historically the repair walk
   re-homed that copy onto the replicas that had correctly dropped it,
   resurrecting the deletion.  Tombstones fence the remove, and
   anti-entropy retires the stale copy outright. *)

let tombstones_block_resurrection () =
  let r = resolver 10 in
  let store : string Replicated.t =
    Replicated.create ~resolver:r ~replication:3 ()
  in
  Replicated.insert store ~key:(k "doomed") "entry";
  let replicas = Dht.Resolver.replicas r (k "doomed") 3 in
  let sleeper = List.nth replicas 2 in
  Replicated.fail_node store sleeper;
  Alcotest.(check int) "removed on the live replicas" 1
    (Replicated.remove store ~key:(k "doomed") (fun _ -> true));
  Replicated.revive_node store sleeper;
  (* The nap preserved the replica's (now stale) copy. *)
  Alcotest.(check (list string)) "stale copy survives the nap" [ "entry" ]
    (Replicated.entry_values store ~node:sleeper (k "doomed"));
  Alcotest.(check bool) "the stale copy is visible as availability" true
    (Replicated.mem store (k "doomed"));
  (* The pinned fix: repair must not re-home the tombstoned entry. *)
  let restored = ref 0 in
  ignore
    (Replicated.repair ~on_restore:(fun ~node:_ _ -> incr restored) store : int);
  Alcotest.(check int) "repair resurrects nothing" 0 !restored;
  List.iter
    (fun node ->
      if node <> sleeper then
        Alcotest.(check (list string))
          (Printf.sprintf "node %d stays clean" node)
          []
          (Replicated.entry_values store ~node (k "doomed")))
    replicas;
  (* Anti-entropy converges the other way: the merged (tombstoned)
     state dominates, so the sleeper drops its copy and gains nothing. *)
  let gained = Replicated.sync_key store ~key:(k "doomed") ~nodes:replicas in
  List.iter
    (fun (_, values) ->
      Alcotest.(check (list string)) "sync ships no values" [] values)
    gained;
  Alcotest.(check (list string)) "stale copy retired" []
    (Replicated.entry_values store ~node:sleeper (k "doomed"));
  Alcotest.(check bool) "the remove finally sticks everywhere" false
    (Replicated.mem store (k "doomed"))

(* ------------------------------------------------------------------ *)
(* Quorum reads, write acknowledgements, store validation. *)

let quorum_read_reconciles () =
  let r = resolver 10 in
  let store : string Replicated.t =
    Replicated.create ~resolver:r ~replication:3 ~read_quorum:2 ()
  in
  Alcotest.(check int) "read quorum recorded" 2 (Replicated.read_quorum store);
  Alcotest.(check int) "write quorum defaults to replication" 3
    (Replicated.write_quorum store);
  Replicated.insert store ~key:(k "a") "old";
  let replicas = Dht.Resolver.replicas r (k "a") 3 in
  let sleeper = List.nth replicas 1 in
  Replicated.fail_node store sleeper;
  Replicated.insert store ~key:(k "a") "new";
  Replicated.revive_node store sleeper;
  Alcotest.(check string) "sleeper causally behind" "dominated"
    (relation
       (Version.compare
          (Replicated.version_at store ~node:sleeper (k "a"))
          (Replicated.live_merged_version store (k "a"))));
  let values, version, repairs =
    Replicated.quorum_read store ~key:(k "a") ~nodes:replicas
  in
  Alcotest.(check (list string)) "merged values, most recent first"
    [ "new"; "old" ]
    values;
  Alcotest.(check string) "merged version is the live upper bound" "eq"
    (relation
       (Version.compare version (Replicated.live_merged_version store (k "a"))));
  (match repairs with
  | [ (node, gained) ] ->
      Alcotest.(check int) "the sleeper was repaired" sleeper node;
      Alcotest.(check (list string)) "it gained the missed write" [ "new" ] gained
  | _ -> Alcotest.fail "expected exactly one repaired replica");
  (* After the read repair every replica agrees. *)
  Alcotest.(check string) "sleeper caught up" "eq"
    (relation
       (Version.compare
          (Replicated.version_at store ~node:sleeper (k "a"))
          (Replicated.live_merged_version store (k "a"))));
  let _, _, again = Replicated.quorum_read store ~key:(k "a") ~nodes:replicas in
  Alcotest.(check int) "second read repairs nothing" 0 (List.length again)

let write_acknowledgement_counting () =
  let r = resolver 10 in
  let acks = ref [] in
  let store : string Replicated.t =
    Replicated.create ~resolver:r ~replication:3 ~write_quorum:2
      ~on_write_acks:(fun ~acks:a ~needed -> acks := (a, needed) :: !acks)
      ()
  in
  Replicated.insert store ~key:(k "a") "x";
  Alcotest.(check (list (pair int int))) "fully acknowledged" [ (3, 2) ] !acks;
  acks := [];
  let replicas = Dht.Resolver.replicas r (k "a") 3 in
  List.iter (Replicated.fail_node store) (List.tl replicas);
  Replicated.insert store ~key:(k "a") "y";
  Alcotest.(check (list (pair int int))) "under-acknowledged write reported"
    [ (1, 2) ] !acks

let store_quorum_validation () =
  let rejects f =
    try ignore (f () : string Replicated.t); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "read quorum above replication rejected" true
    (rejects (fun () ->
         Replicated.create ~resolver:(resolver 6) ~replication:3 ~read_quorum:4 ()));
  Alcotest.(check bool) "zero write quorum rejected" true
    (rejects (fun () ->
         Replicated.create ~resolver:(resolver 6) ~replication:3 ~write_quorum:0 ()))

(* ------------------------------------------------------------------ *)
(* Anti-entropy pass: diverged replicas converge, the digest scheme
   beats full-state push-pull, and a converged store is quiescent. *)

let anti_entropy_converges () =
  let r = resolver 8 in
  let store : string Replicated.t =
    Replicated.create ~resolver:r ~replication:3 ()
  in
  for i = 1 to 30 do
    Replicated.insert store
      ~key:(k (Printf.sprintf "key-%d" i))
      (Printf.sprintf "value-%d" i)
  done;
  let key = k "drifted" in
  Replicated.insert store ~key "old";
  let sleeper = List.nth (Dht.Resolver.replicas r key 3) 1 in
  Replicated.fail_node store sleeper;
  Replicated.insert store ~key "new";
  Replicated.revive_node store sleeper;
  let render s = s and entry_bytes s = 100 + String.length s in
  let exchanges = ref 0 and shipped_to = ref [] in
  let stats =
    Anti_entropy.run store ~render ~entry_bytes
      ~on_exchange:(fun ~peer:_ ~bytes:_ -> incr exchanges)
      ~on_ship:(fun ~node ~bytes:_ -> shipped_to := node :: !shipped_to)
      ()
  in
  Alcotest.(check int) "every exchange billed" stats.exchanges !exchanges;
  Alcotest.(check (list int)) "only the sleeper gained entries" [ sleeper ]
    !shipped_to;
  Alcotest.(check int) "one key diverged" 1 stats.keys_shipped;
  Alcotest.(check int) "one entry shipped" 1 stats.entries_shipped;
  Alcotest.(check bool) "most digests matched" true
    (stats.digest_matches > 0 && stats.digest_matches < stats.exchanges);
  Alcotest.(check bool) "digests + shipped beat full-state push-pull" true
    (stats.digest_bytes + stats.shipped_bytes < stats.full_state_bytes);
  Alcotest.(check (list string)) "sleeper caught up" [ "new"; "old" ]
    (Replicated.entry_values store ~node:sleeper key);
  (* Convergence is a fixed point: a second pass matches everywhere and
     ships nothing. *)
  let again = Anti_entropy.run store ~render ~entry_bytes () in
  Alcotest.(check int) "second pass: every digest matches" again.exchanges
    again.digest_matches;
  Alcotest.(check int) "second pass ships nothing" 0 again.entries_shipped;
  (* Componentwise aggregation. *)
  let sum = Anti_entropy.add stats again in
  Alcotest.(check int) "stats add componentwise"
    (stats.exchanges + again.exchanges) sum.exchanges

(* ------------------------------------------------------------------ *)
(* Differential checks.  The anti-entropy pass memoizes each replica's
   range digest and full-state share, and the quorum merge uses hashed
   membership; both must behave exactly like the straightforward
   versions below — the per-exchange pass and the quadratic merge —
   kept here as references over the store's public surface. *)

let reference_digest store ~node ~keys =
  Hashing.Sha1.digest_string
    (String.concat "\n"
       (List.map
          (fun key ->
            Key.to_hex key ^ "=" ^ Replicated.render_state store ~node key ~render:Fun.id)
          keys))

let reference_buckets store =
  let tbl : (int list, Key.t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let replicas = Replicated.replica_nodes store key in
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl replicas) in
      Hashtbl.replace tbl replicas (key :: prev))
    (Replicated.sorted_keys store);
  Stdx.Det_tbl.fold_sorted ~compare:(List.compare Int.compare)
    (fun replicas keys acc -> (replicas, List.rev keys) :: acc)
    tbl []
  |> List.rev

(* Every exchange re-sums both sides' full state and re-digests both
   sides, in the original order. *)
let reference_anti_entropy store ~entry_bytes ~on_exchange ~on_ship =
  let open Anti_entropy in
  let liveness = Replicated.liveness store in
  List.fold_left
    (fun acc (replicas, keys) ->
      match List.filter (Dht.Liveness.alive liveness) replicas with
      | [] | [ _ ] -> acc
      | coordinator :: peers ->
          List.fold_left
            (fun acc peer ->
              let bytes = 2 * (48 + 20) (* two digest messages *) in
              on_exchange ~peer ~bytes;
              let acc =
                { acc with exchanges = acc.exchanges + 1; digest_bytes = acc.digest_bytes + bytes }
              in
              let full =
                List.fold_left
                  (fun sum key ->
                    List.fold_left
                      (fun sum v -> sum + entry_bytes v)
                      sum
                      (Replicated.entry_values store ~node:coordinator key
                      @ Replicated.entry_values store ~node:peer key))
                  0 keys
              in
              let acc = { acc with full_state_bytes = acc.full_state_bytes + full } in
              let dc = reference_digest store ~node:coordinator ~keys in
              let dp = reference_digest store ~node:peer ~keys in
              if String.equal dc dp then { acc with digest_matches = acc.digest_matches + 1 }
              else
                List.fold_left
                  (fun acc key ->
                    let render node = Replicated.render_state store ~node key ~render:Fun.id in
                    if String.equal (render coordinator) (render peer) then acc
                    else begin
                      let repairs = Replicated.sync_key store ~key ~nodes:[ coordinator; peer ] in
                      let shipped, entries =
                        List.fold_left
                          (fun (bytes, entries) (node, gained) ->
                            let b = List.fold_left (fun b v -> b + entry_bytes v) 0 gained in
                            if b > 0 then on_ship ~node ~bytes:b;
                            (bytes + b, entries + List.length gained))
                          (0, 0) repairs
                      in
                      {
                        acc with
                        keys_shipped = acc.keys_shipped + 1;
                        entries_shipped = acc.entries_shipped + entries;
                        shipped_bytes = acc.shipped_bytes + shipped;
                      }
                    end)
                  acc keys)
            acc peers)
    zero_stats (reference_buckets store)

(* One replica state, as the reference merge sees it. *)
type ref_state = {
  r_entries : (string * float) list;
  r_tombs : string list;
  r_version : Version.t;
}

let ref_empty = { r_entries = []; r_tombs = []; r_version = Version.zero }

(* Which merge cases the random histories reached, for the coverage
   check below. *)
type merge_coverage = {
  mutable eq : int;
  mutable concurrent : int;
  mutable dominance : int;
  mutable diverged_union : int; (* Eq/Concurrent with different entry lists *)
  mutable long_union : int; (* ... and more than 8 entries on a side *)
  mutable duplicates : int; (* an entry list holding a value twice *)
  mutable both_tombed : int; (* tombstones on both sides *)
}

let coverage =
  {
    eq = 0;
    concurrent = 0;
    dominance = 0;
    diverged_union = 0;
    long_union = 0;
    duplicates = 0;
    both_tombed = 0;
  }

let has_duplicates entries =
  let values = List.map fst entries in
  List.length (List.sort_uniq String.compare values) < List.length values

let reference_merge a b =
  let version = Version.merge a.r_version b.r_version in
  match Version.compare a.r_version b.r_version with
  | Version.Dominates ->
      coverage.dominance <- coverage.dominance + 1;
      { a with r_version = version }
  | Version.Dominated ->
      coverage.dominance <- coverage.dominance + 1;
      { b with r_version = version }
  | (Version.Eq | Version.Concurrent) as rel ->
      if rel = Version.Eq then coverage.eq <- coverage.eq + 1
      else coverage.concurrent <- coverage.concurrent + 1;
      if List.map fst a.r_entries <> List.map fst b.r_entries then begin
        coverage.diverged_union <- coverage.diverged_union + 1;
        if List.length a.r_entries > 8 || List.length b.r_entries > 8 then
          coverage.long_union <- coverage.long_union + 1
      end;
      if has_duplicates a.r_entries || has_duplicates b.r_entries then
        coverage.duplicates <- coverage.duplicates + 1;
      if a.r_tombs <> [] && b.r_tombs <> [] then
        coverage.both_tombed <- coverage.both_tombed + 1;
      let tombs =
        a.r_tombs @ List.filter (fun v -> not (List.exists (fun tv -> tv = v) a.r_tombs)) b.r_tombs
      in
      let entries =
        a.r_entries
        @ List.filter
            (fun (v, _) -> not (List.exists (fun (v', _) -> v' = v) a.r_entries))
            b.r_entries
      in
      let entries =
        List.filter (fun (v, _) -> not (List.exists (fun tv -> tv = v) tombs)) entries
      in
      { r_entries = entries; r_tombs = tombs; r_version = version }

let ref_state_equal a b =
  Version.equal a.r_version b.r_version && a.r_entries = b.r_entries && a.r_tombs = b.r_tombs

let ref_of_view (v : string Replicated.state_view) =
  { r_entries = v.view_entries; r_tombs = v.view_tombs; r_version = v.view_version }

(* The state a live replica serves at time [now]: expired entries
   pruned, as the store prunes before merging. *)
let ref_state_at store ~now ~node key =
  match Replicated.state_view store ~node key with
  | None -> None
  | Some v ->
      let st = ref_of_view v in
      Some { st with r_entries = List.filter (fun (_, exp) -> exp > now) st.r_entries }

(* The original quorum read: values, version, repairs, and the state
   every consulted live replica must hold afterwards. *)
let reference_quorum_read store ~now ~key ~nodes =
  let states =
    List.filter_map
      (fun node ->
        if Replicated.alive store node then Some (node, ref_state_at store ~now ~node key)
        else None)
      nodes
  in
  match states with
  | [] -> (([], Version.zero, []), [])
  | (_, first) :: rest ->
      let state = Option.value ~default:ref_empty in
      let merged =
        List.fold_left (fun acc (_, st) -> reference_merge acc (state st)) (state first) rest
      in
      let repairs =
        List.filter_map
          (fun (node, st) ->
            let st = state st in
            if ref_state_equal st merged then None
            else
              let gained =
                List.filter
                  (fun (v, _) -> not (List.exists (fun (v', _) -> v' = v) st.r_entries))
                  merged.r_entries
              in
              Some (node, List.map fst gained))
          states
      in
      let after =
        List.map
          (fun (node, st) ->
            if List.mem_assoc node repairs then (node, Some merged) else (node, st))
          states
      in
      ((List.map fst merged.r_entries, merged.r_version, repairs), after)

(* Random store histories over a 6-node ring: writes with and without
   TTLs (duplicates allowed), removes leaving tombstones, fail/revive
   and state loss, clock advances past TTLs, repair passes, quorum reads
   over a subset of a key's replicas, and anti-entropy rounds. *)
type op =
  | Insert of int * int * float (* key, value, TTL *)
  | Refresh of int * int * float
  | Missed of int * int * int (* key, replica index, value: a write that replica sleeps through *)
  | Remove of int * int (* key, value class *)
  | Fail of int
  | Revive of int
  | Drop of int
  | Advance of float
  | Repair
  | Read of int * int * bool (* key, replica mask, sync only *)
  | Anti_entropy_round

let history_nodes = 6
let history_keys = 4
let history_values = 16
let hkey i = k (Printf.sprintf "hist-%d" i)
(* Values differ in length (so they differ in price) and fall into four
   classes a removal targets together. *)
let hvalue i = Printf.sprintf "%c%d%s" "abcd".[i mod 4] i (String.make (i mod 3) '+')
let in_class c v = Char.equal v.[0] "abcd".[c]

let show_op = function
  | Insert (key, v, ttl) -> Printf.sprintf "insert k%d %s ttl=%g" key (hvalue v) ttl
  | Refresh (key, v, ttl) -> Printf.sprintf "refresh k%d %s ttl=%g" key (hvalue v) ttl
  | Missed (key, i, v) -> Printf.sprintf "missed k%d replica %d %s" key i (hvalue v)
  | Remove (key, c) -> Printf.sprintf "remove k%d class %c" key "abcd".[c]
  | Fail n -> Printf.sprintf "fail %d" n
  | Revive n -> Printf.sprintf "revive %d" n
  | Drop n -> Printf.sprintf "drop %d" n
  | Advance d -> Printf.sprintf "advance %g" d
  | Repair -> "repair"
  | Read (key, mask, sync) -> Printf.sprintf "%s k%d mask=%d" (if sync then "sync" else "read") key mask
  | Anti_entropy_round -> "anti-entropy"

let history_gen =
  let open QCheck.Gen in
  let key = int_bound (history_keys - 1) and node = int_bound (history_nodes - 1) in
  (* Few values per key, so duplicates and shared values are common. *)
  let value = int_bound (history_values - 1) in
  let ttl = frequency [ (1, return infinity); (1, float_range 2.0 12.0) ] in
  let op =
    frequency
      [
        (8, map3 (fun k v t -> Insert (k, v, t)) key value ttl);
        (3, map3 (fun k v t -> Refresh (k, v, t)) key value ttl);
        (3, map3 (fun k i v -> Missed (k, i, v)) key (int_bound 4) value);
        (3, map2 (fun k c -> Remove (k, c)) key (int_bound 3));
        (3, map (fun n -> Fail n) node);
        (3, map (fun n -> Revive n) node);
        (1, map (fun n -> Drop n) node);
        (2, map (fun d -> Advance d) (float_range 0.5 6.0));
        (1, return Repair);
        (3, map3 (fun k m s -> Read (k, m, s)) key (int_bound 31) bool);
        (2, return Anti_entropy_round);
      ]
  in
  pair (int_range 3 5) (list_size (int_range 10 120) op)

let history_arb =
  QCheck.make history_gen ~print:(fun (replication, ops) ->
      Printf.sprintf "replication %d: %s" replication (String.concat "; " (List.map show_op ops)))

let history_store ~replication =
  let now = ref 0.0 in
  let store : string Replicated.t =
    Replicated.create ~resolver:(resolver history_nodes) ~replication
      ~clock:(fun () -> !now) ()
  in
  (store, now)

let apply_op store now = function
  | Insert (key, v, ttl) -> Replicated.insert ~expires_at:(!now +. ttl) store ~key:(hkey key) (hvalue v)
  | Refresh (key, v, ttl) ->
      ignore
        (Replicated.insert_unique ~expires_at:(!now +. ttl) ~equal:String.equal store
           ~key:(hkey key) (hvalue v)
          : bool)
  | Missed (key, i, v) ->
      (* Two of these on one key with different sleepers leave the two
         replicas with concurrent versions. *)
      let replicas = Replicated.replica_nodes store (hkey key) in
      let sleeper = List.nth replicas (i mod List.length replicas) in
      if Replicated.alive store sleeper then begin
        Replicated.fail_node store sleeper;
        Replicated.insert store ~key:(hkey key) (hvalue v);
        Replicated.revive_node store sleeper
      end
  | Remove (key, c) -> ignore (Replicated.remove store ~key:(hkey key) (in_class c) : int)
  | Fail n -> Replicated.fail_node store n
  | Revive n -> Replicated.revive_node store n
  | Drop n -> Replicated.drop_state store n
  | Advance d -> now := !now +. d
  | Repair -> ignore (Replicated.repair store : int)
  | Read _ | Anti_entropy_round -> ()

let entry_bytes v = 40 + String.length v

(* Every node's canonical state for every key of the pool. *)
let all_renders store =
  List.init history_nodes (fun node ->
      List.init history_keys (fun key ->
          Replicated.render_state store ~node (hkey key) ~render:Fun.id))

type ae_event = Exchange of int * int | Ship of int * int

let anti_entropy_matches_reference =
  QCheck.Test.make ~name:"memoized anti-entropy = per-exchange reference" ~count:300
    history_arb (fun (replication, ops) ->
      let subject, now_s = history_store ~replication in
      let reference, now_r = history_store ~replication in
      let round () =
        let log_s = ref [] and log_r = ref [] in
        let logger log =
          ( (fun ~peer ~bytes -> log := Exchange (peer, bytes) :: !log),
            fun ~node ~bytes -> log := Ship (node, bytes) :: !log )
        in
        let on_exchange, on_ship = logger log_s in
        let stats_s =
          Anti_entropy.run subject ~render:Fun.id ~entry_bytes ~on_exchange ~on_ship ()
        in
        let on_exchange, on_ship = logger log_r in
        let stats_r = reference_anti_entropy reference ~entry_bytes ~on_exchange ~on_ship in
        stats_s = stats_r && !log_s = !log_r && all_renders subject = all_renders reference
      in
      List.for_all
        (fun op ->
          apply_op subject now_s op;
          apply_op reference now_r op;
          match op with Anti_entropy_round -> round () | _ -> true)
        ops
      && round ())

let quorum_views store ~nodes ~key =
  List.map (fun node -> (node, Option.map ref_of_view (Replicated.state_view store ~node key))) nodes

(* Runs one history, checking every quorum read / sync against the
   reference merge: values in order, version, repairs, and the states
   the consulted replicas hold afterwards. *)
let quorum_history_ok (replication, ops) =
  let store, now = history_store ~replication in
  let r = resolver history_nodes in
  List.for_all
    (fun op ->
      apply_op store now op;
      match op with
      | Read (key, mask, sync) ->
          let key = hkey key in
          let nodes =
            List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Dht.Resolver.replicas r key replication)
          in
          let (values, version, repairs), after =
            reference_quorum_read store ~now:!now ~key ~nodes
          in
          let result_ok =
            if sync then Replicated.sync_key store ~key ~nodes = repairs
            else
              let values', version', repairs' = Replicated.quorum_read store ~key ~nodes in
              values' = values && Version.equal version' version && repairs' = repairs
          in
          let live = List.filter (Replicated.alive store) nodes in
          result_ok && quorum_views store ~nodes:live ~key = after
      | _ -> true)
    ops

let quorum_merge_matches_reference =
  QCheck.Test.make ~name:"linear quorum merge = quadratic reference" ~count:300 history_arb
    quorum_history_ok

(* The random histories must reach every merge case the fast paths
   split on; a fixed-seed batch pins that coverage. *)
let quorum_merge_coverage () =
  (* lint: allow ambient-nondeterminism — a fixed seed; QCheck generators draw from Random.State *)
  let rand = Random.State.make [| 13 |] in
  for i = 1 to 400 do
    let history = QCheck.Gen.generate1 ~rand history_gen in
    if not (quorum_history_ok history) then
      Alcotest.failf "history %d diverged from the reference: %s" i
        (Option.get history_arb.QCheck.print history)
  done;
  let reached what n = Alcotest.(check bool) what true (n > 0) in
  reached "equal versions" coverage.eq;
  reached "concurrent versions" coverage.concurrent;
  reached "dominance" coverage.dominance;
  reached "entry union of diverged lists" coverage.diverged_union;
  reached "union over more than 8 entries" coverage.long_union;
  reached "duplicate values" coverage.duplicates;
  reached "tombstones on both sides" coverage.both_tombed

(* The documented spec: a range digest is the digest of its bindings. *)
let range_digest_is_digest_of_bindings =
  QCheck.Test.make ~name:"range_digest = digest (range_bindings ...)" ~count:200
    QCheck.(pair history_arb (int_bound (history_nodes - 1)))
    (fun ((replication, ops), node) ->
      let store, now = history_store ~replication in
      List.iter (apply_op store now) ops;
      let keys = List.init history_keys hkey in
      String.equal
        (Anti_entropy.range_digest store ~node ~keys ~render:Fun.id)
        (Anti_entropy.digest (Anti_entropy.range_bindings store ~node ~keys ~render:Fun.id)))

(* The canonical rendering the digests hash, pinned: entries with
   hexadecimal expiries (as [%h] prints them), tombstones, version. *)
let render_state_format () =
  let now = ref 0.0 in
  let store : string Replicated.t =
    Replicated.create ~resolver:(resolver 4) ~replication:1 ~clock:(fun () -> !now) ()
  in
  let key = k "pinned" in
  let node = Replicated.node_of store key in
  Replicated.insert store ~key "a";
  Replicated.insert ~expires_at:10.0 store ~key "b";
  Replicated.insert ~expires_at:0.1 store ~key "c";
  ignore (Replicated.remove store ~key (String.equal "c") : int);
  Replicated.insert ~expires_at:2.5 store ~key "d";
  Alcotest.(check string) "entries, tombstones, version"
    "d@0x1.4p+1;b@0x1.4p+3;a@infinity!c!{0:5}"
    (Replicated.render_state store ~node key ~render:Fun.id);
  now := 5.0;
  Alcotest.(check string) "expired entries pruned first" "b@0x1.4p+3;a@infinity!c!{0:5}"
    (Replicated.render_state store ~node key ~render:Fun.id);
  Alcotest.(check string) "no state renders empty" ""
    (Replicated.render_state store ~node (k "absent") ~render:Fun.id)

(* ------------------------------------------------------------------ *)
(* Runner: the degeneration equality and the R-sweep monotonicity the
   issue pins. *)

let churned_base =
  {
    Sim.Runner.default_config with
    node_count = 50;
    article_count = 400;
    query_count = 800;
    scheme = Bib.Schemes.Simple;
    churn =
      Some
        { Sim.Runner.default_churn with churn_rate = 0.01; replication = 3 };
  }

(* The hard degeneration claim: R = 1, W = replication, anti-entropy off
   must reproduce the quorum-free run byte for byte — traffic, placement
   and the metrics snapshot. *)
let quorum_inactive_equals_plain () =
  let inactive =
    { Sim.Runner.read_quorum = 1; write_quorum = 3; anti_entropy_interval = 0.0 }
  in
  Alcotest.(check bool) "R=1/W=N/no-AE block is inactive" false
    (Sim.Runner.quorum_active { churned_base with quorum = Some inactive });
  let plain = Sim.Runner.run churned_base in
  let quorumed =
    Sim.Runner.run { churned_base with quorum = Some inactive }
  in
  let check_int what f = Alcotest.(check int) what (f plain) (f quorumed) in
  let open Sim.Runner in
  check_int "request bytes" (fun r -> r.request_bytes);
  check_int "response bytes" (fun r -> r.response_bytes);
  check_int "cache bytes" (fun r -> r.cache_bytes);
  check_int "maintenance bytes" (fun r -> r.maintenance_bytes);
  check_int "publish bytes" (fun r -> r.publish_bytes);
  check_int "network messages" (fun r -> r.network_messages);
  check_int "hits" (fun r -> r.hits);
  check_int "errors" (fun r -> r.errors);
  check_int "unreachable" (fun r -> r.unreachable);
  check_int "rpc calls" (fun r -> r.rpc_calls);
  check_int "quorum reads stay zero" (fun r -> r.quorum_reads);
  check_int "quorum writes stay zero" (fun r -> r.quorum_writes);
  check_int "anti-entropy stays off" (fun r -> r.antientropy_rounds);
  Alcotest.(check (array int)) "per-node touches" plain.node_touches
    quorumed.node_touches;
  Alcotest.(check (array int)) "per-node cached keys" plain.cached_keys
    quorumed.cached_keys;
  Alcotest.(check string) "metrics snapshot byte-identical"
    (Obs.Export.render_table plain.metrics)
    (Obs.Export.render_table quorumed.metrics)

let quorum_validation () =
  let rejects cfg =
    try ignore (Sim.Runner.run cfg : Sim.Runner.report); false
    with Invalid_argument _ -> true
  in
  let with_quorum q = { churned_base with quorum = Some q } in
  Alcotest.(check bool) "R above replication rejected" true
    (rejects
       (with_quorum
          { Sim.Runner.read_quorum = 4; write_quorum = 3; anti_entropy_interval = 0.0 }));
  Alcotest.(check bool) "W of zero rejected" true
    (rejects
       (with_quorum
          { Sim.Runner.read_quorum = 1; write_quorum = 0; anti_entropy_interval = 0.0 }));
  Alcotest.(check bool) "negative anti-entropy interval rejected" true
    (rejects
       (with_quorum
          { Sim.Runner.read_quorum = 1; write_quorum = 3; anti_entropy_interval = -1.0 }));
  Alcotest.(check bool) "anti-entropy without churn rejected" true
    (rejects
       {
         churned_base with
         churn = None;
         faults = Some { Sim.Runner.default_faults with fault_replication = 3 };
         quorum =
           Some
             { Sim.Runner.read_quorum = 1; write_quorum = 3; anti_entropy_interval = 5.0 };
       })

(* The issue's acceptance sweep, in miniature: at a fixed churn rate the
   stale-read rate must fall monotonically as R rises, and the digest
   scheme must move fewer bytes than full-state push-pull on the same
   divergence.  The run needs enough virtual time (query_count over
   query_rate) to span several republish rounds — writes during a
   replica's downtime are what create the staleness quorum reads mask. *)
let quorum_reads_mask_staleness () =
  let base =
    {
      Sim.Runner.default_config with
      node_count = 100;
      article_count = 800;
      query_count = 6_000;
      scheme = Bib.Schemes.Simple;
      churn =
        Some
          {
            Sim.Runner.default_churn with
            churn_rate = 0.02;
            replication = 3;
            republish_period = 20.0;
          };
    }
  in
  let run read_quorum =
    Sim.Runner.run
      {
        base with
        quorum =
          Some
            { Sim.Runner.read_quorum; write_quorum = 3; anti_entropy_interval = 10.0 };
      }
  in
  let r1 = run 1 and r2 = run 2 and r3 = run 3 in
  let rate = Sim.Runner.stale_read_rate in
  Alcotest.(check bool) "R=1 observes stale reads" true (rate r1 > 0.0);
  Alcotest.(check bool) "R=2 masks staleness at least as well" true
    (rate r2 <= rate r1);
  Alcotest.(check bool) "R=3 masks staleness at least as well" true
    (rate r3 <= rate r2);
  Alcotest.(check bool) "wider quorums read-repair laggards" true
    (r2.Sim.Runner.quorum_read_repairs > 0);
  List.iter
    (fun (r : Sim.Runner.report) ->
      Alcotest.(check bool) "quorum reads counted" true (r.quorum_reads > 0);
      Alcotest.(check bool) "writes counted against W" true (r.quorum_writes > 0);
      Alcotest.(check bool) "anti-entropy ran" true (r.antientropy_rounds > 0);
      Alcotest.(check bool) "digests beat full-state push-pull" true
        (r.antientropy_digest_bytes + r.antientropy_shipped_bytes
        < r.antientropy_full_state_bytes))
    [ r1; r2; r3 ]

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "quorum:version",
      Alcotest.test_case "causal comparison and accessors" `Quick
        version_compare_units
      :: qcheck
           [
             version_merge_commutative;
             version_merge_associative;
             version_merge_idempotent;
             version_merge_is_upper_bound;
             version_render_faithful;
           ] );
    ( "quorum:digest",
      Alcotest.test_case "range digests track replica state" `Quick
        range_digest_tracks_state
      :: qcheck [ digest_equality_property ] );
    ( "quorum:store",
      [
        Alcotest.test_case "tombstones block stale-entry resurrection" `Quick
          tombstones_block_resurrection;
        Alcotest.test_case "quorum read reconciles and read-repairs" `Quick
          quorum_read_reconciles;
        Alcotest.test_case "write acknowledgements counted against W" `Quick
          write_acknowledgement_counting;
        Alcotest.test_case "quorum bounds validated" `Quick store_quorum_validation;
      ] );
    ( "quorum:anti-entropy",
      [
        Alcotest.test_case "diverged replicas converge below full-state cost"
          `Quick anti_entropy_converges;
        Alcotest.test_case "canonical state rendering pinned" `Quick render_state_format;
        Alcotest.test_case "merge differential reaches every case" `Quick
          quorum_merge_coverage;
      ]
      @ qcheck
          [
            anti_entropy_matches_reference;
            quorum_merge_matches_reference;
            range_digest_is_digest_of_bindings;
          ] );
    ( "quorum:runner",
      [
        Alcotest.test_case "inactive quorum = plain run, byte for byte" `Quick
          quorum_inactive_equals_plain;
        Alcotest.test_case "nonsensical quorum configs rejected" `Quick
          quorum_validation;
        Alcotest.test_case "raising R masks stale reads monotonically" `Slow
          quorum_reads_mask_staleness;
      ] );
  ]
