module Key = Hashing.Key

type 'v entry = { value : 'v; mutable expires_at : float }

(* One replica's view of a key: its live entries, the values removed
   here that other replicas may still hold (tombstones), and the dotted
   version vector ordering this state against the other replicas'.
   States persist after their last entry expires or is removed — the
   version history is what stops a stale rejoined replica from
   resurrecting a deletion — except when a remove finds the key gone
   from every replica, which garbage-collects the key outright. *)
type 'v key_state = {
  mutable entries : 'v entry list;
  mutable tombs : 'v list;
  mutable version : Version.t;
}

type 'v t = {
  resolver : Dht.Resolver.t;
  replication : int;
  read_quorum : int;
  write_quorum : int;
  liveness : Dht.Liveness.t;
  clock : unit -> float;
  tables : (Key.t, 'v key_state) Hashtbl.t array;
  directory : (Key.t, unit) Hashtbl.t; (* keys registered and not removed *)
  on_write_acks : (acks:int -> needed:int -> unit) option;
  scratch : Stdx.Arena.Int_buf.t; (* replica-set resolution buffer *)
}

let create ~resolver ~replication ?read_quorum ?write_quorum ?on_write_acks
    ?liveness ?(clock = fun () -> 0.0) () =
  if replication < 1 then
    invalid_arg "Replicated_store.create: need at least one replica";
  let read_quorum = Option.value ~default:1 read_quorum in
  let write_quorum = Option.value ~default:replication write_quorum in
  if read_quorum < 1 || read_quorum > replication then
    invalid_arg "Replicated_store.create: read_quorum outside [1, replication]";
  if write_quorum < 1 || write_quorum > replication then
    invalid_arg "Replicated_store.create: write_quorum outside [1, replication]";
  let n = Dht.Resolver.node_count resolver in
  let liveness =
    match liveness with
    | Some l ->
        if Dht.Liveness.node_count l <> n then
          invalid_arg "Replicated_store.create: liveness covers a different node count";
        l
    | None -> Dht.Liveness.create ~node_count:n
  in
  {
    resolver;
    replication;
    read_quorum;
    write_quorum;
    liveness;
    clock;
    (* Small initial tables: at million-node scale most replicas hold a
       handful of keys, and 64-bucket tables per node would dominate the
       heap before a single entry lands. *)
    tables = Array.init n (fun _ -> Hashtbl.create 8);
    directory = Hashtbl.create 1024;
    on_write_acks;
    scratch = Stdx.Arena.Int_buf.create ~capacity:(Stdlib.max 1 replication) ();
  }

let replication t = t.replication
let read_quorum t = t.read_quorum
let write_quorum t = t.write_quorum
let liveness t = t.liveness

let node_of t key = Dht.Resolver.responsible t.resolver key

let replica_nodes t key = Dht.Resolver.replicas t.resolver key t.replication

let[@hot] replica_buf t key =
  Dht.Resolver.replicas_into t.resolver key t.replication t.scratch;
  t.scratch

(* The retry-down-the-replica-list shape is shared with the index layer
   through Rpc.walk_replicas: probe replicas in placement order, first
   acceptable one wins. *)
let first_replica t key ~accept =
  fst
    (Dht.Rpc.walk_replicas ~replicas:(replica_nodes t key)
       ~probe:(fun ~node ~rest:_ -> if accept node then Some node else None))

let[@hot] live_node_id t key =
  Dht.Liveness.first_live_buf t.liveness (replica_buf t key)

let live_node t key =
  match live_node_id t key with -1 -> None | node -> Some node

let live_replica_nodes t key =
  List.filter (Dht.Liveness.alive t.liveness) (replica_nodes t key)

let expired t entry = entry.expires_at <= t.clock ()

let state_at t ~node key = Hashtbl.find_opt t.tables.(node) key

let get_state table key =
  match Hashtbl.find_opt table key with
  | Some st -> st
  | None ->
      let st = { entries = []; tombs = []; version = Version.zero } in
      Hashtbl.add table key st;
      st

(* Drop a state's expired entries in place, so tables do not
   accumulate dead soft state. *)
let prune t st =
  if List.exists (expired t) st.entries then
    st.entries <- List.filter (fun e -> not (expired t e)) st.entries

(* Unexpired entries under [key] in [table], pruned in place. *)
let live_entries t table key =
  match Hashtbl.find_opt table key with
  | None -> []
  | Some st ->
      prune t st;
      st.entries

let values entries = List.map (fun e -> e.value) entries

let version_at t ~node key =
  match state_at t ~node key with Some st -> st.version | None -> Version.zero

let live_merged_version t key =
  List.fold_left
    (fun acc node ->
      if Dht.Liveness.alive t.liveness node then
        Version.merge acc (version_at t ~node key)
      else acc)
    Version.zero (replica_nodes t key)

let record_acks t ~acks =
  match t.on_write_acks with
  | None -> ()
  | Some f -> f ~acks ~needed:t.write_quorum

(* The version a write carries: the coordinator (first live replica)
   bumps its own dot past everything it has seen, so the write dominates
   every state it lands on — and is concurrent with states holding
   events the coordinator missed. *)
let write_version t ~coordinator key =
  Version.bump (version_at t ~node:coordinator key) ~actor:coordinator

let insert ?(expires_at = infinity) t ~key v =
  Hashtbl.replace t.directory key ();
  let live = live_replica_nodes t key in
  (match live with
  | [] -> ()
  | coordinator :: _ ->
      let vv = write_version t ~coordinator key in
      List.iter
        (fun node ->
          let table = t.tables.(node) in
          let existing = live_entries t table key in
          let st = get_state table key in
          st.entries <- { value = v; expires_at } :: existing;
          st.tombs <- List.filter (fun tv -> tv <> v) st.tombs;
          st.version <- Version.merge st.version vv)
        live);
  record_acks t ~acks:(List.length live)

let insert_unique ?(expires_at = infinity) ~equal t ~key v =
  let replicas = replica_nodes t key in
  let known_live =
    List.exists
      (fun node ->
        Dht.Liveness.alive t.liveness node
        && List.exists (fun e -> equal e.value v) (live_entries t t.tables.(node) key))
      replicas
  in
  if known_live then begin
    (* Refresh: existing copies take the new expiry; live replicas that
       lost the entry get it back. *)
    let live = live_replica_nodes t key in
    let vv = write_version t ~coordinator:(List.hd live) key in
    List.iter
      (fun node ->
        let table = t.tables.(node) in
        let entries = live_entries t table key in
        let st = get_state table key in
        (match List.find_opt (fun e -> equal e.value v) entries with
        | Some e -> e.expires_at <- expires_at
        | None -> st.entries <- { value = v; expires_at } :: entries);
        st.tombs <- List.filter (fun tv -> not (equal tv v)) st.tombs;
        st.version <- Version.merge st.version vv)
      live;
    record_acks t ~acks:(List.length live);
    false
  end
  else begin
    insert ~expires_at t ~key v;
    true
  end

let lookup_at t ~node key =
  if Dht.Liveness.alive t.liveness node then
    values (live_entries t t.tables.(node) key)
  else []

let read_at t ~node key =
  if not (Dht.Liveness.alive t.liveness node) then None
  else Some (values (live_entries t t.tables.(node) key), version_at t ~node key)

let lookup t key =
  match live_node_id t key with
  | -1 -> []
  | node -> values (live_entries t t.tables.(node) key)

let mem t key =
  List.exists
    (fun node ->
      Dht.Liveness.alive t.liveness node
      && live_entries t t.tables.(node) key <> [])
    (replica_nodes t key)

let available = mem

let remove t ~key pred =
  match live_replica_nodes t key with
  | [] -> 0
  | (coordinator :: _) as live ->
      let vv = write_version t ~coordinator key in
      let removed =
        List.fold_left
          (fun worst node ->
            let table = t.tables.(node) in
            let entries = live_entries t table key in
            let st = get_state table key in
            let kept, gone = List.partition (fun e -> not (pred e.value)) entries in
            st.entries <- kept;
            List.iter
              (fun e ->
                if not (List.exists (fun tv -> tv = e.value) st.tombs) then
                  st.tombs <- st.tombs @ [ e.value ])
              gone;
            st.version <- Version.merge st.version vv;
            Stdlib.max worst (List.length gone))
          0 live
      in
      record_acks t ~acks:(List.length live);
      let held_anywhere =
        List.exists
          (fun node ->
            match state_at t ~node key with
            | Some st -> st.entries <> []
            | None -> false)
          (replica_nodes t key)
      in
      (* Nothing left on any replica, dead ones included: the tombstones
         have no stale copy to fence off, so the key can be collected
         outright — exactly the pre-quorum final state. *)
      if not held_anywhere then begin
        List.iter (fun node -> Hashtbl.remove t.tables.(node) key) (replica_nodes t key);
        Hashtbl.remove t.directory key
      end;
      removed

let remove_key t key = remove t ~key (fun _ -> true)

let check_node t node =
  if node < 0 || node >= Array.length t.tables then
    invalid_arg "Replicated_store: bad node index"

let fail_node t node =
  check_node t node;
  ignore (Dht.Liveness.fail t.liveness node)

let revive_node t node =
  check_node t node;
  ignore (Dht.Liveness.revive t.liveness node)

let alive t node =
  check_node t node;
  Dht.Liveness.alive t.liveness node

let drop_state t node =
  check_node t node;
  Hashtbl.reset t.tables.(node)

(* ------------------------------------------------------------------ *)
(* Reconciliation: the least upper bound of two replica states.  When
   one side's version dominates, its content wins wholesale; otherwise
   (equal versions over diverged content, or genuinely concurrent
   histories) entries are unioned and the union is fenced by the merged
   tombstone set, so a removal observed on either side sticks. *)

let clone_entries entries = List.map (fun e -> { e with value = e.value }) entries

(* Membership in [values] under polymorphic equality, linear overall:
   short lists are scanned, longer ones are bucketed by [Hashtbl.hash]
   (values equal under [=] hash equally) and only a bucket is scanned. *)
module Hash_buckets = Hashtbl.Make (Int)

let member values =
  match values with
  | [] -> fun _ -> false
  | _ when List.compare_length_with values 8 <= 0 ->
      fun v -> List.exists (fun x -> x = v) values
  | _ ->
      let buckets = Hash_buckets.create (List.length values) in
      List.iter
        (fun x ->
          let h = Hashtbl.hash x in
          let prev = Option.value ~default:[] (Hash_buckets.find_opt buckets h) in
          Hash_buckets.replace buckets h (x :: prev))
        values;
      fun v ->
        match Hash_buckets.find_opt buckets (Hashtbl.hash v) with
        | None -> false
        | Some xs -> List.exists (fun x -> x = v) xs

(* Entries of [from] whose value [into] does not hold, in [from]'s
   order.  Identical value lists — every replica of a quiet key — take
   the fast path without building a membership table. *)
let missing_from ~into from =
  if List.equal (fun x y -> x.value = y.value) into from then []
  else
    let held = member (values into) in
    List.filter (fun e -> not (held e.value)) from

(* The merged state shares entry records with its inputs: callers only
   read it, and {!quorum_read} clones it onto every replica it repairs. *)
let merge_states a b =
  let version = Version.merge a.version b.version in
  match Version.compare a.version b.version with
  | Version.Dominates -> { a with version }
  | Version.Dominated -> { b with version }
  | Version.Eq | Version.Concurrent ->
      let tombs =
        match b.tombs with
        | [] -> a.tombs
        | _ ->
            let in_a = member a.tombs in
            a.tombs @ List.filter (fun v -> not (in_a v)) b.tombs
      in
      let entries = a.entries @ missing_from ~into:a.entries b.entries in
      let entries =
        match tombs with
        | [] -> entries
        | _ ->
            let dead = member tombs in
            List.filter (fun e -> not (dead e.value)) entries
      in
      { entries; tombs; version }

let state_equal a b =
  Version.equal a.version b.version
  && List.equal (fun x y -> x.value = y.value && x.expires_at = y.expires_at)
       a.entries b.entries
  && a.tombs = b.tombs

let empty_state () = { entries = []; tombs = []; version = Version.zero }

let quorum_read t ~key ~nodes =
  let states =
    List.filter_map
      (fun node ->
        if Dht.Liveness.alive t.liveness node then begin
          ignore (live_entries t t.tables.(node) key : 'v entry list);
          Some
            ( node,
              match state_at t ~node key with
              | Some st -> st
              | None -> empty_state () )
        end
        else None)
      nodes
  in
  match states with
  | [] -> ([], Version.zero, [])
  | (_, first) :: rest ->
      let merged = List.fold_left (fun acc (_, st) -> merge_states acc st) first rest in
      let repairs =
        List.filter_map
          (fun (node, st) ->
            if state_equal st merged then None
            else begin
              let gained = values (missing_from ~into:st.entries merged.entries) in
              let target = get_state t.tables.(node) key in
              target.entries <- clone_entries merged.entries;
              target.tombs <- merged.tombs;
              target.version <- merged.version;
              Some (node, gained)
            end)
          states
      in
      (values merged.entries, merged.version, repairs)

let sync_key t ~key ~nodes =
  let _, _, repairs = quorum_read t ~key ~nodes in
  repairs

(* ------------------------------------------------------------------ *)
(* Maintenance surface: what the {!Anti_entropy} pass (and the repair
   walk below) need to see of the per-replica states. *)

let sorted_keys t = Stdx.Det_tbl.sorted_keys ~compare:Key.compare t.directory

(* What [Printf.sprintf "%h"] calls: the shortest exact hexadecimal
   rendering, '-' signed, "infinity" for infinity. *)
external hexstring_of_float : float -> int -> char -> string = "caml_hexstring_of_float"

let render_state_into buf t ~node key ~render =
  match Hashtbl.find_opt t.tables.(node) key with
  | None -> ()
  | Some st ->
      prune t st;
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buf ';';
          Buffer.add_string buf (render e.value);
          Buffer.add_char buf '@';
          Buffer.add_string buf (hexstring_of_float e.expires_at (-6) '-'))
        st.entries;
      Buffer.add_char buf '!';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ';';
          Buffer.add_string buf (render v))
        st.tombs;
      Buffer.add_char buf '!';
      Version.render_into buf st.version

let render_state t ~node key ~render =
  let buf = Buffer.create 64 in
  render_state_into buf t ~node key ~render;
  Buffer.contents buf

let entry_values t ~node key =
  match state_at t ~node key with Some st -> values st.entries | None -> []

type 'v state_view = {
  view_entries : ('v * float) list;
  view_tombs : 'v list;
  view_version : Version.t;
}

let state_view t ~node key =
  Option.map
    (fun st ->
      {
        view_entries = List.map (fun e -> (e.value, e.expires_at)) st.entries;
        view_tombs = st.tombs;
        view_version = st.version;
      })
    (state_at t ~node key)

let repair ?(on_restore = fun ~node:_ _ -> ()) t =
  let restored = ref 0 in
  (* Repair order decides which replica serves as the copy source under
     partial failure; walk the directory in key order so runs agree. *)
  Stdx.Det_tbl.iter_sorted ~compare:Key.compare
    (fun key () ->
      let replicas = replica_nodes t key in
      let source =
        first_replica t key ~accept:(fun node ->
            Dht.Liveness.alive t.liveness node
            && live_entries t t.tables.(node) key <> [])
      in
      match source with
      | None -> () (* no live holder: lost until republished *)
      | Some source ->
          let src = Hashtbl.find t.tables.(source) key in
          List.iter
            (fun node ->
              if
                node <> source
                && Dht.Liveness.alive t.liveness node
                && live_entries t t.tables.(node) key = []
              then begin
                (* An empty state whose version dominates the source's is
                   a tombstone for writes the source slept through;
                   restoring from it would resurrect the deletion. *)
                let target_newer =
                  match state_at t ~node key with
                  | None -> false
                  | Some st -> Version.compare st.version src.version = Version.Dominates
                in
                if not target_newer then begin
                  let st = get_state t.tables.(node) key in
                  st.entries <- clone_entries src.entries;
                  st.tombs <- src.tombs;
                  st.version <- Version.merge st.version src.version;
                  List.iter
                    (fun e ->
                      incr restored;
                      on_restore ~node e.value)
                    src.entries
                end
              end)
            replicas)
    t.directory;
  !restored

let key_count t = Hashtbl.length t.directory

let entry_count t =
  Hashtbl.fold
    (fun key () acc ->
      match live_node t key with
      | Some node -> acc + List.length (live_entries t t.tables.(node) key)
      | None -> acc)
    t.directory 0

let total_replica_entries t =
  Array.fold_left
    (fun acc table ->
      Hashtbl.fold
        (fun _key st n ->
          n + List.length (List.filter (fun e -> not (expired t e)) st.entries))
        table acc)
    0 t.tables

let keys_per_node t =
  Array.map
    (fun table ->
      Hashtbl.fold
        (fun _key st n ->
          if List.exists (fun e -> not (expired t e)) st.entries then n + 1 else n)
        table 0)
    t.tables

let entries_per_node t =
  Array.map
    (fun table ->
      Hashtbl.fold
        (fun _key st n ->
          n + List.length (List.filter (fun e -> not (expired t e)) st.entries))
        table 0)
    t.tables

let fold t ~init ~f =
  Stdx.Det_tbl.fold_sorted ~compare:Key.compare
    (fun key () acc ->
      match live_node t key with
      | None -> acc
      | Some node -> (
          match live_entries t t.tables.(node) key with
          | [] -> acc
          | entries -> f acc key (values entries)))
    t.directory init
