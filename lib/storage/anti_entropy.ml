module Key = Hashing.Key
module Rstore = Replicated_store

(* One digest message: a header plus the 20-byte SHA-1. *)
let digest_message_bytes = 48 + 20

type stats = {
  exchanges : int;
  digest_matches : int;
  digest_bytes : int;
  keys_shipped : int;
  entries_shipped : int;
  shipped_bytes : int;
  full_state_bytes : int;
}

let zero_stats =
  {
    exchanges = 0;
    digest_matches = 0;
    digest_bytes = 0;
    keys_shipped = 0;
    entries_shipped = 0;
    shipped_bytes = 0;
    full_state_bytes = 0;
  }

let add a b =
  {
    exchanges = a.exchanges + b.exchanges;
    digest_matches = a.digest_matches + b.digest_matches;
    digest_bytes = a.digest_bytes + b.digest_bytes;
    keys_shipped = a.keys_shipped + b.keys_shipped;
    entries_shipped = a.entries_shipped + b.entries_shipped;
    shipped_bytes = a.shipped_bytes + b.shipped_bytes;
    full_state_bytes = a.full_state_bytes + b.full_state_bytes;
  }

let digest bindings = Hashing.Sha1.digest_string (String.concat "\n" bindings)

let range_bindings store ~node ~keys ~render =
  List.map
    (fun key ->
      Key.to_hex key ^ "=" ^ Rstore.render_state store ~node key ~render)
    keys

(* [digest (range_bindings ...)] without the per-key strings: the
   bindings stream into [buf] (cleared first), joined as [digest] joins
   them.  [hexes] are the keys' hex renderings, in the same order;
   [render_key i] is the entry renderer used for the [i]th key. *)
let digest_into buf store ~node ~keys ~hexes ~render_key =
  Buffer.clear buf;
  List.iteri
    (fun i key ->
      if i > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf hexes.(i);
      Buffer.add_char buf '=';
      Rstore.render_state_into buf store ~node key ~render:(render_key i))
    keys;
  Hashing.Sha1.digest_string (Buffer.contents buf)

let hexes_of keys = Array.of_list (List.map Key.to_hex keys)

let range_digest store ~node ~keys ~render =
  digest_into (Buffer.create 256) store ~node ~keys ~hexes:(hexes_of keys)
    ~render_key:(fun _ -> render)

(* Group the directory's keys by their replica set.  Keys sharing a
   replica list form one range a coordinator/peer pair can summarize
   with a single digest; iterating buckets in replica-list order (and
   keys in key order inside each) keeps the whole pass deterministic. *)
let buckets store =
  let tbl : (int list, Key.t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let replicas = Rstore.replica_nodes store key in
      let prev = match Hashtbl.find_opt tbl replicas with Some l -> l | None -> [] in
      Hashtbl.replace tbl replicas (key :: prev))
    (Rstore.sorted_keys store);
  Stdx.Det_tbl.fold_sorted
    ~compare:(List.compare Int.compare)
    (fun replicas keys acc -> (replicas, List.rev keys) :: acc)
    tbl []
  |> List.rev

(* One range's per-key memos of [render] and of the full-state price,
   shared by every replica the range's exchanges touch.  Replicas of a
   key mostly hold the very same values, so each value is rendered and
   priced once per range rather than once per replica.  A memo entry is
   reused only for a physically identical value (or value list), which
   makes it exact for any [render]/[entry_bytes] that are functions of
   the value; a miss recomputes. *)
type 'v range_memo = {
  renders : ('v * string) array array; (* per key: the first replica's, in render order *)
  recorded : ('v * string) list array; (* per key: the first replica's, newest first *)
  priced : ('v list * int) array; (* per key: the last value list priced, and its bytes *)
}

let range_memo n =
  { renders = Array.make n [||]; recorded = Array.make n []; priced = Array.make n ([], 0) }

(* The renderer for key [i]: the first replica rendered records the
   key's renderings; later ones reuse the one at the same position when
   it is of the same value. *)
let memo_render memo ~render i =
  (match memo.recorded.(i) with
  | [] -> ()
  | recorded ->
      memo.renders.(i) <- Array.of_list (List.rev recorded);
      memo.recorded.(i) <- []);
  let seen = memo.renders.(i) in
  if Array.length seen = 0 then
    fun v ->
      let s = render v in
      memo.recorded.(i) <- (v, s) :: memo.recorded.(i);
      s
  else
    let pos = ref 0 in
    fun v ->
      let j = !pos in
      incr pos;
      (* lint: allow phys-equal — identity only gates reuse of a pure function's result; a miss re-renders *)
      if j < Array.length seen && fst seen.(j) == v then snd seen.(j) else render v

(* One replica's share of a full-state push-pull over the range: the
   raw entries it holds, expiry not consulted. *)
let full_bytes memo store ~node ~keys ~entry_bytes =
  let sum = ref 0 in
  List.iteri
    (fun i key ->
      let values = Rstore.entry_values store ~node key in
      let seen, bytes = memo.priced.(i) in
      (* lint: allow phys-equal — identity only gates reuse of a pure function's result; a miss re-prices *)
      if List.equal ( == ) values seen then sum := !sum + bytes
      else begin
        let bytes = List.fold_left (fun b v -> b + entry_bytes v) 0 values in
        memo.priced.(i) <- (values, bytes);
        sum := !sum + bytes
      end)
    keys;
  !sum

let run store ~render ~entry_bytes ?(on_exchange = fun ~peer:_ ~bytes:_ -> ())
    ?(on_ship = fun ~node:_ ~bytes:_ -> ()) () =
  let liveness = Rstore.liveness store in
  let buf = Buffer.create 4096 in
  List.fold_left
    (fun acc (replicas, keys) ->
      match List.filter (Dht.Liveness.alive liveness) replicas with
      | [] | [ _ ] -> acc (* nobody to exchange with *)
      | coordinator :: peers ->
          let hexes = hexes_of keys in
          let memo = range_memo (Array.length hexes) in
          let digest_of node =
            digest_into buf store ~node ~keys ~hexes ~render_key:(memo_render memo ~render)
          in
          let full_of node = full_bytes memo store ~node ~keys ~entry_bytes in
          let coord_full = ref None and coord_digest = ref None in
          List.fold_left
            (fun acc peer ->
              (* Push-pull digest exchange: the coordinator sends its
                 range digest, the peer answers with its own. *)
              let bytes = 2 * digest_message_bytes in
              on_exchange ~peer ~bytes;
              let acc =
                { acc with exchanges = acc.exchanges + 1; digest_bytes = acc.digest_bytes + bytes }
              in
              (* What a digestless full-state push-pull would have moved
                 on this same divergence: both sides' entire ranges,
                 summed before either side's render prunes it. *)
              let cf =
                match !coord_full with
                | Some b -> b
                | None ->
                    let b = full_of coordinator in
                    coord_full := Some b;
                    b
              in
              let acc = { acc with full_state_bytes = acc.full_state_bytes + cf + full_of peer } in
              let dc =
                match !coord_digest with
                | Some d -> d
                | None ->
                    let d = digest_of coordinator in
                    coord_digest := Some d;
                    coord_full := None;
                    d
              in
              let dp = digest_of peer in
              if String.equal dc dp then
                { acc with digest_matches = acc.digest_matches + 1 }
              else
                List.fold_left
                  (fun acc key ->
                    let sc = Rstore.render_state store ~node:coordinator key ~render in
                    let sp = Rstore.render_state store ~node:peer key ~render in
                    if String.equal sc sp then acc
                    else begin
                      let repairs =
                        Rstore.sync_key store ~key ~nodes:[ coordinator; peer ]
                      in
                      if List.exists (fun (node, _) -> node = coordinator) repairs then begin
                        coord_full := None;
                        coord_digest := None
                      end;
                      let shipped, entries =
                        List.fold_left
                          (fun (bytes, entries) (node, gained) ->
                            let b =
                              List.fold_left (fun b v -> b + entry_bytes v) 0 gained
                            in
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
    zero_stats (buckets store)
