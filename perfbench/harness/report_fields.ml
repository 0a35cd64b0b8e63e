module Runner = Sim.Runner
module Summary = Stdx.Stats.Summary

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* Seventeen significant digits read back as the same float, so equal
   strings mean bit-equal summaries. *)
let summary name s =
  [
    (name ^ ".count", string_of_int (Summary.count s));
    (name ^ ".total", Printf.sprintf "%.17g" (Summary.total s));
    (name ^ ".min", Printf.sprintf "%.17g" (Summary.min s));
    (name ^ ".max", Printf.sprintf "%.17g" (Summary.max s));
  ]

let family_json (f : Obs.Metrics.family) =
  Obs.Json.to_string (Obs.Export.snapshot_to_json [ f ])

let of_runner ?(keep_family = fun _ -> true) (r : Runner.report) =
  let i name v = (name, string_of_int v) in
  summary "interactions" r.interactions
  @ summary "error_probes" r.error_probes
  @ [
      i "hits" r.hits;
      i "hits_first_node" r.hits_first_node;
      i "errors" r.errors;
      i "unreachable" r.unreachable;
      i "request_bytes" r.request_bytes;
      i "response_bytes" r.response_bytes;
      i "cache_bytes" r.cache_bytes;
      i "maintenance_bytes" r.maintenance_bytes;
      ("node_touches", ints r.node_touches);
      ("cached_keys", ints r.cached_keys);
      ("regular_keys", ints r.regular_keys);
      i "index_bytes" r.index_bytes;
      i "article_bytes" r.article_bytes;
      i "index_mappings" r.index_mappings;
      i "publish_bytes" r.publish_bytes;
      i "network_messages" r.network_messages;
      i "rpc_calls" r.rpc_calls;
      i "rpc_exhausted" r.rpc_exhausted;
      i "rpc_timeouts" r.rpc_timeouts;
      i "rpc_retries" r.rpc_retries;
      i "rpc_hedges" r.rpc_hedges;
      i "rpc_hedges_won" r.rpc_hedges_won;
      i "rpc_duplicates_suppressed" r.rpc_duplicates_suppressed;
      i "rpc_lost_messages" r.rpc_lost_messages;
      i "quorum_reads" r.quorum_reads;
      i "quorum_stale_reads" r.quorum_stale_reads;
      i "quorum_read_repairs" r.quorum_read_repairs;
      i "quorum_writes" r.quorum_writes;
      i "quorum_write_failures" r.quorum_write_failures;
      i "antientropy_rounds" r.antientropy_rounds;
      i "antientropy_digest_bytes" r.antientropy_digest_bytes;
      i "antientropy_shipped_bytes" r.antientropy_shipped_bytes;
      i "antientropy_full_state_bytes" r.antientropy_full_state_bytes;
    ]
  @ List.filter_map
      (fun (f : Obs.Metrics.family) ->
        if keep_family f.name then Some ("metrics." ^ f.name, family_json f)
        else None)
      r.metrics

let of_engine ?keep_family (e : Sim.Engine.report) =
  of_runner ?keep_family e.base
  @ summary "session_latency" e.session_latency
  @ [
      ("concurrency", string_of_int e.concurrency);
      ("coalesce", string_of_bool e.coalesce);
      ("coalesced", string_of_int e.coalesced);
      ("peak_in_flight", string_of_int e.peak_in_flight);
    ]

(* The wall-clock profile families are the only ones allowed to differ
   between a profiled and an unprofiled run of the same configuration. *)
let simulated_family name =
  not
    (String.starts_with ~prefix:"p2pindex_phase_" name
    || String.starts_with ~prefix:"p2pindex_gc_" name)

let first_difference a b =
  let rec go = function
    | [] -> None
    | (name, va) :: rest -> (
        match List.assoc_opt name b with
        | Some vb when String.equal va vb -> go rest
        | Some vb -> Some (name, va, vb)
        | None -> Some (name, va, "<absent>"))
  in
  match go a with
  | Some _ as d -> d
  | None ->
      List.find_map
        (fun (name, vb) ->
          if List.mem_assoc name a then None else Some (name, "<absent>", vb))
        b

let describe (name, va, vb) =
  let clip s = if String.length s > 120 then String.sub s 0 117 ^ "..." else s in
  Printf.sprintf "%s: %s vs %s" name (clip va) (clip vb)
