(* The concurrent session engine: byte-for-byte degeneration to the
   sequential runner (static and churned, metrics snapshot included),
   singleflight coalescing on the hot-spot workload, byte conservation at
   any concurrency, and argument validation. *)

module Runner = Sim.Runner
module Engine = Sim.Engine
module Summary = Stdx.Stats.Summary

let small_config =
  {
    Runner.default_config with
    node_count = 50;
    article_count = 400;
    query_count = 500;
    scheme = Bib.Schemes.Simple;
    policy = Cache.Policy.lru 10;
  }

(* Nonzero latency gives probes a virtual-time width (the coalescing
   window); no loss and a generous timeout keep every exchange intact, so
   traffic differences are scheduling and coalescing alone. *)
let latency_faults =
  Some { Runner.default_faults with latency_mean = 0.05; rpc_timeout = 50.0 }

let snapshot_string snapshot =
  Obs.Json.to_string (Obs.Export.snapshot_to_json snapshot)

let check_summary what a b =
  Alcotest.(check int) (what ^ " count") (Summary.count a) (Summary.count b);
  Alcotest.(check (float 0.0)) (what ^ " total") (Summary.total a) (Summary.total b);
  Alcotest.(check (float 0.0)) (what ^ " min") (Summary.min a) (Summary.min b);
  Alcotest.(check (float 0.0)) (what ^ " max") (Summary.max a) (Summary.max b)

let check_reports_equal (seq : Runner.report) (eng : Runner.report) =
  let open Runner in
  let check_int what f = Alcotest.(check int) what (f seq) (f eng) in
  check_int "request bytes" (fun r -> r.request_bytes);
  check_int "response bytes" (fun r -> r.response_bytes);
  check_int "cache bytes" (fun r -> r.cache_bytes);
  check_int "maintenance bytes" (fun r -> r.maintenance_bytes);
  check_int "publish bytes" (fun r -> r.publish_bytes);
  check_int "network messages" (fun r -> r.network_messages);
  check_int "hits" (fun r -> r.hits);
  check_int "hits at first node" (fun r -> r.hits_first_node);
  check_int "errors" (fun r -> r.errors);
  check_int "unreachable" (fun r -> r.unreachable);
  check_int "index bytes" (fun r -> r.index_bytes);
  check_int "index mappings" (fun r -> r.index_mappings);
  check_int "rpc calls" (fun r -> r.rpc_calls);
  check_int "rpc timeouts" (fun r -> r.rpc_timeouts);
  check_summary "interactions" seq.interactions eng.interactions;
  check_summary "error probes" seq.error_probes eng.error_probes;
  Alcotest.(check (array int)) "per-node touches" seq.node_touches eng.node_touches;
  Alcotest.(check (array int)) "per-node cached keys" seq.cached_keys eng.cached_keys;
  Alcotest.(check (array int)) "per-node regular keys" seq.regular_keys eng.regular_keys;
  Alcotest.(check string) "metrics snapshot" (snapshot_string seq.metrics)
    (snapshot_string eng.metrics)

(* The hard degeneration claim: concurrency 1 (coalescing off) is the
   sequential runner byte for byte — report and metrics snapshot. *)
let engine_degenerates_static () =
  let seq = Runner.run small_config in
  let eng = Engine.run ~concurrency:1 small_config in
  Alcotest.(check int) "no coalesced probes" 0 eng.Engine.coalesced;
  Alcotest.(check int) "no queued latency samples" 0
    (Summary.count eng.Engine.session_latency);
  check_reports_equal seq eng.Engine.base

let engine_degenerates_churned () =
  let config =
    {
      small_config with
      faults = latency_faults;
      churn =
        Some
          {
            Runner.default_churn with
            churn_rate = 0.004;
            replication = 2;
            ttl = 60.0;
            republish_period = 20.0;
            repair_period = 8.0;
            query_rate = 20.0;
          };
    }
  in
  let seq = Runner.run config in
  let eng = Engine.run ~concurrency:1 config in
  check_reports_equal seq eng.Engine.base

(* The coalescing claim (the Fig. 15 hot spots made useful): with enough
   overlapping sessions, identical in-flight probes merge — the counter
   moves and normal traffic per query strictly drops, with only the small
   consultation tickets appearing as cache traffic. *)
let coalescing_reduces_normal_traffic () =
  let config =
    {
      small_config with
      policy = Cache.Policy.no_cache;
      faults = latency_faults;
    }
  in
  let plain = Engine.run ~concurrency:16 config in
  let merged = Engine.run ~concurrency:16 ~coalesce:true config in
  Alcotest.(check int) "no merges with coalescing off" 0 plain.Engine.coalesced;
  Alcotest.(check bool) "probes coalesced" true (merged.Engine.coalesced > 0);
  Alcotest.(check bool) "sessions actually overlapped" true
    (plain.Engine.peak_in_flight > 1);
  Alcotest.(check bool) "normal traffic strictly reduced" true
    (Runner.normal_traffic_per_query merged.Engine.base
    < Runner.normal_traffic_per_query plain.Engine.base);
  Alcotest.(check bool) "followers billed consultation tickets" true
    (merged.Engine.base.Runner.cache_bytes > plain.Engine.base.Runner.cache_bytes)

(* Without coalescing the engine only reorders work: whatever the
   concurrency, the billed bytes are those of the sequential run.  (The
   workload is cache-free so sessions share no mutable state, and the
   generous timeout keeps the fault plan from dropping anything.) *)
let engine_conserves_bytes =
  let config =
    {
      small_config with
      query_count = 300;
      policy = Cache.Policy.no_cache;
      faults = latency_faults;
    }
  in
  let seq = lazy (Runner.run config) in
  QCheck.Test.make ~count:4 ~name:"engine conserves bytes at any concurrency"
    QCheck.(int_range 2 32)
    (fun concurrency ->
      let seq = Lazy.force seq in
      let eng = (Engine.run ~concurrency config).Engine.base in
      seq.Runner.request_bytes = eng.Runner.request_bytes
      && seq.Runner.response_bytes = eng.Runner.response_bytes
      && seq.Runner.cache_bytes = eng.Runner.cache_bytes
      && seq.Runner.network_messages = eng.Runner.network_messages
      && Summary.count seq.Runner.interactions
         = Summary.count eng.Runner.interactions)

let engine_validates_arguments () =
  Alcotest.check_raises "concurrency 0 rejected"
    (Invalid_argument "Engine.run: concurrency must be >= 1") (fun () ->
      ignore (Engine.run ~concurrency:0 small_config));
  Alcotest.check_raises "coalescing alone rejected"
    (Invalid_argument "Engine.run: coalescing needs concurrency > 1") (fun () ->
      ignore (Engine.run ~coalesce:true small_config));
  Alcotest.check_raises "zero queries rejected"
    (Invalid_argument "Runner.run: nonsensical configuration") (fun () ->
      ignore (Runner.run { small_config with query_count = 0 }));
  Alcotest.check_raises "empty event list rejected"
    (Invalid_argument "Runner.run: nonsensical configuration") (fun () ->
      ignore (Runner.run ~events:[] small_config))

(* The derived metrics never divide by a zero query count: a report whose
   interaction summary is empty yields zeros (and full availability), not
   NaNs. *)
let derived_metrics_survive_zero_queries () =
  let r = Runner.run { small_config with query_count = 10 } in
  let empty = { r with Runner.interactions = Summary.create () } in
  let finite what v = Alcotest.(check bool) (what ^ " is finite") false (Float.is_nan v) in
  finite "interactions mean" (Runner.interactions_mean empty);
  Alcotest.(check (float 0.0)) "normal traffic" 0.0
    (Runner.normal_traffic_per_query empty);
  Alcotest.(check (float 0.0)) "cache traffic" 0.0
    (Runner.cache_traffic_per_query empty);
  Alcotest.(check (float 0.0)) "maintenance traffic" 0.0
    (Runner.maintenance_traffic_per_query empty);
  Alcotest.(check (float 0.0)) "hit ratio" 0.0 (Runner.hit_ratio empty);
  Alcotest.(check (float 0.0)) "availability" 1.0 (Runner.availability empty)

(* --- The sharded engine: partition determinism and worker invariance. --- *)

module Sharded = Sim.Sharded

let check_engine_reports_equal (a : Engine.report) (b : Engine.report) =
  check_reports_equal a.Engine.base b.Engine.base;
  Alcotest.(check int) "coalesced" a.Engine.coalesced b.Engine.coalesced;
  Alcotest.(check int) "peak in flight" a.Engine.peak_in_flight b.Engine.peak_in_flight;
  check_summary "session latency" a.Engine.session_latency b.Engine.session_latency

(* One shard IS the engine run: report and metrics snapshot byte for byte. *)
let sharded_degenerates () =
  let sr = Sharded.run small_config in
  let eng = Engine.run small_config in
  Alcotest.(check int) "one shard" 1 sr.Sharded.shard_count;
  Alcotest.(check int) "one worker" 1 sr.Sharded.domain_count;
  Alcotest.(check int) "per-shard singleton" 1 (Array.length sr.Sharded.per_shard);
  check_engine_reports_equal sr.Sharded.engine eng

(* The worker axis is pure scheduling: at fixed shards, every domain
   count produces the identical merged report — per-node arrays and
   metrics snapshot included. *)
let sharded_identical_across_domains () =
  let run domains = Sharded.run ~shards:4 ~domains small_config in
  let d1 = run 1 and d2 = run 2 and d4 = run 4 in
  Alcotest.(check int) "workers clamped" 2 d2.Sharded.domain_count;
  check_engine_reports_equal d1.Sharded.engine d2.Sharded.engine;
  check_engine_reports_equal d1.Sharded.engine d4.Sharded.engine;
  Array.iteri
    (fun s e -> check_engine_reports_equal e d2.Sharded.per_shard.(s))
    d1.Sharded.per_shard

(* Churn with pauses under an active quorum block, message loss and
   duplication with retries and hedging, R = 2, W = 3 and anti-entropy. *)
let churned_faulty_quorum =
  {
    small_config with
    query_count = 3_000;
    churn =
      Some
        { Runner.default_churn with churn_rate = 0.01; republish_period = 10.0 };
    faults =
      Some
        {
          Runner.default_faults with
          loss_rate = 0.05;
          duplicate_rate = 0.05;
          rpc_retries = 2;
          hedge = true;
          fault_replication = 3;
        };
    quorum = Some { Runner.read_quorum = 2; write_quorum = 3; anti_entropy_interval = 10.0 };
  }

(* The count and byte fields the merge sums. *)
let summed_fields =
  [
    ("hits", fun (r : Runner.report) -> r.hits);
    ("hits_first_node", fun (r : Runner.report) -> r.hits_first_node);
    ("errors", fun (r : Runner.report) -> r.errors);
    ("unreachable", fun (r : Runner.report) -> r.unreachable);
    ("request_bytes", fun (r : Runner.report) -> r.request_bytes);
    ("response_bytes", fun (r : Runner.report) -> r.response_bytes);
    ("cache_bytes", fun (r : Runner.report) -> r.cache_bytes);
    ("maintenance_bytes", fun (r : Runner.report) -> r.maintenance_bytes);
    ("index_bytes", fun (r : Runner.report) -> r.index_bytes);
    ("article_bytes", fun (r : Runner.report) -> r.article_bytes);
    ("index_mappings", fun (r : Runner.report) -> r.index_mappings);
    ("publish_bytes", fun (r : Runner.report) -> r.publish_bytes);
    ("network_messages", fun (r : Runner.report) -> r.network_messages);
  ]

(* The report fields the registry backs, each with its counter. *)
let registry_fields =
  [
    ("rpc_calls", "p2pindex_rpc_calls_total", fun (r : Runner.report) -> r.rpc_calls);
    ("rpc_exhausted", "p2pindex_rpc_exhausted_total", fun (r : Runner.report) -> r.rpc_exhausted);
    ("rpc_timeouts", "p2pindex_rpc_timeouts_total", fun (r : Runner.report) -> r.rpc_timeouts);
    ("rpc_retries", "p2pindex_rpc_retries_total", fun (r : Runner.report) -> r.rpc_retries);
    ("rpc_hedges", "p2pindex_rpc_hedges_total", fun (r : Runner.report) -> r.rpc_hedges);
    ("rpc_hedges_won", "p2pindex_rpc_hedges_won_total", fun (r : Runner.report) -> r.rpc_hedges_won);
    ( "rpc_duplicates_suppressed",
      "p2pindex_rpc_duplicates_suppressed_total",
      fun (r : Runner.report) -> r.rpc_duplicates_suppressed );
    ( "rpc_lost_messages",
      "p2pindex_rpc_lost_messages_total",
      fun (r : Runner.report) -> r.rpc_lost_messages );
    ("quorum_reads", "p2pindex_quorum_reads_total", fun (r : Runner.report) -> r.quorum_reads);
    ( "quorum_stale_reads",
      "p2pindex_quorum_stale_reads_total",
      fun (r : Runner.report) -> r.quorum_stale_reads );
    ( "quorum_read_repairs",
      "p2pindex_quorum_read_repairs_total",
      fun (r : Runner.report) -> r.quorum_read_repairs );
    ("quorum_writes", "p2pindex_quorum_writes_total", fun (r : Runner.report) -> r.quorum_writes);
    ( "quorum_write_failures",
      "p2pindex_quorum_write_failures_total",
      fun (r : Runner.report) -> r.quorum_write_failures );
    ( "antientropy_rounds",
      "p2pindex_antientropy_rounds_total",
      fun (r : Runner.report) -> r.antientropy_rounds );
    ( "antientropy_digest_bytes",
      "p2pindex_antientropy_digest_bytes_total",
      fun (r : Runner.report) -> r.antientropy_digest_bytes );
    ( "antientropy_shipped_bytes",
      "p2pindex_antientropy_shipped_bytes_total",
      fun (r : Runner.report) -> r.antientropy_shipped_bytes );
    ( "antientropy_full_state_bytes",
      "p2pindex_antientropy_full_state_bytes_total",
      fun (r : Runner.report) -> r.antientropy_full_state_bytes );
  ]

(* The merge is a sum of isolated shards: every additive field of the
   merged report equals the sum over per-shard reports, the per-node
   arrays concatenate in shard order, and every registry-backed field is
   also the merged snapshot's counter total. *)
let sharded_merge_is_shard_sum () =
  let check_merge (cfg : Runner.config) =
    let sr = Sharded.run ~shards:3 cfg in
    let merged = sr.Sharded.engine.Engine.base in
    let shard_sum f =
      Array.fold_left (fun acc e -> acc + f e.Engine.base) 0 sr.Sharded.per_shard
    in
    List.iter
      (fun (field, get) ->
        Alcotest.(check int) (field ^ " is the shard sum") (shard_sum get) (get merged))
      summed_fields;
    Alcotest.(check int) "nodes covered" cfg.Runner.node_count
      (Array.length merged.Runner.node_touches);
    Alcotest.(check (array int)) "touches concatenate in shard order"
      (Array.concat
         (Array.to_list
            (Array.map (fun e -> e.Engine.base.Runner.node_touches) sr.Sharded.per_shard)))
      merged.Runner.node_touches;
    Alcotest.(check int) "queries covered" cfg.Runner.query_count
      (Summary.count merged.Runner.interactions);
    List.iter
      (fun (field, counter, get) ->
        Alcotest.(check int) (field ^ " is the shard sum") (shard_sum get) (get merged);
        Alcotest.(check int)
          (field ^ " is the merged snapshot's counter")
          (Obs.Metrics.counter_total merged.Runner.metrics counter)
          (get merged))
      registry_fields;
    merged
  in
  ignore (check_merge small_config : Runner.report);
  (* The second input reaches the counters it checks: every field but
     stale reads and shipped anti-entropy bytes, which stay 0 in this
     small configuration, reads above 0. *)
  let churned = check_merge churned_faulty_quorum in
  Alcotest.(check (list string)) "registry fields at 0"
    [ "quorum_stale_reads"; "antientropy_shipped_bytes" ]
    (List.filter_map
       (fun (field, _, get) -> if get churned > 0 then None else Some field)
       registry_fields)

(* Property: over random shard/domain choices, the merged report only
   depends on the shard count — never on the worker count. *)
let sharded_worker_invariance =
  let tiny =
    {
      small_config with
      node_count = 40;
      article_count = 150;
      query_count = 200;
    }
  in
  QCheck.Test.make ~count:6 ~name:"sharded report independent of domains"
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (shards, domains) ->
      let base = Sharded.run ~shards ~domains:1 tiny in
      let par = Sharded.run ~shards ~domains tiny in
      let b = base.Sharded.engine.Engine.base
      and p = par.Sharded.engine.Engine.base in
      b.Runner.request_bytes = p.Runner.request_bytes
      && b.Runner.response_bytes = p.Runner.response_bytes
      && b.Runner.errors = p.Runner.errors
      && b.Runner.node_touches = p.Runner.node_touches
      && snapshot_string b.Runner.metrics = snapshot_string p.Runner.metrics)

let sharded_validates_arguments () =
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Sharded.run: shards must be >= 1") (fun () ->
      ignore (Sharded.run ~shards:0 small_config));
  Alcotest.check_raises "zero domains rejected"
    (Invalid_argument "Sharded.run: domains must be >= 1") (fun () ->
      ignore (Sharded.run ~domains:0 small_config));
  Alcotest.check_raises "empty shard rejected"
    (Invalid_argument
       "Sharded.run: every shard needs at least one node, one article and one \
        query") (fun () ->
      ignore (Sharded.run ~shards:1000 small_config));
  let churned =
    {
      small_config with
      churn = Some { Runner.default_churn with replication = 30 };
    }
  in
  Alcotest.check_raises "replication must fit the smallest shard"
    (Invalid_argument
       "Sharded.run: the smallest shard cannot hold the replication factor \
        (replication needs that many distinct nodes per shard)") (fun () ->
      ignore (Sharded.run ~shards:4 churned));
  Alcotest.check_raises "replication beyond the population rejected up front"
    (Invalid_argument
       "Runner.run: replication exceeds node_count (every replica needs a \
        distinct node)") (fun () ->
      ignore (Runner.run { churned with node_count = 20 }));
  Alcotest.check_raises "profiling needs one worker"
    (Invalid_argument "Sharded.run: profiling requires a single worker domain")
    (fun () ->
      ignore
        (Sharded.run ~shards:4 ~domains:2 ~phases:(Obs.Phase.create ())
           small_config))

let suite =
  [
    ( "engine:degeneration",
      [
        Alcotest.test_case "concurrency 1 = sequential (static)" `Quick
          engine_degenerates_static;
        Alcotest.test_case "concurrency 1 = sequential (churned)" `Quick
          engine_degenerates_churned;
      ] );
    ( "engine:coalescing",
      [
        Alcotest.test_case "coalescing reduces normal traffic" `Quick
          coalescing_reduces_normal_traffic;
        QCheck_alcotest.to_alcotest engine_conserves_bytes;
      ] );
    ( "engine:validation",
      [
        Alcotest.test_case "argument validation" `Quick engine_validates_arguments;
        Alcotest.test_case "zero-query derived metrics" `Quick
          derived_metrics_survive_zero_queries;
      ] );
    ( "engine:sharded",
      [
        Alcotest.test_case "one shard = engine run" `Quick sharded_degenerates;
        Alcotest.test_case "byte-identical across domains" `Quick
          sharded_identical_across_domains;
        Alcotest.test_case "merge is the shard sum" `Quick sharded_merge_is_shard_sum;
        QCheck_alcotest.to_alcotest sharded_worker_invariance;
        Alcotest.test_case "argument validation" `Quick sharded_validates_arguments;
      ] );
  ]
