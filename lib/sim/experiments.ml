module Schemes = Bib.Schemes
module Policy = Cache.Policy
module Query_gen = Workload.Query_gen
module Tabular = Stdx.Tabular

type scale = {
  node_count : int;
  article_count : int;
  query_count : int;
  seed : int64;
}

let paper_scale =
  { node_count = 500; article_count = 10_000; query_count = 50_000; seed = 42L }

let quick_scale =
  { node_count = 100; article_count = 1_000; query_count = 5_000; seed = 42L }

let config_of_scale scale =
  {
    Runner.default_config with
    node_count = scale.node_count;
    article_count = scale.article_count;
    query_count = scale.query_count;
    seed = scale.seed;
  }

module Grid = struct
  type t = { scale : scale; cells : (string, Runner.report) Hashtbl.t }

  let create scale = { scale; cells = Hashtbl.create 32 }

  let report t ~scheme ~policy =
    let key = Schemes.label scheme ^ "/" ^ Policy.label policy in
    match Hashtbl.find_opt t.cells key with
    | Some r -> r
    | None ->
        let r = Runner.run { (config_of_scale t.scale) with scheme; policy } in
        Hashtbl.add t.cells key r;
        r

  let scale t = t.scale
end

(* ------------------------------------------------------------------ *)
(* Fig. 7: query-structure mix. *)

type mix_row = { structure : string; model : float; observed : float }

let model_probability (mix : Query_gen.mix) = function
  | Query_gen.Author -> mix.p_author
  | Query_gen.Title -> mix.p_title
  | Query_gen.Year -> mix.p_year
  | Query_gen.Author_title -> mix.p_author_title
  | Query_gen.Author_year -> mix.p_author_year
  | Query_gen.Author_conf -> mix.p_author_conf
  | Query_gen.Author_prefix -> mix.p_author_prefix

let fig7_query_mix scale =
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let gen = Query_gen.create ~articles ~seed:scale.seed () in
  let counts = Hashtbl.create 8 in
  for _ = 1 to scale.query_count do
    let event = Query_gen.next gen in
    let n = Option.value ~default:0 (Hashtbl.find_opt counts event.structure) in
    Hashtbl.replace counts event.structure (n + 1)
  done;
  List.map
    (fun structure ->
      let observed =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts structure))
        /. float_of_int scale.query_count
      in
      {
        structure = Query_gen.structure_label structure;
        model = model_probability Query_gen.bibfinder_mix structure;
        observed;
      })
    Query_gen.all_structures

(* ------------------------------------------------------------------ *)
(* Fig. 9: popularity distributions. *)

type popularity_series = {
  ranks : int list;
  article_probability : (int * float) list;
  observed_frequency : (int * float) list;
  fitted_slope : float;
  author_frequency : (int * float) list;
      (* observed author-query frequency by author popularity rank *)
  author_slope : float;
}

let sample_ranks n =
  let candidates = [ 1; 2; 3; 5; 10; 20; 50; 100; 200; 500; 1_000; 2_000; 5_000; 10_000 ] in
  List.filter (fun r -> r <= n) candidates

let fig9_popularity scale =
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let law = Query_gen.paper_popularity ~article_count:scale.article_count in
  let gen = Query_gen.create ~articles ~seed:scale.seed () in
  let counts = Array.make scale.article_count 0 in
  let author_counts : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  for _ = 1 to scale.query_count do
    let event = Query_gen.next gen in
    counts.(event.target.id - 1) <- counts.(event.target.id - 1) + 1;
    (* The paper's author-popularity series (Fig. 9): how often each author
       appears in queries with an author field. *)
    match event.query with
    | Bib.Bib_query.Fields { author = Some a; _ } ->
        let key = Bib.Article.author_to_string a in
        Hashtbl.replace author_counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt author_counts key))
    | Bib.Bib_query.Fields _ | Bib.Bib_query.Msd _ | Bib.Bib_query.Author_last_prefix _ ->
        ()
  done;
  let ranks = sample_ranks scale.article_count in
  let observed_frequency =
    List.map
      (fun r -> (r, float_of_int counts.(r - 1) /. float_of_int scale.query_count))
      ranks
  in
  let fit_log_log points =
    let usable =
      List.filter_map
        (fun (r, f) -> if f > 0.0 then Some (log (float_of_int r), log f) else None)
        points
    in
    match usable with
    | _ :: _ :: _ ->
        let slope, _ = Stdx.Stats.linear_fit usable in
        slope
    | _ -> Float.nan
  in
  let author_total =
    Hashtbl.fold (fun _ n acc -> acc + n) author_counts 0
  in
  let authors_sorted =
    Stdx.Det_tbl.sorted_bindings ~compare:String.compare author_counts
    |> List.map snd
    |> List.sort (fun a b -> Int.compare b a)
    |> Array.of_list
  in
  let author_frequency =
    List.filter_map
      (fun r ->
        if r <= Array.length authors_sorted && author_total > 0 then
          Some (r, float_of_int authors_sorted.(r - 1) /. float_of_int author_total)
        else None)
      ranks
  in
  {
    ranks;
    article_probability = List.map (fun r -> (r, Stdx.Power_law.probability law r)) ranks;
    observed_frequency;
    fitted_slope = fit_log_log observed_frequency;
    author_frequency;
    author_slope = fit_log_log author_frequency;
  }

(* ------------------------------------------------------------------ *)
(* Fig. 10: the complementary CDF. *)

type ccdf_row = { rank : int; formula : float; model : float }

let fig10_ccdf scale =
  let law = Query_gen.paper_popularity ~article_count:scale.article_count in
  List.map
    (fun rank ->
      let formula =
        Float.max 0.0
          (1.0 -. (Stdx.Power_law.paper_c *. (float_of_int rank ** Stdx.Power_law.paper_alpha)))
      in
      { rank; formula; model = Stdx.Power_law.ccdf law rank })
    (sample_ranks scale.article_count)

(* ------------------------------------------------------------------ *)
(* Storage (Section V-B). *)

type storage_row = {
  scheme : string;
  index_bytes : int;
  overhead_vs_simple : float;
  article_bytes : int;
  index_to_data_ratio : float;
  dblp_scaled_bytes : float;
}

let dblp_article_count = 115_879.

let storage_overhead grid =
  let report kind = Grid.report grid ~scheme:kind ~policy:Policy.no_cache in
  let simple_bytes = (report Schemes.Simple).Runner.index_bytes in
  List.map
    (fun kind ->
      let r = report kind in
      let scale_factor =
        dblp_article_count /. float_of_int (Grid.scale grid).article_count
      in
      {
        scheme = Schemes.label kind;
        index_bytes = r.Runner.index_bytes;
        overhead_vs_simple =
          (float_of_int r.Runner.index_bytes /. float_of_int simple_bytes) -. 1.0;
        article_bytes = r.Runner.article_bytes;
        index_to_data_ratio =
          float_of_int r.Runner.index_bytes /. float_of_int r.Runner.article_bytes;
        dblp_scaled_bytes = float_of_int r.Runner.index_bytes *. scale_factor;
      })
    Schemes.all

type keys_row = { scheme : string; keys_per_node_mean : float; paper_value : float }

let paper_keys_per_node = function
  | Schemes.Simple -> 155.0
  | Schemes.Flat -> 195.0
  | Schemes.Complex -> 180.0
  | Schemes.Complex_ac | Schemes.Prefix -> Float.nan

let keys_per_node grid =
  List.map
    (fun kind ->
      let r = Grid.report grid ~scheme:kind ~policy:Policy.no_cache in
      {
        scheme = Schemes.label kind;
        keys_per_node_mean = Runner.regular_keys_mean r;
        paper_value = paper_keys_per_node kind;
      })
    Schemes.all

(* ------------------------------------------------------------------ *)
(* Figs. 11-14 and Table I. *)

type cell = { scheme : string; policy : string; value : float }

let fig11_policies = [ Policy.no_cache; Policy.single_cache; Policy.lru 10; Policy.lru 20; Policy.lru 30 ]
let fig12_policies = Policy.paper_policies
let caching_policies = [ Policy.multi_cache; Policy.single_cache; Policy.lru 10; Policy.lru 20; Policy.lru 30 ]

let cells grid policies metric =
  List.concat_map
    (fun scheme ->
      List.map
        (fun policy ->
          let r = Grid.report grid ~scheme ~policy in
          { scheme = Schemes.label scheme; policy = Policy.label policy; value = metric r })
        policies)
    Schemes.all

let fig11_interactions grid = cells grid fig11_policies Runner.interactions_mean

type traffic_cell = {
  scheme : string;
  policy : string;
  normal_bytes : float;
  cache_bytes : float;
}

let fig12_traffic grid =
  List.concat_map
    (fun scheme ->
      List.map
        (fun policy ->
          let r = Grid.report grid ~scheme ~policy in
          {
            scheme = Schemes.label scheme;
            policy = Policy.label policy;
            normal_bytes = Runner.normal_traffic_per_query r;
            cache_bytes = Runner.cache_traffic_per_query r;
          })
        fig12_policies)
    Schemes.all

let fig13_hit_ratio grid = cells grid caching_policies Runner.hit_ratio

let fig13_first_node_share grid =
  List.map
    (fun scheme ->
      let r = Grid.report grid ~scheme ~policy:Policy.multi_cache in
      {
        scheme = Schemes.label scheme;
        policy = Policy.label Policy.multi_cache;
        value = Runner.first_node_hit_share r;
      })
    Schemes.all

let fig14_cache_storage grid = cells grid caching_policies Runner.cached_keys_mean

type cache_extremes = {
  policy : string;
  scheme : string;
  max_cached : int;
  full_share : float;
  empty_share : float;
}

let fig14_extremes grid =
  List.concat_map
    (fun scheme ->
      List.map
        (fun policy ->
          let r = Grid.report grid ~scheme ~policy in
          {
            policy = Policy.label policy;
            scheme = Schemes.label scheme;
            max_cached = Runner.cached_keys_max r;
            full_share = Runner.caches_full_share r;
            empty_share = Runner.caches_empty_share r;
          })
        caching_policies)
    Schemes.all

type hotspot_series = {
  policy : string;
  share_by_rank : (int * float) list;
  gini : float;  (* load imbalance: 0 = balanced, 1 = one node does it all *)
}

let fig15_hotspots grid =
  let scale = Grid.scale grid in
  let series policy =
    let r = Grid.report grid ~scheme:Schemes.Simple ~policy in
    let touches = Array.copy r.Runner.node_touches in
    Array.sort (fun a b -> Int.compare b a) touches;
    let ranks =
      List.filter (fun i -> i <= Array.length touches)
        [ 1; 2; 3; 5; 10; 20; 50; 100; 200; 500 ]
    in
    {
      policy = Policy.label policy;
      share_by_rank =
        List.map
          (fun rank ->
            (rank, float_of_int touches.(rank - 1) /. float_of_int scale.query_count))
          ranks;
      gini = Stdx.Stats.gini (Array.map float_of_int touches);
    }
  in
  List.map series [ Policy.no_cache; Policy.single_cache; Policy.lru 30 ]

let table1_policies = [ Policy.no_cache; Policy.lru 30; Policy.single_cache ]

let table1_errors grid =
  List.concat_map
    (fun policy ->
      List.map
        (fun scheme ->
          let r = Grid.report grid ~scheme ~policy in
          {
            scheme = Schemes.label scheme;
            policy = Policy.label policy;
            value = float_of_int r.Runner.errors;
          })
        Schemes.all)
    table1_policies

(* ------------------------------------------------------------------ *)
(* Ablations. *)

type substrate_row = {
  substrate : string;
  interactions : float;
  normal_bytes : float;
  substrate_overhead_bytes : float;
}

let ablation_substrate scale =
  (* The point of this ablation is metric equality across substrates, not
     scale; capping it keeps CAN's O(n)-per-hop simulation affordable. *)
  let scale =
    {
      scale with
      node_count = Stdlib.min scale.node_count 150;
      query_count = Stdlib.min scale.query_count 5_000;
      article_count = Stdlib.min scale.article_count 2_000;
    }
  in
  let base = config_of_scale scale in
  let run substrate charge =
    Runner.run
      {
        base with
        substrate;
        charge_route_hops = charge;
        scheme = Schemes.Simple;
        policy = Policy.single_cache;
      }
  in
  let static = run Runner.Static false in
  let chord = run Runner.Chord true in
  let pastry = run Runner.Pastry true in
  let can = run Runner.Can true in
  let kademlia = run Runner.Kademlia true in
  let per_query bytes r =
    float_of_int bytes /. float_of_int (Stdx.Stats.Summary.count r.Runner.interactions)
  in
  [
    {
      substrate = "Static oracle";
      interactions = Runner.interactions_mean static;
      normal_bytes = Runner.normal_traffic_per_query static;
      substrate_overhead_bytes = per_query static.Runner.maintenance_bytes static;
    };
    {
      substrate = "Chord";
      interactions = Runner.interactions_mean chord;
      normal_bytes = Runner.normal_traffic_per_query chord;
      substrate_overhead_bytes = per_query chord.Runner.maintenance_bytes chord;
    };
    {
      substrate = "Pastry";
      interactions = Runner.interactions_mean pastry;
      normal_bytes = Runner.normal_traffic_per_query pastry;
      substrate_overhead_bytes = per_query pastry.Runner.maintenance_bytes pastry;
    };
    {
      substrate = "CAN (2-d)";
      interactions = Runner.interactions_mean can;
      normal_bytes = Runner.normal_traffic_per_query can;
      substrate_overhead_bytes = per_query can.Runner.maintenance_bytes can;
    };
    {
      substrate = "Kademlia";
      interactions = Runner.interactions_mean kademlia;
      normal_bytes = Runner.normal_traffic_per_query kademlia;
      substrate_overhead_bytes = per_query kademlia.Runner.maintenance_bytes kademlia;
    };
  ]

type skew_row = { alpha : float; hit_ratio : float; interactions : float }

let ablation_skew scale =
  (* A Zipf family gives a clean monotone axis: s = 0 is uniform popularity,
     larger s concentrates queries on fewer articles. *)
  let base = config_of_scale scale in
  List.map
    (fun s ->
      let r =
        Runner.run
          {
            base with
            popularity = Runner.Zipf s;
            scheme = Schemes.Simple;
            policy = Policy.lru 30;
          }
      in
      { alpha = s; hit_ratio = Runner.hit_ratio r; interactions = Runner.interactions_mean r })
    [ 0.0; 0.4; 0.8; 1.2 ]

type replication_row = {
  replication : int;
  failed_fraction : float;
  available_keys : float;  (* fraction of index keys still reachable *)
  storage_cost : int;  (* total replica entries *)
}

let ablation_replication scale =
  (* Store the simple scheme's index keys in replicated stores and measure
     how many survive node failures — Section IV-D's availability argument.
     Failures are drawn deterministically from the seed. *)
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let resolver =
    Dht.Static_dht.resolver
      (Dht.Static_dht.create ~seed:scale.seed ~node_count:scale.node_count ())
  in
  let edges =
    P2pindex.Scheme.collection_edges ~compare_query:Bib.Bib_query.compare
      (Schemes.scheme Schemes.Simple)
      (Array.to_list (Array.map Bib.Bib_query.msd articles))
  in
  let keys =
    List.sort_uniq Hashing.Key.compare
      (List.map
         (fun { P2pindex.Scheme.parent; _ } ->
           Hashing.Key.of_string (Bib.Bib_query.to_string parent))
         edges)
  in
  let rows = ref [] in
  List.iter
    (fun replication ->
      List.iter
        (fun failed_fraction ->
          let store : unit Storage.Replicated_store.t =
            Storage.Replicated_store.create ~resolver ~replication ()
          in
          List.iter (fun key -> Storage.Replicated_store.insert store ~key ()) keys;
          let g = Stdx.Prng.create ~seed:(Int64.add scale.seed 77L) in
          let victims = int_of_float (failed_fraction *. float_of_int scale.node_count) in
          let order = Array.init scale.node_count (fun i -> i) in
          Stdx.Prng.shuffle g order;
          for i = 0 to victims - 1 do
            Storage.Replicated_store.fail_node store order.(i)
          done;
          let surviving =
            List.fold_left
              (fun acc key ->
                if Storage.Replicated_store.available store key then acc + 1 else acc)
              0 keys
          in
          rows :=
            {
              replication;
              failed_fraction;
              available_keys = float_of_int surviving /. float_of_int (List.length keys);
              storage_cost = Storage.Replicated_store.total_replica_entries store;
            }
            :: !rows)
        [ 0.1; 0.3; 0.5 ])
    [ 1; 2; 3 ];
  List.rev !rows

type churn_row = {
  churn_rate : float;
  churn_replication : int;
  availability : float;
  churn_interactions : float;
  maintenance_per_query : float;
  live_nodes_end : float;  (* live nodes when the run ended *)
}

let churn_rates = [ 0.0; 0.0005; 0.002; 0.008 ]
let churn_replications = [ 1; 3 ]

let ablation_churn scale =
  (* The churned run mode end-to-end: nodes crash and rejoin on seeded
     session lifetimes while the workload runs; soft state is republished
     and repaired.  Availability degrades with the churn rate and recovers
     with replication — Section IV-D's argument, measured.  The run length
     is query_count / query_rate virtual seconds, so the maintenance
     periods below are chosen to fire several times even at quick scale. *)
  let base =
    { (config_of_scale scale) with scheme = Schemes.Simple; policy = Policy.no_cache }
  in
  let churn_of ~churn_rate ~replication =
    {
      Runner.default_churn with
      churn_rate;
      replication;
      ttl = 90.0;
      republish_period = 30.0;
      repair_period = 10.0;
    }
  in
  List.concat_map
    (fun churn_rate ->
      List.map
        (fun replication ->
          let r =
            Runner.run
              { base with churn = Some (churn_of ~churn_rate ~replication) }
          in
          let live_nodes_end =
            let metric =
              List.find_opt
                (fun (f : Obs.Metrics.family) ->
                  String.equal f.name "p2pindex_churn_live_nodes")
                r.Runner.metrics
            in
            match metric with
            | Some { series = { value = Obs.Metrics.Gauge_value v; _ } :: _; _ } -> v
            | _ -> float_of_int base.Runner.node_count
          in
          {
            churn_rate;
            churn_replication = replication;
            availability = Runner.availability r;
            churn_interactions = Runner.interactions_mean r;
            maintenance_per_query = Runner.maintenance_traffic_per_query r;
            live_nodes_end;
          })
        churn_replications)
    churn_rates

type fault_sweep_row = {
  sweep_loss_rate : float;
  sweep_retries : int;
  sweep_hedged : bool;
  lookup_success : float;  (* RPC exchanges answered within budget *)
  fault_availability : float;  (* sessions that found their target *)
  fault_interactions : float;
  sweep_timeouts : int;
  sweep_retries_used : int;
  sweep_hedges_won : int;
}

let fault_loss_rates = [ 0.0; 0.05; 0.2 ]
let fault_retry_budgets = [ 0; 2 ]

let fault_sweep scale =
  (* Lookup success under message loss, across the retry budget.  Every
     cell shares the duplicate rate and latency; only loss and the retry
     budget vary, so the table isolates what retries + hedging buy back.
     Capped like the substrate ablation: the point is rates, not scale.
     All randomness is seeded, so the same scale prints the same table. *)
  let scale =
    {
      scale with
      node_count = Stdlib.min scale.node_count 150;
      query_count = Stdlib.min scale.query_count 5_000;
      article_count = Stdlib.min scale.article_count 2_000;
    }
  in
  let base =
    { (config_of_scale scale) with scheme = Schemes.Simple; policy = Policy.no_cache }
  in
  List.concat_map
    (fun loss_rate ->
      List.map
        (fun retries ->
          let hedged = retries > 0 in
          let faults =
            {
              Runner.default_faults with
              loss_rate;
              duplicate_rate = 0.05;
              latency_mean = 0.02;
              rpc_retries = retries;
              hedge = hedged;
              fault_replication = 3;
            }
          in
          let r = Runner.run { base with faults = Some faults } in
          {
            sweep_loss_rate = loss_rate;
            sweep_retries = retries;
            sweep_hedged = hedged;
            lookup_success = Runner.lookup_success_rate r;
            fault_availability = Runner.availability r;
            fault_interactions = Runner.interactions_mean r;
            sweep_timeouts = r.Runner.rpc_timeouts;
            sweep_retries_used = r.Runner.rpc_retries;
            sweep_hedges_won = r.Runner.rpc_hedges_won;
          })
        fault_retry_budgets)
    fault_loss_rates

type concurrency_row = {
  row_concurrency : int;
  row_coalesce : bool;
  row_coalesced : int;  (* probes that rode another probe's response *)
  row_normal_per_query : float;
  row_cache_per_query : float;
  row_session_latency : float;  (* mean arrival-to-completion, virtual s *)
  row_peak_in_flight : int;
}

let concurrency_levels = [ 1; 4; 16; 64 ]

let concurrency_sweep scale =
  (* The singleflight experiment: the same hot-spot-prone workload
     (Fig. 15's load concentration) run with overlapping sessions.  RPC
     latency gives probes a window in which identical probes from other
     sessions can coalesce; fault rates stay zero and the timeout is kept
     far above any drawn latency so nothing is lost or retried — the
     traffic difference is coalescing and nothing else.  Capped like the
     fault sweep; all randomness is seeded, so the same scale prints the
     same table. *)
  let scale =
    {
      scale with
      node_count = Stdlib.min scale.node_count 100;
      query_count = Stdlib.min scale.query_count 1_500;
      article_count = Stdlib.min scale.article_count 2_000;
    }
  in
  let faults =
    { Runner.default_faults with latency_mean = 0.05; rpc_timeout = 50.0 }
  in
  let base =
    {
      (config_of_scale scale) with
      scheme = Schemes.Simple;
      policy = Policy.no_cache;
      faults = Some faults;
    }
  in
  let row ~concurrency ~coalesce =
    let r = Engine.run ~concurrency ~coalesce base in
    {
      row_concurrency = concurrency;
      row_coalesce = coalesce;
      row_coalesced = r.Engine.coalesced;
      row_normal_per_query = Runner.normal_traffic_per_query r.Engine.base;
      row_cache_per_query = Runner.cache_traffic_per_query r.Engine.base;
      row_session_latency = Stdx.Stats.Summary.mean r.Engine.session_latency;
      row_peak_in_flight = r.Engine.peak_in_flight;
    }
  in
  List.concat_map
    (fun concurrency ->
      if concurrency = 1 then [ row ~concurrency ~coalesce:false ]
      else
        [ row ~concurrency ~coalesce:false; row ~concurrency ~coalesce:true ])
    concurrency_levels

type scheme_variant_row = {
  scheme_label : string;
  interactions : float;
  non_indexed_errors : int;
  index_megabytes : float;
}

let ablation_scheme_variants scale =
  (* The Complex_ac variant adds an (author, conference) entry-point index.
     Under a workload where users actually combine author and venue, the
     entry point turns recoverable errors into direct chains; the cost is
     extra index storage. *)
  let mix =
    {
      Query_gen.bibfinder_mix with
      Query_gen.p_author = 0.40;
      p_author_conf = 0.25;
    }
  in
  let base = { (config_of_scale scale) with mix; policy = Policy.no_cache } in
  List.map
    (fun scheme ->
      let r = Runner.run { base with scheme } in
      {
        scheme_label = Schemes.label scheme;
        interactions = Runner.interactions_mean r;
        non_indexed_errors = r.Runner.errors;
        index_megabytes = float_of_int r.Runner.index_bytes /. (1024.0 *. 1024.0);
      })
    [ Schemes.Complex; Schemes.Complex_ac ]

type deletion_row = {
  deleted_fraction : float;
  mappings_before : int;
  mappings_after : int;
  dangling_lookups : int;  (* deleted articles still reachable: must be 0 *)
  survivors_lost : int;  (* remaining articles no longer reachable: must be 0 *)
}

let ablation_deletion scale =
  (* Read/write semantics (Section IV-C): deleting a file must remove every
     index path to it — recursively, when a mapping's target dies — while
     shared coarse entries keep serving the surviving files. *)
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let resolver =
    Dht.Static_dht.resolver
      (Dht.Static_dht.create ~seed:scale.seed ~node_count:scale.node_count ())
  in
  let reachable index (a : Bib.Article.t) =
    let query = Bib.Bib_query.author_q (List.hd a.Bib.Article.authors) in
    List.exists
      (fun (msd, _file) -> Bib.Bib_query.equal msd (Bib.Bib_query.msd a))
      (Bib.Bib_index.search index query)
  in
  List.map
    (fun deleted_fraction ->
      let index = Bib.Bib_index.create ~resolver () in
      Bib.Bib_index.publish_corpus index ~kind:Schemes.Simple articles;
      let mappings_before = Bib.Bib_index.mapping_count index in
      let victim_count =
        int_of_float (deleted_fraction *. float_of_int scale.article_count)
      in
      let victims = Array.sub articles 0 victim_count in
      let survivors =
        Array.sub articles victim_count (scale.article_count - victim_count)
      in
      Array.iter
        (fun a ->
          Bib.Bib_index.unpublish index ~scheme:(Schemes.scheme Schemes.Simple)
            ~msd:(Bib.Bib_query.msd a))
        victims;
      let dangling_lookups =
        Array.fold_left (fun acc a -> if reachable index a then acc + 1 else acc) 0 victims
      in
      let survivors_lost =
        Array.fold_left
          (fun acc a -> if reachable index a then acc else acc + 1)
          0 survivors
      in
      {
        deleted_fraction;
        mappings_before;
        mappings_after = Bib.Bib_index.mapping_count index;
        dangling_lookups;
        survivors_lost;
      })
    [ 0.1; 0.5; 1.0 ]

type hotspot_replication_row = {
  key_replicas : int;
  busiest_share : float;  (* share of all interactions at the busiest node *)
  load_gini : float;
}

let ablation_hotspot_replication scale =
  (* Section V-g: "any optimization of the underlying P2P DHT substrate for
     hot-spot avoidance (e.g., using replication) will apply to index
     accesses as well."  Replicate every index key on r nodes and spread
     reads round-robin across the replicas; measure the busiest node's load
     and the overall imbalance. *)
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let resolver =
    Dht.Static_dht.resolver
      (Dht.Static_dht.create ~seed:scale.seed ~node_count:scale.node_count ())
  in
  let gen =
    Workload.Query_gen.create ~articles ~seed:(Int64.add scale.seed 1_000_003L) ()
  in
  (* Per-key interaction counts from the no-cache walk (entry query, its
     chain, and the failed probe of non-indexed queries). *)
  let key_counts : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  let bump q =
    let s = Bib.Bib_query.to_string q in
    Hashtbl.replace key_counts s (1 + Option.value ~default:0 (Hashtbl.find_opt key_counts s))
  in
  for _ = 1 to scale.query_count do
    let event = Workload.Query_gen.next gen in
    match Schemes.chain_to Schemes.Simple event.target event.query with
    | chain ->
        bump event.query;
        List.iter bump chain
    | exception Invalid_argument _ ->
        (* Non-indexed shape: the failed probe, then the generalized chain. *)
        bump event.query;
        let fallback =
          List.find
            (fun g -> Bib.Bib_query.matches_article g event.target)
            (Bib.Bib_query.generalizations event.query)
        in
        bump fallback;
        List.iter bump (Schemes.chain_to Schemes.Simple event.target fallback)
  done;
  let row key_replicas =
    let loads = Array.make scale.node_count 0.0 in
    (* Float load shares accumulate per node: iterate keys in sorted order so
       the addition order (and the rounding it implies) is reproducible. *)
    Stdx.Det_tbl.iter_sorted ~compare:String.compare
      (fun key_string count ->
        let key = Hashing.Key.of_string key_string in
        let replicas = Dht.Resolver.replicas resolver key key_replicas in
        let n = List.length replicas in
        (* Round-robin reads: each replica takes an equal share. *)
        List.iter
          (fun node -> loads.(node) <- loads.(node) +. (float_of_int count /. float_of_int n))
          replicas)
      key_counts;
    let total = Array.fold_left ( +. ) 0.0 loads in
    let busiest = Array.fold_left Float.max 0.0 loads in
    {
      key_replicas;
      busiest_share = (if total > 0.0 then busiest /. total else 0.0);
      load_gini = Stdx.Stats.gini loads;
    }
  in
  List.map row [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Prefix sweep: routed range search vs broadcast-and-filter. *)

type prefix_sweep_row = {
  sweep_prefix_len : int;
  routed_nodes_mean : float;  (* covering nodes contacted per routed query *)
  sweep_broadcast_nodes : int;  (* the flooding baseline contacts them all *)
  direct_bytes_per_query : float;
  multicast_bytes_per_query : float;
  broadcast_bytes_per_query : float;
  install_messages : int;  (* spanning-tree dissemination of the index *)
  install_bound_slack : int;  (* members + edges - messages, >= 0 *)
  install_depth : int;
  sweep_interactions : float;  (* end-to-end walk with the prefix route *)
  sweep_normal_bytes : float;
}

let prefix_lens = [ 1; 2; 3 ]

let prefix_sweep scale =
  (* The hashed schemes can only answer [Smi*] by flooding every node and
     filtering; the prefix index files terms under order-preserving keys,
     so the same query routes to the few nodes covering one ring arc.
     Two measurements per prefix length: a standalone harness that prices
     the same probe stream three ways (direct exchanges, spanning-tree
     multicast, broadcast-and-filter) on one billed network, and a full
     [Runner.run] with the prefix scheme for the end-to-end walk numbers.
     Probes are capped — the point is per-query means, not scale — and
     every draw is seeded, so the same scale prints the same table. *)
  let probe_count = Stdlib.min scale.query_count 1_000 in
  let articles =
    Bib.Corpus.generate ~seed:scale.seed
      (Bib.Corpus.default_config ~article_count:scale.article_count)
  in
  let lasts =
    Array.to_list articles
    |> List.concat_map (fun (a : Bib.Article.t) ->
           List.map (fun (x : Bib.Article.author) -> x.Bib.Article.last) a.authors)
    |> List.sort_uniq String.compare
    |> Array.of_list
  in
  let entries =
    Array.to_list articles
    |> List.concat_map (fun (a : Bib.Article.t) ->
           List.map
             (fun (x : Bib.Article.author) ->
               (x.Bib.Article.last, Bib.Bib_query.author_q x))
             a.authors)
    |> List.sort_uniq (fun (t1, q1) (t2, q2) ->
           match String.compare t1 t2 with
           | 0 -> Bib.Bib_query.compare q1 q2
           | c -> c)
  in
  let resolver =
    Dht.Static_dht.resolver
      (Dht.Static_dht.create ~seed:scale.seed ~node_count:scale.node_count ())
  in
  List.map
    (fun len ->
      let network = Dht.Network.create ~node_count:scale.node_count () in
      let rpc = Dht.Rpc.create ~network () in
      let pindex =
        Prefix.Prefix_index.create ~rpc ~render:Bib.Bib_query.to_string
          ~resolver ()
      in
      let install_messages, install_depth, install_slack =
        match Prefix.Prefix_index.publish_multicast pindex entries with
        | None -> (0, 0, 0)
        | Some (s : Prefix.Multicast.stats) ->
            (* The issue's bound: one message per covering member plus one
               per tree edge; non-negative slack certifies it held. *)
            (s.messages, s.depth, s.fanout + (s.fanout - 1) - s.messages)
      in
      Dht.Network.reset network;
      let prng = Stdx.Prng.create ~seed:scale.seed in
      let covering_sum = ref 0 in
      let direct_bytes = ref 0 in
      let multicast_bytes = ref 0 in
      let broadcast_bytes = ref 0 in
      let measure f =
        let before = Dht.Network.total_bytes network in
        let (_ : (string * Bib.Bib_query.t) list) = f () in
        Dht.Network.total_bytes network - before
      in
      for _ = 1 to probe_count do
        let last = Stdx.Prng.pick prng lasts in
        let prefix = String.sub last 0 (Stdlib.min len (String.length last)) in
        covering_sum :=
          !covering_sum
          + List.length (Prefix.Prefix_index.covering_nodes pindex ~prefix);
        direct_bytes :=
          !direct_bytes
          + measure (fun () -> Prefix.Prefix_index.query pindex ~prefix);
        multicast_bytes :=
          !multicast_bytes
          + measure (fun () ->
                Prefix.Prefix_index.query ~multicast:true pindex ~prefix);
        broadcast_bytes :=
          !broadcast_bytes
          + measure (fun () -> Prefix.Prefix_index.query_broadcast pindex ~prefix)
      done;
      let per x = float_of_int x /. float_of_int probe_count in
      let r =
        Runner.run
          {
            (config_of_scale scale) with
            scheme = Schemes.Prefix;
            policy = Policy.no_cache;
            mix = Query_gen.prefix_mix Runner.default_config.mix;
            prefix = Some { Runner.prefix_len = len; multicast = true };
          }
      in
      {
        sweep_prefix_len = len;
        routed_nodes_mean = per !covering_sum;
        sweep_broadcast_nodes = scale.node_count;
        direct_bytes_per_query = per !direct_bytes;
        multicast_bytes_per_query = per !multicast_bytes;
        broadcast_bytes_per_query = per !broadcast_bytes;
        install_messages;
        install_bound_slack = install_slack;
        install_depth;
        sweep_interactions = Runner.interactions_mean r;
        sweep_normal_bytes = Runner.normal_traffic_per_query r;
      })
    prefix_lens

type quorum_sweep_row = {
  sweep_churn_rate : float;
  sweep_read_quorum : int;
  quorum_stale_rate : float;
  quorum_availability : float;
  quorum_sweep_reads : int;
  quorum_sweep_read_repairs : int;
  quorum_sweep_under_acked : int;
  quorum_maint_per_query : float;
  quorum_digest_bytes : int;
  quorum_shipped_bytes : int;
  quorum_full_state_bytes : int;
}

let quorum_read_quorums = [ 1; 2; 3 ]
let quorum_churn_rates = [ 0.002; 0.01 ]

let quorum_sweep scale =
  (* Consistency under churn, over read quorum x churn rate, at
     replication 3 with W = 3 and digest-based anti-entropy replacing
     the repair walk.  Every row is a churned run whose replicas really
     diverge (paused replicas sleep through writes and rejoin lagging),
     so R is the only knob: consulting more replicas per lookup lowers
     the stale-read rate at the price of extra probes.  Republication
     is quickened so even the capped quick scale spans several rounds
     of virtual time — writes during a replica's nap are what create
     the staleness R masks.  Capped like the fault sweep; all
     randomness is seeded, so the same scale prints the same table. *)
  let scale =
    {
      scale with
      node_count = Stdlib.min scale.node_count 150;
      query_count = Stdlib.min scale.query_count 5_000;
      article_count = Stdlib.min scale.article_count 2_000;
    }
  in
  let base =
    { (config_of_scale scale) with scheme = Schemes.Simple; policy = Policy.no_cache }
  in
  List.concat_map
    (fun churn_rate ->
      List.map
        (fun read_quorum ->
          let churn =
            {
              Runner.default_churn with
              churn_rate;
              replication = 3;
              republish_period = 20.0;
            }
          in
          let quorum =
            {
              Runner.read_quorum;
              write_quorum = 3;
              anti_entropy_interval = 10.0;
            }
          in
          let r =
            Runner.run { base with churn = Some churn; quorum = Some quorum }
          in
          {
            sweep_churn_rate = churn_rate;
            sweep_read_quorum = read_quorum;
            quorum_stale_rate = Runner.stale_read_rate r;
            quorum_availability = Runner.availability r;
            quorum_sweep_reads = r.Runner.quorum_reads;
            quorum_sweep_read_repairs = r.Runner.quorum_read_repairs;
            quorum_sweep_under_acked = r.Runner.quorum_write_failures;
            quorum_maint_per_query = Runner.maintenance_traffic_per_query r;
            quorum_digest_bytes = r.Runner.antientropy_digest_bytes;
            quorum_shipped_bytes = r.Runner.antientropy_shipped_bytes;
            quorum_full_state_bytes = r.Runner.antientropy_full_state_bytes;
          })
        quorum_read_quorums)
    quorum_churn_rates

type scale_sweep_row = {
  scale_nodes : int;
  scale_articles : int;
  scale_queries : int;
  scale_interactions : float;
  scale_normal_bytes : float;
  scale_errors : int;
  scale_minor_words_per_query : float;
  scale_phases : Obs.Phase.entry list;
}

let scale_sweep_shards = 4

let scale_sweep_ladder scale =
  (* Absolute population rungs — the sweep measures how cost per query
     holds as the network grows, so the rungs do not scale with the
     figure-level knobs.  The million-node rung only rides the paper
     scale; the quick ladder tops out at 10^5 so the bench gate stays
     fast. *)
  let base = [ (10_000, 5_000, 20_000); (100_000, 20_000, 100_000) ] in
  if scale.node_count >= paper_scale.node_count then
    base @ [ (1_000_000, 100_000, 1_000_000) ]
  else base

let scale_sweep scale =
  (* The sharded engine at population scale: each rung partitions the
     network into four isolated shards, runs them on one worker (so the
     per-phase allocation profile is exact — GC counters are per-domain)
     and merges deterministically.  The phase collector uses the null
     clock, so every number in the row, allocation words included, is
     byte-reproducible. *)
  List.map
    (fun (nodes, articles, queries) ->
      let phases = Obs.Phase.create () in
      let cfg =
        {
          Runner.default_config with
          scheme = Schemes.Simple;
          policy = Policy.no_cache;
          node_count = nodes;
          article_count = articles;
          query_count = queries;
          seed = scale.seed;
        }
      in
      let sr = Sharded.run ~shards:scale_sweep_shards ~domains:1 ~phases cfg in
      let r = sr.Sharded.engine.Engine.base in
      let entries = Obs.Phase.entries phases in
      let minor =
        List.fold_left
          (fun acc (e : Obs.Phase.entry) -> acc +. e.Obs.Phase.minor_words)
          0.0 entries
      in
      {
        scale_nodes = nodes;
        scale_articles = articles;
        scale_queries = queries;
        scale_interactions = Runner.interactions_mean r;
        scale_normal_bytes = Runner.normal_traffic_per_query r;
        scale_errors = r.Runner.errors;
        scale_minor_words_per_query = minor /. float_of_int queries;
        scale_phases = entries;
      })
    (scale_sweep_ladder scale)


(* ------------------------------------------------------------------ *)
(* The experiment table.  Every experiment is declared once, in
   [experiments] below: its id, the data function that computes it and
   the blocks that present the result.  A block of rows declares fields:
   a field may print as a table column, feed a bench-report metric, or
   both, so the printed table and the metrics read the same value.  One
   renderer and one metrics extractor serve every entry.

   Metric names are flattened under "exp/<id>/" by
   {!Obs.Bench_report.flatten} and are slugs, so the diff tool's paths
   stay shell-friendly.  Direction conventions: costs (interactions,
   bytes, errors) are lower-better, success ratios (hit ratio,
   availability, RPC success) higher-better, distribution shapes
   (slopes, gini, cache occupancy) informational. *)

type 'r cell_render =
  | Cell of ('r -> string)
  | Bar of ('r -> float)  (* a 30-cell bar scaled to the column's largest value *)

type 'r field = {
  column : (string * 'r cell_render) option;  (* header and cell *)
  metric : (string * Obs.Bench_report.direction * ('r -> (string * float) list)) option;
      (* one metric per (sub-key, value) pair; the sub-key is usually "" *)
}

type 'd block =
  | Heading of string
  | Text of ('d -> string)
  | Rows : ('d -> 'r list) * ('r -> string) * 'r field list -> 'd block
      (* rows, the per-row metric key, fields: a table of the fields that
         have columns (none printed when no field has one), then per row
         each field's metric, named "<name>/<key>/<sub-key>" with empty
         parts dropped *)

type experiment =
  | Experiment : { id : string; compute : Grid.t -> 'd; blocks : 'd block list } -> experiment

let slug s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char buf c
      | _ ->
          if
            Buffer.length buf > 0
            && Buffer.nth buf (Buffer.length buf - 1) <> '_'
          then Buffer.add_char buf '_')
    s;
  let s = Buffer.contents buf in
  if String.length s > 0 && s.[String.length s - 1] = '_' then
    String.sub s 0 (String.length s - 1)
  else s

let fnum f = slug (Printf.sprintf "%g" f)
let lower = Obs.Bench_report.Lower_better
let higher = Obs.Bench_report.Higher_better
let info = Obs.Bench_report.Informational

let single metric value =
  Option.map (fun (name, better) -> (name, better, fun r -> [ ("", value r) ])) metric

let field ?metric header format value =
  { column = Some (header, Cell (fun r -> format (value r))); metric = single metric value }

let fixed ?metric decimals header value =
  field ?metric header (fun v -> Tabular.fmt_float ~decimals v) value

let pct ?metric header value = field ?metric header (fun v -> Tabular.fmt_pct v) value

let count ?metric header value =
  {
    column = Some (header, Cell (fun r -> string_of_int (value r)));
    metric = single metric (fun r -> float_of_int (value r));
  }

let text header cell = { column = Some (header, Cell cell); metric = None }
let bar value = { column = Some ("", Bar value); metric = None }

let measure name better value = { column = None; metric = single (Some (name, better)) value }

let measure_each name better values = { column = None; metric = Some (name, better, values) }
let note s = Text (fun _ -> s)
let table rows fields = Rows (rows, (fun _ -> ""), fields)
let whole d = [ d ]
let on_scale f grid = f (Grid.scale grid)
let yes_no b = if b then "yes" else "no"
let cell_key (c : cell) = slug c.scheme ^ "/" ^ slug c.policy

let cell_fields unit metric =
  [
    text "scheme" (fun (c : cell) -> c.scheme);
    text "policy" (fun (c : cell) -> c.policy);
    fixed ~metric 3 unit (fun (c : cell) -> c.value);
    bar (fun (c : cell) -> c.value);
  ]

let abs_error_max pairs =
  List.fold_left (fun acc (a, b) -> Float.max acc (Float.abs (a -. b))) 0.0 pairs

let experiments =
  [
    Experiment
      {
        id = "fig7";
        compute = on_scale fig7_query_mix;
        blocks =
          [
            (* Metrics only, listed first: the summary leads the metric list. *)
            table whole
              [
                measure "mix_abs_error_max" lower (fun rows ->
                    abs_error_max (List.map (fun (r : mix_row) -> (r.model, r.observed)) rows));
              ];
            Heading "Fig. 7 — Query-structure mix (model vs generated workload)";
            Rows
              ( Fun.id,
                (fun (r : mix_row) -> slug r.structure),
                [
                  text "structure" (fun (r : mix_row) -> r.structure);
                  pct "model (BibFinder)" (fun (r : mix_row) -> r.model);
                  pct ~metric:("mix_observed", info) "observed" (fun (r : mix_row) -> r.observed);
                ] );
          ];
      };
    Experiment
      {
        id = "fig9";
        compute = on_scale fig9_popularity;
        blocks =
          [
            Heading "Fig. 9 — Article popularity (log-log rank/probability)";
            table
              (fun s ->
                List.map
                  (fun rank ->
                    (rank, List.assoc rank s.article_probability, List.assoc rank s.observed_frequency))
                  s.ranks)
              [
                count "rank" (fun (rank, _, _) -> rank);
                fixed 6 "model p(i)" (fun (_, model, _) -> model);
                fixed 6 "observed freq" (fun (_, _, observed) -> observed);
              ];
            Text
              (fun s ->
                Printf.sprintf
                  "article log-log slope: %.3f (power law; paper reports a power-law family)\n"
                  s.fitted_slope);
            note "author-query popularity (BibFinder-authors analogue):\n";
            table (fun s -> s.author_frequency) [ count "author rank" fst; fixed 6 "observed freq" snd ];
            Text (fun s -> Printf.sprintf "author log-log slope: %.3f\n" s.author_slope);
            table whole
              [
                measure "article_slope" info (fun s -> s.fitted_slope);
                measure "author_slope" info (fun s -> s.author_slope);
                measure "top_rank_freq" info (fun s ->
                    match s.observed_frequency with (_, f) :: _ -> f | [] -> 0.0);
              ];
          ];
      };
    Experiment
      {
        id = "fig10";
        compute = on_scale fig10_ccdf;
        blocks =
          [
            Heading "Fig. 10 — CCDF of article ranking, F(i) = 1 - 0.063 i^0.3";
            table Fun.id
              [
                count "rank" (fun (r : ccdf_row) -> r.rank);
                fixed 4 "paper formula" (fun (r : ccdf_row) -> r.formula);
                fixed 4 "sampler CCDF" (fun (r : ccdf_row) -> r.model);
              ];
            table whole
              [
                measure "ccdf_abs_error_max" lower (fun rows ->
                    abs_error_max (List.map (fun (r : ccdf_row) -> (r.formula, r.model)) rows));
              ];
          ];
      };
    Experiment
      {
        id = "storage";
        compute = storage_overhead;
        blocks =
          [
            Heading "Section V-B — Index storage per scheme";
            Rows
              ( Fun.id,
                (fun (r : storage_row) -> slug r.scheme),
                [
                  text "scheme" (fun (r : storage_row) -> r.scheme);
                  field ~metric:("index_bytes", lower) "index bytes" Tabular.fmt_bytes
                    (fun (r : storage_row) -> float_of_int r.index_bytes);
                  pct ~metric:("overhead_vs_simple", info) "vs simple" (fun (r : storage_row) ->
                      r.overhead_vs_simple);
                  field "scaled to DBLP" Tabular.fmt_bytes (fun (r : storage_row) -> r.dblp_scaled_bytes);
                  pct "index/data ratio" (fun (r : storage_row) -> r.index_to_data_ratio);
                ] );
            note
              "paper: simple 152 MB for full DBLP; complex +25%; flat +37%; overhead <= 0.5% of \
               29.1 GB\n";
          ];
      };
    Experiment
      {
        id = "keys";
        compute = keys_per_node;
        blocks =
          [
            Heading "Section V-f — Regular keys per node";
            Rows
              ( Fun.id,
                (fun (r : keys_row) -> slug r.scheme),
                [
                  text "scheme" (fun (r : keys_row) -> r.scheme);
                  fixed ~metric:("keys_per_node", info) 0 "measured" (fun (r : keys_row) ->
                      r.keys_per_node_mean);
                  fixed 0 "paper" (fun (r : keys_row) -> r.paper_value);
                ] );
          ];
      };
    Experiment
      {
        id = "fig11";
        compute = fig11_interactions;
        blocks =
          [
            Heading "Fig. 11 — Average interactions per query";
            Rows (Fun.id, cell_key, cell_fields "interactions" ("interactions", lower));
            note "paper: flat lowest (~2.3), simple ~3.3, complex ~3.5; caching reduces all\n";
          ];
      };
    Experiment
      {
        id = "fig12";
        compute = fig12_traffic;
        blocks =
          [
            Heading "Fig. 12 — Average traffic (bytes) per query";
            Rows
              ( Fun.id,
                (fun (c : traffic_cell) -> slug c.scheme ^ "/" ^ slug c.policy),
                [
                  text "scheme" (fun (c : traffic_cell) -> c.scheme);
                  text "policy" (fun (c : traffic_cell) -> c.policy);
                  fixed ~metric:("normal_bytes", lower) 0 "normal B/query" (fun (c : traffic_cell) ->
                      c.normal_bytes);
                  fixed ~metric:("cache_bytes", lower) 0 "cache B/query" (fun (c : traffic_cell) ->
                      c.cache_bytes);
                  fixed 0 "total" (fun (c : traffic_cell) -> c.normal_bytes +. c.cache_bytes);
                ] );
            note "paper: flat ~2x the others (no indirection); caches save bandwidth\n";
          ];
      };
    Experiment
      {
        id = "fig13";
        compute =
          (fun grid ->
            let hits = fig13_hit_ratio grid in
            (hits, fig13_first_node_share grid));
        blocks =
          [
            Heading "Fig. 13 — Cache efficiency: distributed hit ratio";
            Rows (fst, cell_key, cell_fields "hit ratio" ("hit_ratio", higher));
            Text
              (fun (_, shares) ->
                String.concat ""
                  (List.map
                     (fun (c : cell) ->
                       Printf.sprintf
                         "multi-cache hits at first node (%s): %s (paper: simple 86%%, flat \
                          99.9%%, complex 84%%)\n"
                         c.scheme (Tabular.fmt_pct c.value))
                     shares));
            Rows
              ( snd,
                (fun (c : cell) -> slug c.scheme),
                [ measure "first_node_share" higher (fun (c : cell) -> c.value) ] );
          ];
      };
    Experiment
      {
        id = "fig14";
        compute =
          (fun grid ->
            let storage = fig14_cache_storage grid in
            (storage, fig14_extremes grid));
        blocks =
          [
            Heading "Fig. 14 — Average cached keys per node";
            Rows (fst, cell_key, cell_fields "cached keys" ("cached_keys", info));
            Heading "Fig. 14 (cont.) — cache extremes";
            Rows
              ( snd,
                (fun (e : cache_extremes) -> slug e.scheme ^ "/" ^ slug e.policy),
                [
                  text "scheme" (fun (e : cache_extremes) -> e.scheme);
                  text "policy" (fun (e : cache_extremes) -> e.policy);
                  count ~metric:("max_cached", info) "max" (fun (e : cache_extremes) -> e.max_cached);
                  pct "full" (fun (e : cache_extremes) -> e.full_share);
                  pct "empty" (fun (e : cache_extremes) -> e.empty_share);
                ] );
            note
              "paper: single ~2x more space-efficient than multi; maxima 253-413; LRU10 72% full, \
               4.4% empty overall\n";
          ];
      };
    Experiment
      {
        id = "fig15";
        compute = fig15_hotspots;
        blocks =
          [
            Heading "Fig. 15 — Hot-spots: % of queries processed, by node rank (simple scheme)";
            (* One line per series: the log-log points do not share columns. *)
            Text
              (fun series ->
                String.concat ""
                  (List.map
                     (fun s ->
                       Printf.sprintf "%-12s%s  (gini %.2f)\n" s.policy
                         (String.concat ""
                            (List.map
                               (fun (rank, share) ->
                                 Printf.sprintf "  #%d:%s" rank (Tabular.fmt_pct share))
                               s.share_by_rank))
                         s.gini)
                     series));
            note "paper: busiest node sees almost 1 in 10 queries; caching slightly relieves it\n";
            Rows
              ( Fun.id,
                (fun s -> slug s.policy),
                [
                  measure "gini" info (fun s -> s.gini);
                  measure "busiest_share" info (fun s ->
                      match s.share_by_rank with (_, v) :: _ -> v | [] -> 0.0);
                ] );
          ];
      };
    Experiment
      {
        id = "table1";
        compute = table1_errors;
        blocks =
          [
            Heading "Table I — Queries to non-indexed data";
            (* Pivoted: one row per policy, one column per scheme. *)
            table
              (fun cells ->
                List.map
                  (fun policy ->
                    let label = Policy.label policy in
                    (label, List.filter (fun (c : cell) -> String.equal c.policy label) cells))
                  table1_policies)
              (text "policy" fst
              :: List.map
                   (fun kind ->
                     let label = Schemes.label kind in
                     fixed 0 label (fun (_, row) ->
                         (List.find (fun (c : cell) -> String.equal c.scheme label) row).value))
                   Schemes.all);
            note
              "paper (50k queries): no cache ~2,502-2,507; LRU30 810-874; single-cache 563-600\n";
            Rows (Fun.id, cell_key, [ measure "errors" lower (fun (c : cell) -> c.value) ]);
          ];
      };
    Experiment
      {
        id = "ablation-substrate";
        compute = on_scale ablation_substrate;
        blocks =
          [
            Heading "Ablation — substrate independence (simple scheme, single-cache)";
            Rows
              ( Fun.id,
                (fun (r : substrate_row) -> slug r.substrate),
                [
                  text "substrate" (fun (r : substrate_row) -> r.substrate);
                  fixed ~metric:("interactions", lower) 3 "interactions" (fun (r : substrate_row) ->
                      r.interactions);
                  fixed ~metric:("normal_bytes", lower) 0 "normal B/query" (fun (r : substrate_row) ->
                      r.normal_bytes);
                  fixed ~metric:("routing_bytes", lower) 0 "routing B/query" (fun (r : substrate_row) ->
                      r.substrate_overhead_bytes);
                ] );
            note
              "index-layer metrics are substrate-independent; Chord pays only routing-hop overhead\n";
          ];
      };
    Experiment
      {
        id = "ablation-skew";
        compute = on_scale ablation_skew;
        blocks =
          [
            Heading "Ablation — popularity skew vs cache efficiency (simple, LRU30)";
            Rows
              ( Fun.id,
                (fun (r : skew_row) -> "a" ^ fnum r.alpha),
                [
                  fixed 1 "Zipf exponent" (fun (r : skew_row) -> r.alpha);
                  pct ~metric:("hit_ratio", higher) "hit ratio" (fun (r : skew_row) -> r.hit_ratio);
                  fixed ~metric:("interactions", lower) 3 "interactions" (fun (r : skew_row) ->
                      r.interactions);
                ] );
            note
              "uniform popularity (s = 0) defeats the cache; the heavier the skew, the\n\
               bigger the caching payoff — the mechanism behind Figs. 11-13\n";
          ];
      };
    Experiment
      {
        id = "ablation-replication";
        compute = on_scale ablation_replication;
        blocks =
          [
            Heading "Ablation — index availability under node failures (simple scheme)";
            Rows
              ( Fun.id,
                (fun (r : replication_row) ->
                  "r" ^ string_of_int r.replication ^ "/f" ^ fnum r.failed_fraction),
                [
                  count "replication" (fun (r : replication_row) -> r.replication);
                  pct "nodes failed" (fun (r : replication_row) -> r.failed_fraction);
                  pct ~metric:("available_keys", higher) "index keys available"
                    (fun (r : replication_row) -> r.available_keys);
                  count ~metric:("replica_entries", info) "replica entries"
                    (fun (r : replication_row) -> r.storage_cost);
                ] );
            note
              "replication (Section IV-D) trades storage for availability: with r replicas,\n\
               a key is lost only when all r consecutive holders fail\n";
          ];
      };
    Experiment
      {
        id = "ablation-deletion";
        compute = on_scale ablation_deletion;
        blocks =
          [
            Heading "Ablation — read/write semantics: deletion cleans the indexes";
            Rows
              ( Fun.id,
                (fun (r : deletion_row) -> "f" ^ fnum r.deleted_fraction),
                [
                  pct "articles deleted" (fun (r : deletion_row) -> r.deleted_fraction);
                  count "mappings before" (fun (r : deletion_row) -> r.mappings_before);
                  count "after" (fun (r : deletion_row) -> r.mappings_after);
                  count ~metric:("dangling", lower) "dangling paths" (fun (r : deletion_row) ->
                      r.dangling_lookups);
                  count ~metric:("survivors_lost", lower) "survivors lost" (fun (r : deletion_row) ->
                      r.survivors_lost);
                  measure "mappings_after" info (fun (r : deletion_row) ->
                      float_of_int r.mappings_after);
                ] );
            note
              "deleting a file removes its mappings recursively (dangling must be 0) while\n\
               shared coarse entries keep serving the surviving files (lost must be 0)\n";
          ];
      };
    Experiment
      {
        id = "ablation-hotspot";
        compute = on_scale ablation_hotspot_replication;
        blocks =
          [
            Heading "Ablation — hot-spot relief through key replication (simple, no cache)";
            Rows
              ( Fun.id,
                (fun (r : hotspot_replication_row) -> "r" ^ string_of_int r.key_replicas),
                [
                  count "replicas/key" (fun (r : hotspot_replication_row) -> r.key_replicas);
                  pct ~metric:("busiest_share", lower) "busiest node"
                    (fun (r : hotspot_replication_row) -> r.busiest_share);
                  fixed ~metric:("gini", lower) 3 "load gini" (fun (r : hotspot_replication_row) ->
                      r.load_gini);
                ] );
            note
              "spreading reads over r replicas divides the hottest key's load by r — the\n\
               substrate-level hot-spot avoidance the paper defers to (Section V-g)\n";
          ];
      };
    Experiment
      {
        id = "ablation-scheme";
        compute = on_scale ablation_scheme_variants;
        blocks =
          [
            Heading "Ablation — the author+conference entry point (25% author+conf queries)";
            Rows
              ( Fun.id,
                (fun (r : scheme_variant_row) -> slug r.scheme_label),
                [
                  text "scheme" (fun (r : scheme_variant_row) -> r.scheme_label);
                  fixed ~metric:("interactions", lower) 3 "interactions"
                    (fun (r : scheme_variant_row) -> r.interactions);
                  count ~metric:("errors", lower) "non-indexed errors" (fun (r : scheme_variant_row) ->
                      r.non_indexed_errors);
                  field ~metric:("index_mb", lower) "index storage" (Printf.sprintf "%.1f MB")
                    (fun (r : scheme_variant_row) -> r.index_megabytes);
                ] );
            note
              "the extra index turns author+conference queries from recoverable errors into\n\
               direct chains, at the price of more index storage (Section IV-C's trade-off)\n";
          ];
      };
    Experiment
      {
        id = "ablation-churn";
        compute = on_scale ablation_churn;
        blocks =
          [
            Heading "Ablation — availability under churn (simple scheme, no cache)";
            Rows
              ( Fun.id,
                (fun (r : churn_row) ->
                  "c" ^ fnum r.churn_rate ^ "/r" ^ string_of_int r.churn_replication),
                [
                  field "churn rate (1/s)" (Printf.sprintf "%g") (fun (r : churn_row) -> r.churn_rate);
                  count "replication" (fun (r : churn_row) -> r.churn_replication);
                  pct ~metric:("availability", higher) "availability" (fun (r : churn_row) ->
                      r.availability);
                  fixed ~metric:("interactions", lower) 3 "interactions" (fun (r : churn_row) ->
                      r.churn_interactions);
                  fixed ~metric:("maint_bytes", lower) 0 "maint B/query" (fun (r : churn_row) ->
                      r.maintenance_per_query);
                  fixed 0 "live nodes at end" (fun (r : churn_row) -> r.live_nodes_end);
                ] );
            note
              "crash-stop failures lose index shards and caches; TTLs, republication and\n\
               repair restore them.  Availability falls as churn rises and climbs back\n\
               with replication — the soft-state index survives a moving population\n";
          ];
      };
    Experiment
      {
        id = "fault-sweep";
        compute = on_scale fault_sweep;
        blocks =
          [
            Heading "Fault sweep — lookup success vs message loss x retry budget (replication 3)";
            Rows
              ( Fun.id,
                (fun (r : fault_sweep_row) ->
                  "l" ^ fnum r.sweep_loss_rate ^ "/r" ^ string_of_int r.sweep_retries),
                [
                  field "loss rate" (Printf.sprintf "%g") (fun (r : fault_sweep_row) -> r.sweep_loss_rate);
                  count "retries" (fun (r : fault_sweep_row) -> r.sweep_retries);
                  text "hedged" (fun (r : fault_sweep_row) -> yes_no r.sweep_hedged);
                  pct ~metric:("rpc_success", higher) "rpc success" (fun (r : fault_sweep_row) ->
                      r.lookup_success);
                  pct ~metric:("availability", higher) "availability" (fun (r : fault_sweep_row) ->
                      r.fault_availability);
                  fixed ~metric:("interactions", lower) 3 "interactions" (fun (r : fault_sweep_row) ->
                      r.fault_interactions);
                  count ~metric:("timeouts", info) "timeouts" (fun (r : fault_sweep_row) ->
                      r.sweep_timeouts);
                  count "retries used" (fun (r : fault_sweep_row) -> r.sweep_retries_used);
                  count "hedges won" (fun (r : fault_sweep_row) -> r.sweep_hedges_won);
                ] );
            note
              "with no retry budget, per-exchange success collapses to (1-loss)^2; bounded\n\
               backoff retries plus a hedged second request to the next replica recover\n\
               it, and replica failover keeps session availability near 100%\n";
          ];
      };
    Experiment
      {
        id = "concurrency-sweep";
        compute = on_scale concurrency_sweep;
        blocks =
          [
            Heading "Concurrency sweep — singleflight coalescing under overlapping sessions";
            Rows
              ( Fun.id,
                (fun (r : concurrency_row) ->
                  "c" ^ string_of_int r.row_concurrency
                  ^ if r.row_coalesce then "/coalesce" else "/plain"),
                [
                  count "concurrency" (fun (r : concurrency_row) -> r.row_concurrency);
                  text "coalesce" (fun (r : concurrency_row) -> yes_no r.row_coalesce);
                  count "coalesced" (fun (r : concurrency_row) -> r.row_coalesced);
                  fixed ~metric:("normal_bytes", lower) 1 "normal B/query" (fun (r : concurrency_row) ->
                      r.row_normal_per_query);
                  fixed ~metric:("cache_bytes", info) 1 "cache B/query" (fun (r : concurrency_row) ->
                      r.row_cache_per_query);
                  measure "coalesced" info (fun (r : concurrency_row) -> float_of_int r.row_coalesced);
                  field ~metric:("session_latency", lower) "session latency" (Printf.sprintf "%.3f s")
                    (fun (r : concurrency_row) -> r.row_session_latency);
                  count ~metric:("peak_in_flight", info) "peak in flight" (fun (r : concurrency_row) ->
                      r.row_peak_in_flight);
                ] );
            note
              "overlapping sessions aim identical probes at the hot keys; with coalescing a\n\
               follower rides the in-flight response for a small consultation ticket, so\n\
               normal traffic per query drops as concurrency grows\n";
          ];
      };
    Experiment
      {
        id = "prefix-sweep";
        compute = on_scale prefix_sweep;
        blocks =
          [
            Heading "Prefix sweep — routed range search vs broadcast-and-filter";
            Rows
              ( Fun.id,
                (fun (r : prefix_sweep_row) -> "l" ^ string_of_int r.sweep_prefix_len),
                [
                  count "prefix len" (fun (r : prefix_sweep_row) -> r.sweep_prefix_len);
                  fixed ~metric:("routed_nodes", lower) 2 "routed nodes" (fun (r : prefix_sweep_row) ->
                      r.routed_nodes_mean);
                  measure "node_savings" higher (fun (r : prefix_sweep_row) ->
                      float_of_int r.sweep_broadcast_nodes -. r.routed_nodes_mean);
                  count ~metric:("broadcast_nodes", info) "bcast nodes" (fun (r : prefix_sweep_row) ->
                      r.sweep_broadcast_nodes);
                  fixed ~metric:("routed_bytes_direct", lower) 0 "direct B/q"
                    (fun (r : prefix_sweep_row) -> r.direct_bytes_per_query);
                  fixed ~metric:("routed_bytes_multicast", lower) 0 "mcast B/q"
                    (fun (r : prefix_sweep_row) -> r.multicast_bytes_per_query);
                  fixed ~metric:("broadcast_bytes", info) 0 "bcast B/q" (fun (r : prefix_sweep_row) ->
                      r.broadcast_bytes_per_query);
                  count ~metric:("multicast_messages", lower) "install msgs"
                    (fun (r : prefix_sweep_row) -> r.install_messages);
                  measure "multicast_bound_slack" higher (fun (r : prefix_sweep_row) ->
                      float_of_int r.install_bound_slack);
                  count ~metric:("tree_depth", info) "tree depth" (fun (r : prefix_sweep_row) ->
                      r.install_depth);
                  fixed ~metric:("interactions", lower) 3 "interactions" (fun (r : prefix_sweep_row) ->
                      r.sweep_interactions);
                  measure "normal_bytes" lower (fun (r : prefix_sweep_row) -> r.sweep_normal_bytes);
                ] );
            note
              "a prefix query routes to the few nodes covering its key arc instead of\n\
               flooding all of them; multicast trades initiator exchanges for relay\n\
               bytes, and index installs ride a spanning tree whose message count\n\
               stays within covering members + tree edges\n";
          ];
      };
    Experiment
      {
        id = "quorum-sweep";
        compute = on_scale quorum_sweep;
        blocks =
          [
            Heading
              "Quorum sweep — stale reads vs read quorum under churn (replication 3, W=3, \
               anti-entropy on)";
            Rows
              ( Fun.id,
                (fun (r : quorum_sweep_row) ->
                  "c" ^ fnum r.sweep_churn_rate ^ "/q" ^ string_of_int r.sweep_read_quorum),
                [
                  field "churn rate" (Printf.sprintf "%g") (fun (r : quorum_sweep_row) ->
                      r.sweep_churn_rate);
                  count "R" (fun (r : quorum_sweep_row) -> r.sweep_read_quorum);
                  pct ~metric:("stale_rate", lower) "stale reads" (fun (r : quorum_sweep_row) ->
                      r.quorum_stale_rate);
                  pct ~metric:("availability", higher) "availability" (fun (r : quorum_sweep_row) ->
                      r.quorum_availability);
                  count "quorum reads" (fun (r : quorum_sweep_row) -> r.quorum_sweep_reads);
                  count ~metric:("read_repairs", info) "read repairs" (fun (r : quorum_sweep_row) ->
                      r.quorum_sweep_read_repairs);
                  count ~metric:("under_acked", info) "under-acked" (fun (r : quorum_sweep_row) ->
                      r.quorum_sweep_under_acked);
                  fixed ~metric:("maint_bytes", lower) 0 "maint B/query" (fun (r : quorum_sweep_row) ->
                      r.quorum_maint_per_query);
                  count ~metric:("ae_digest_bytes", lower) "digest B" (fun (r : quorum_sweep_row) ->
                      r.quorum_digest_bytes);
                  count ~metric:("ae_shipped_bytes", lower) "shipped B" (fun (r : quorum_sweep_row) ->
                      r.quorum_shipped_bytes);
                  count "full-state B" (fun (r : quorum_sweep_row) -> r.quorum_full_state_bytes);
                  measure "ae_savings" higher (fun (r : quorum_sweep_row) ->
                      float_of_int
                        (r.quorum_full_state_bytes - r.quorum_digest_bytes - r.quorum_shipped_bytes));
                ] );
            note
              "consulting more replicas per lookup lowers the stale-read rate at fixed\n\
               churn; anti-entropy ships only the diverged keys, so digest + shipped\n\
               bytes stay below what full-state exchanges would have moved\n";
          ];
      };
    Experiment
      {
        id = "scale-sweep";
        compute = on_scale scale_sweep;
        blocks =
          [
            Heading
              (Printf.sprintf
                 "Scale sweep — population growth under the sharded engine (%d shards, \
                  deterministic merge)"
                 scale_sweep_shards);
            Rows
              ( Fun.id,
                (fun (r : scale_sweep_row) -> "n" ^ string_of_int r.scale_nodes),
                [
                  count "nodes" (fun (r : scale_sweep_row) -> r.scale_nodes);
                  count "articles" (fun (r : scale_sweep_row) -> r.scale_articles);
                  count "queries" (fun (r : scale_sweep_row) -> r.scale_queries);
                  fixed ~metric:("interactions", lower) 3 "interactions" (fun (r : scale_sweep_row) ->
                      r.scale_interactions);
                  fixed ~metric:("normal_bytes", lower) 0 "normal B/query" (fun (r : scale_sweep_row) ->
                      r.scale_normal_bytes);
                  count ~metric:("errors", lower) "errors" (fun (r : scale_sweep_row) -> r.scale_errors);
                  fixed ~metric:("minor_words_per_query", lower) 0 "minor w/query"
                    (fun (r : scale_sweep_row) -> r.scale_minor_words_per_query);
                  text "walk alloc share" (fun (r : scale_sweep_row) ->
                      let walk =
                        match
                          List.find_opt
                            (fun (e : Obs.Phase.entry) -> String.equal e.Obs.Phase.phase "walk")
                            r.scale_phases
                        with
                        | Some e -> e.Obs.Phase.minor_words
                        | None -> 0.0
                      in
                      let total =
                        List.fold_left
                          (fun acc (e : Obs.Phase.entry) -> acc +. e.Obs.Phase.minor_words)
                          0.0 r.scale_phases
                      in
                      Printf.sprintf "%.1f %%" (100.0 *. walk /. Float.max 1.0 total));
                  measure_each "phase_minor_words" info (fun (r : scale_sweep_row) ->
                      List.map
                        (fun (e : Obs.Phase.entry) -> (slug e.Obs.Phase.phase, e.Obs.Phase.minor_words))
                        r.scale_phases);
                ] );
            note
              "interactions per query are scale-free (the paper's point: the index, not\n\
               the population, prices a query); allocation per query stays flat, so the\n\
               arena-backed hot state holds at a million nodes\n";
          ];
      };
  ]

let all_experiment_ids = List.map (fun (Experiment e) -> e.id) experiments

let render_block buf d = function
  | Heading title -> Printf.bprintf buf "\n=== %s ===\n" title
  | Text f -> Buffer.add_string buf (f d)
  | Rows (rows, _, fields) -> (
      let rows = rows d in
      match List.filter_map (fun f -> f.column) fields with
      | [] -> ()
      | columns ->
          let render = function
            | Cell f -> f
            | Bar f ->
                let max_value = List.fold_left (fun acc r -> Float.max acc (f r)) 0.0 rows in
                fun r -> Tabular.bar ~width:30 ~max_value (f r)
          in
          let cells = List.map (fun (_, cell) -> render cell) columns in
          Buffer.add_string buf
            (Tabular.render_table ~headers:(List.map fst columns)
               ~rows:(List.map (fun r -> List.map (fun cell -> cell r) cells) rows)))

let block_metrics d = function
  | Heading _ | Text _ -> []
  | Rows (rows, key, fields) ->
      let join name part = if String.equal part "" then name else name ^ "/" ^ part in
      List.concat_map
        (fun r ->
          List.concat_map
            (fun f ->
              match f.metric with
              | None -> []
              | Some (name, better, values) ->
                  List.map
                    (fun (sub, v) -> Obs.Bench_report.metric (join (join name (key r)) sub) better v)
                    (values r))
            fields)
        (rows d)

let run_experiment grid id =
  List.find_opt (fun (Experiment e) -> String.equal e.id id) experiments
  |> Option.map (fun (Experiment e) ->
         let d = e.compute grid in
         let buf = Buffer.create 4096 in
         List.iter (render_block buf d) e.blocks;
         (Buffer.contents buf, List.concat_map (block_metrics d) e.blocks))

let print_experiment grid id =
  match run_experiment grid id with
  | Some (text, _) ->
      print_string text;
      true
  | None -> false
