(** One entry per table and figure of the paper's evaluation (Section V).

    Each experiment is one entry of a table inside this module: a data
    function that computes the result behind a paper artifact, and the
    blocks that print it as text (tables and ASCII bars, alongside the
    paper's reference values) and read its bench-report metrics from the
    same data.  Simulation results are memoized per (scheme, policy)
    inside a {!Grid}, because several figures share the same runs. *)

type scale = {
  node_count : int;
  article_count : int;
  query_count : int;
  seed : int64;
}

val paper_scale : scale
(** The paper's setup: 500 nodes, 10,000 articles, 50,000 queries. *)

val quick_scale : scale
(** A reduced setup for tests and smoke runs (100 nodes, 1,000 articles,
    5,000 queries). *)

module Grid : sig
  type t

  val create : scale -> t

  val report : t -> scheme:Bib.Schemes.kind -> policy:Cache.Policy.t -> Runner.report
  (** Run (or reuse) the simulation for one cell. *)

  val scale : t -> scale
end

(** {1 Data functions}

    The typed data behind some experiments, for tests that check their
    shapes; {!run_experiment} prints and measures every experiment. *)

type mix_row

val fig7_query_mix : scale -> mix_row list
(** Observed query-structure frequencies over [query_count] generated
    queries vs the BibFinder model. *)

type storage_row = {
  scheme : string;
  index_bytes : int;
  overhead_vs_simple : float;  (** fractional increase; 0 for simple *)
  article_bytes : int;
  index_to_data_ratio : float;
  dblp_scaled_bytes : float;
      (** Index bytes linearly scaled to the full 115,879-article DBLP
          archive, comparable to the paper's 152 MB figure. *)
}

val storage_overhead : Grid.t -> storage_row list

type cell

val fig11_interactions : Grid.t -> cell list
(** Mean interactions per query: schemes x {no-cache, single, LRU10/20/30}. *)

type traffic_cell

val fig12_traffic : Grid.t -> traffic_cell list
(** Bytes per query, split normal/cache: schemes x all six policies. *)

val fig13_hit_ratio : Grid.t -> cell list
(** Cache hit ratio: schemes x caching policies (no-cache excluded). *)

val fig13_first_node_share : Grid.t -> cell list
(** Share of hits occurring at the first node (the paper's 86% / 99.9% /
    84% observation), multi-cache policy. *)

val fig14_cache_storage : Grid.t -> cell list
(** Mean cached keys per node: schemes x caching policies. *)

type hotspot_series = {
  policy : string;
  share_by_rank : (int * float) list;
  gini : float;  (** Load imbalance: 0 = balanced, 1 = maximally skewed. *)
}

val fig15_hotspots : Grid.t -> hotspot_series list
(** Percentage of queries processed by each node, by node rank, for the
    simple scheme under no-cache, single-cache and LRU30 (log-log series at
    sample ranks). *)

val table1_errors : Grid.t -> cell list
(** Queries to non-indexed data: {no-cache, LRU30, single} x schemes. *)

type replication_row = {
  replication : int;
  failed_fraction : float;
  available_keys : float;
      (** Fraction of index keys with at least one live replica. *)
  storage_cost : int;  (** Total stored replica entries. *)
}

val ablation_replication : scale -> replication_row list
(** Section IV-D's availability claim: store the simple scheme's index keys
    with 1-3 replicas, fail 10-50% of the nodes, and measure how many keys
    remain reachable. *)

type scheme_variant_row = {
  scheme_label : string;
  interactions : float;
  non_indexed_errors : int;
  index_megabytes : float;
}

val ablation_scheme_variants : scale -> scheme_variant_row list
(** Complex vs Complex_ac under a workload with author+conference queries:
    the entry-point index removes those queries' recoverable errors at the
    cost of extra storage. *)

type hotspot_replication_row = {
  key_replicas : int;
  busiest_share : float;  (** Busiest node's share of all interactions. *)
  load_gini : float;
}

val ablation_hotspot_replication : scale -> hotspot_replication_row list
(** Section V-g's deferred fix: replicate every index key on r nodes with
    round-robin reads and measure the busiest node's load share and the
    overall Gini imbalance as r grows. *)

(** {1 Running experiments} *)

val all_experiment_ids : string list
(** ["fig7"; "fig9"; ...] in printing order: the ids of the experiment
    table, one entry per table or figure of Section V, ablation and
    sweep. *)

val run_experiment :
  Grid.t -> string -> (string * Obs.Bench_report.metric list) option
(** Compute one experiment by id and return its printed text (tables
    alongside the paper's reference values) and its headline numbers as
    bench-report metrics (flattened under ["exp/<id>/"] by
    {!Obs.Bench_report.flatten}).  The data is computed once and feeds
    both; grid-backed experiments additionally share simulation runs
    through the memoized {!Grid}.  Costs (interactions, bytes, errors)
    compare lower-better, success ratios (hit ratio, availability)
    higher-better, distribution shapes (slopes, gini) are informational.
    [None] when the id is unknown. *)

val print_experiment : Grid.t -> string -> bool
(** Print {!run_experiment}'s text; false when the id is unknown. *)
