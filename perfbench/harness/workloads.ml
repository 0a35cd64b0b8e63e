module Runner = Sim.Runner

type driver =
  | Sequential  (** The benchmark's own copy of [Runner.run]'s call sequence. *)
  | Sharded of { shards : int; domains : int; concurrency : int }
      (** [Sim.Sharded.run] as a whole, with coalescing on. *)

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
type t = {
  name : string;
  driver : driver;
  static : bool;
      (** No churn: every session must reach its target, and the node the
          walk contacted must be the resolver's primary for the key. *)
  config : int64 -> Runner.config;
}

let lru30 = Cache.Policy.lru 30

let paper_static =
  {
    name = "paper-static";
    driver = Sequential;
    static = true;
    config = (fun seed -> { Runner.default_config with seed; policy = lru30 });
  }

let overlay_kademlia =
  {
    name = "overlay-kademlia";
    driver = Sequential;
    static = true;
    config =
      (fun seed ->
        {
          Runner.default_config with
          seed;
          policy = lru30;
          substrate = Runner.Kademlia;
          node_count = 16;
          article_count = 300;
          query_count = 1_500;
        });
  }

let churn_quorum =
  {
    name = "churn-quorum";
    driver = Sequential;
    static = false;
    config =
      (fun seed ->
        {
          Runner.default_config with
          seed;
          policy = lru30;
          substrate = Runner.Chord;
          node_count = 200;
          article_count = 4_000;
          query_count = 3_000;
          churn =
            Some
              {
                Runner.default_churn with
                churn_rate = 0.01;
                downtime_mean = 2.0;
                replication = 5;
              };
          quorum =
            Some
              {
                Runner.read_quorum = 2;
                write_quorum = 2;
                anti_entropy_interval = 25.0;
              };
        });
  }

let engine_sharded =
  {
    name = "engine-sharded";
    driver = Sharded { shards = 4; domains = 2; concurrency = 16 };
    static = true;
    config =
      (fun seed ->
        {
          Runner.default_config with
          seed;
          policy = lru30;
          node_count = 100_000;
          article_count = 8_000;
          query_count = 60_000;
          faults = Some { Runner.default_faults with latency_mean = 0.01 };
        });
  }

let all = [ paper_static; overlay_kademlia; churn_quorum; engine_sharded ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The test-sized copy of a workload: the same configuration with every
   population shrunk, so the driver-equivalence tests run in seconds. *)
let reduced w seed =
  let c = w.config seed in
  {
    c with
    Runner.node_count = min c.Runner.node_count 40;
    article_count = min c.Runner.article_count 300;
    query_count = min c.Runner.query_count 400;
  }
