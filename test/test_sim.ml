(* Simulation harness tests: correctness invariants of the user-session
   walk, the reproduction shapes at reduced scale, and the experiments
   plumbing.  Shapes (orderings, monotone effects) are asserted, not the
   paper's absolute numbers — those are recorded in EXPERIMENTS.md. *)

module Runner = Sim.Runner
module Experiments = Sim.Experiments
module Schemes = Bib.Schemes
module Policy = Cache.Policy

(* A small but non-trivial scale so the whole suite stays fast. *)
let small =
  {
    Runner.default_config with
    node_count = 50;
    article_count = 400;
    query_count = 3_000;
    seed = 7L;
  }

let run ?(scheme = Schemes.Simple) ?(policy = Policy.no_cache) () =
  Runner.run { small with scheme; policy }

let every_session_succeeds () =
  List.iter
    (fun scheme ->
      List.iter
        (fun policy ->
          let r = run ~scheme ~policy () in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: no unreachable targets" (Schemes.label scheme)
               (Policy.label policy))
            0 r.Runner.unreachable)
        Policy.paper_policies)
    (Schemes.all @ [ Schemes.Complex_ac ])

let determinism () =
  let a = run ~policy:(Policy.lru 10) () in
  let b = run ~policy:(Policy.lru 10) () in
  Alcotest.(check (float 0.0)) "same interactions" (Runner.interactions_mean a)
    (Runner.interactions_mean b);
  Alcotest.(check int) "same traffic" a.Runner.response_bytes b.Runner.response_bytes;
  Alcotest.(check int) "same errors" a.Runner.errors b.Runner.errors

let flat_needs_fewest_interactions () =
  let by scheme = Runner.interactions_mean (run ~scheme ()) in
  let simple = by Schemes.Simple and flat = by Schemes.Flat and complex = by Schemes.Complex in
  Alcotest.(check bool)
    (Printf.sprintf "flat %.2f < simple %.2f" flat simple)
    true (flat < simple);
  Alcotest.(check bool)
    (Printf.sprintf "simple %.2f <= complex %.2f" simple complex)
    true (simple <= complex)

let flat_generates_most_traffic () =
  let by scheme = Runner.normal_traffic_per_query (run ~scheme ()) in
  Alcotest.(check bool) "flat most traffic" true
    (by Schemes.Flat > by Schemes.Simple && by Schemes.Flat > by Schemes.Complex)

let caching_reduces_interactions_and_traffic () =
  List.iter
    (fun scheme ->
      let base = run ~scheme () in
      let cached = run ~scheme ~policy:Policy.single_cache () in
      Alcotest.(check bool) "fewer interactions with cache" true
        (Runner.interactions_mean cached < Runner.interactions_mean base);
      Alcotest.(check bool) "less normal traffic with cache" true
        (Runner.normal_traffic_per_query cached < Runner.normal_traffic_per_query base))
    Schemes.all

let larger_caches_help_more () =
  let hit k = Runner.hit_ratio (run ~policy:(Policy.lru k) ()) in
  let h10 = hit 10 and h20 = hit 20 and h30 = hit 30 in
  Alcotest.(check bool)
    (Printf.sprintf "hit ratio grows: %.2f <= %.2f <= %.2f" h10 h20 h30)
    true
    (h10 <= h20 +. 0.02 && h20 <= h30 +. 0.02);
  let single = Runner.hit_ratio (run ~policy:Policy.single_cache ()) in
  Alcotest.(check bool) "unbounded beats bounded" true (h30 <= single +. 0.02)

let multi_cache_marginal_over_single () =
  let multi = run ~policy:Policy.multi_cache () in
  let single = run ~policy:Policy.single_cache () in
  Alcotest.(check bool) "multi at least as good" true
    (Runner.hit_ratio multi >= Runner.hit_ratio single -. 0.02);
  Alcotest.(check bool) "but within a few points (paper: marginal)" true
    (Runner.hit_ratio multi -. Runner.hit_ratio single < 0.15);
  Alcotest.(check bool) "multi stores more" true
    (Runner.cached_keys_mean multi >= Runner.cached_keys_mean single)

let most_hits_at_first_node () =
  let r = run ~policy:Policy.multi_cache () in
  Alcotest.(check bool)
    (Printf.sprintf "first-node share %.2f > 0.7" (Runner.first_node_hit_share r))
    true
    (Runner.first_node_hit_share r > 0.7)

let lru_respects_capacity () =
  List.iter
    (fun k ->
      let r = run ~policy:(Policy.lru k) () in
      Alcotest.(check bool)
        (Printf.sprintf "max cached %d <= %d" (Runner.cached_keys_max r) k)
        true
        (Runner.cached_keys_max r <= k))
    [ 10; 20; 30 ]

let no_cache_stores_nothing () =
  let r = run () in
  Alcotest.(check int) "no cached keys" 0 (Runner.cached_keys_max r);
  Alcotest.(check int) "no cache traffic" 0 r.Runner.cache_bytes;
  Alcotest.(check int) "no hits" 0 r.Runner.hits

let errors_only_author_year () =
  (* Without caching, errors are exactly the author+year queries (the only
     non-indexed shape in the workload): ~5% of the total. *)
  let r = run () in
  let share = float_of_int r.Runner.errors /. float_of_int small.query_count in
  Alcotest.(check bool)
    (Printf.sprintf "error share %.3f near 0.05" share)
    true
    (Float.abs (share -. 0.05) < 0.015);
  (* Each error costs roughly one extra probe. *)
  Alcotest.(check bool) "about one extra interaction per error" true
    (Stdx.Stats.Summary.mean r.Runner.error_probes < 1.5)

let caching_reduces_errors () =
  let base = (run ()).Runner.errors in
  let single = (run ~policy:Policy.single_cache ()).Runner.errors in
  let lru30 = (run ~policy:(Policy.lru 30) ()).Runner.errors in
  Alcotest.(check bool)
    (Printf.sprintf "single %d < lru30 %d < none %d" single lru30 base)
    true
    (single <= lru30 && lru30 < base)

let traffic_categories_consistent () =
  let r = run ~policy:Policy.single_cache () in
  Alcotest.(check bool) "requests billed" true (r.Runner.request_bytes > 0);
  Alcotest.(check bool) "responses dominate requests" true
    (r.Runner.response_bytes > r.Runner.request_bytes);
  Alcotest.(check bool) "cache traffic present" true (r.Runner.cache_bytes > 0);
  Alcotest.(check bool) "publishing was billed" true (r.Runner.publish_bytes > 0)

let touches_cover_all_interactions () =
  let r = run () in
  let total_touches = Array.fold_left ( + ) 0 r.Runner.node_touches in
  let total_interactions =
    int_of_float (Stdx.Stats.Summary.total r.Runner.interactions)
  in
  Alcotest.(check int) "one touch per interaction" total_interactions total_touches

let substrate_independence () =
  (* The paper's layering claim: index-layer metrics are identical over the
     oracle resolver, Chord, Pastry, CAN and Kademlia — even though the
     ownership rules place keys on different nodes, the number of
     user-system interactions only depends on the index chains. *)
  let static = Runner.run { small with substrate = Runner.Static } in
  let chord = Runner.run { small with substrate = Runner.Chord } in
  let pastry = Runner.run { small with substrate = Runner.Pastry } in
  let can = Runner.run { small with substrate = Runner.Can } in
  let kademlia = Runner.run { small with substrate = Runner.Kademlia } in
  Alcotest.(check (float 1e-9)) "chord: same interactions"
    (Runner.interactions_mean static) (Runner.interactions_mean chord);
  Alcotest.(check int) "chord: same errors" static.Runner.errors chord.Runner.errors;
  Alcotest.(check (float 1e-9)) "pastry: same interactions"
    (Runner.interactions_mean static) (Runner.interactions_mean pastry);
  Alcotest.(check int) "pastry: same errors" static.Runner.errors pastry.Runner.errors;
  Alcotest.(check (float 1e-9)) "CAN: same interactions"
    (Runner.interactions_mean static) (Runner.interactions_mean can);
  Alcotest.(check int) "CAN: same errors" static.Runner.errors can.Runner.errors;
  Alcotest.(check (float 1e-9)) "Kademlia: same interactions"
    (Runner.interactions_mean static) (Runner.interactions_mean kademlia);
  Alcotest.(check int) "Kademlia: same errors" static.Runner.errors kademlia.Runner.errors

let chord_hops_charged_when_asked () =
  let chord =
    Runner.run { small with substrate = Runner.Chord; charge_route_hops = true }
  in
  Alcotest.(check bool) "routing overhead billed as maintenance" true
    (chord.Runner.maintenance_bytes > 0)

let regular_keys_count_entries () =
  let r = run () in
  let total = Array.fold_left ( + ) 0 r.Runner.regular_keys in
  (* mappings + one stored file per article *)
  Alcotest.(check int) "entries = mappings + files" (r.Runner.index_mappings + small.article_count) total

let trace_replay_equals_generation () =
  (* Replaying the trace of the generated workload must reproduce the run
     bit-for-bit. *)
  let articles =
    Bib.Corpus.generate ~seed:small.seed
      (Bib.Corpus.default_config ~article_count:small.article_count)
  in
  let gen =
    Workload.Query_gen.create ~articles
      ~popularity:
        (Stdx.Power_law.fitted_cdf ~alpha:Stdx.Power_law.paper_alpha
           ~n:small.article_count ())
      ~seed:(Int64.add small.seed 1_000_003L) ()
  in
  let events = Workload.Query_gen.events gen small.query_count in
  let generated = Runner.run { small with policy = Policy.lru 20 } in
  let replayed = Runner.run ~events { small with policy = Policy.lru 20 } in
  Alcotest.(check (float 0.0)) "same interactions"
    (Runner.interactions_mean generated) (Runner.interactions_mean replayed);
  Alcotest.(check int) "same hits" generated.Runner.hits replayed.Runner.hits;
  Alcotest.(check int) "same errors" generated.Runner.errors replayed.Runner.errors;
  Alcotest.(check int) "same traffic" generated.Runner.response_bytes
    replayed.Runner.response_bytes

let tiny_scale =
  { Experiments.node_count = 40; article_count = 200; query_count = 1_000; seed = 3L }

(* Every experiment's printed text and metrics at [tiny_scale], pinned in
   [experiments_tiny.expected] as "#### <id> text", the text, "#### <id>
   metrics" and one "<name> <direction> <%.17g value>" line per metric.
   Scale-sweep's allocation counts differ between compiler versions, so
   its "minor w/query" and "walk alloc share" cells and its
   [minor_words_per_query/*] and [phase_minor_words/*] values read "~"
   on both sides. *)
let expected_experiments_file = "experiments_tiny.expected"

let direction_label = function
  | Obs.Bench_report.Lower_better -> "lower"
  | Obs.Bench_report.Higher_better -> "higher"
  | Obs.Bench_report.Informational -> "info"

let allocation_metric name =
  String.starts_with ~prefix:"minor_words_per_query/" name
  || String.starts_with ~prefix:"phase_minor_words/" name

(* Blank the numeric cells (and the separator) of the scale-sweep table's
   last two columns; header cells carry letters and stay. *)
let mask_allocation_cells text =
  let numeric cell = String.for_all (fun c -> String.contains "0123456789.-% " c) cell in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         match String.split_on_char '|' line with
         | [ ""; nodes; articles; queries; interactions; normal; errors; minor; share; "" ] ->
             let mask cell = if numeric cell then " ~ " else cell in
             String.concat "|"
               [ ""; nodes; articles; queries; interactions; normal; errors; mask minor; mask share; "" ]
         | _ -> line)
  |> String.concat "\n"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check_same_lines ~expected actual =
  let rec go n = function
    | e :: es, a :: rest ->
        if not (String.equal e a) then
          Alcotest.failf "experiment output line %d differs:\n  expected: %s\n  actual:   %s" n e a;
        go (n + 1) (es, rest)
    | [], [] -> ()
    | _, _ -> Alcotest.failf "experiment output differs in length from line %d" n
  in
  go 1 (String.split_on_char '\n' expected, String.split_on_char '\n' actual)

let experiments_quick_scale () =
  let grid = Experiments.Grid.create tiny_scale in
  let capture = Buffer.create 65_536 in
  List.iter
    (fun id ->
      match Experiments.run_experiment grid id with
      | None -> Alcotest.failf "experiment %s is listed but unknown" id
      | Some (text, metrics) ->
          let names = List.map (fun (m : Obs.Bench_report.metric) -> m.name) metrics in
          Alcotest.(check int)
            (Printf.sprintf "experiment %s: metric names unique" id)
            (List.length names)
            (List.length (List.sort_uniq String.compare names));
          let masked = String.equal id "scale-sweep" in
          Printf.bprintf capture "#### %s text\n%s#### %s metrics\n" id
            (if masked then mask_allocation_cells text else text)
            id;
          List.iter
            (fun (m : Obs.Bench_report.metric) ->
              Printf.bprintf capture "%s %s %s\n" m.name (direction_label m.better)
                (if masked && allocation_metric m.name then "~"
                 else Printf.sprintf "%.17g" m.value))
            metrics)
    Experiments.all_experiment_ids;
  let expected =
    match
      List.find_opt Sys.file_exists
        [ expected_experiments_file; Filename.concat "test" expected_experiments_file ]
    with
    | Some path -> read_file path
    | None -> Alcotest.failf "%s not found" expected_experiments_file
  in
  check_same_lines ~expected (Buffer.contents capture);
  Alcotest.(check bool) "a known id prints" true (Experiments.print_experiment grid "fig10");
  Alcotest.(check bool) "unknown id rejected" false
    (Experiments.print_experiment grid "fig99")

(* DESIGN.md section 4 has a row for every experiment id. *)
let design_indexes_every_experiment () =
  let rec find_root dir =
    if Sys.file_exists (Filename.concat dir "DESIGN.md") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else find_root parent
  in
  match find_root (Sys.getcwd ()) with
  | None -> Alcotest.fail "DESIGN.md not found above the working directory"
  | Some root ->
      let lines = String.split_on_char '\n' (read_file (Filename.concat root "DESIGN.md")) in
      let rec drop_to prefix = function
        | line :: rest when String.starts_with ~prefix line -> rest
        | _ :: rest -> drop_to prefix rest
        | [] -> []
      in
      let rec take_to prefix = function
        | line :: rest when not (String.starts_with ~prefix line) -> line :: take_to prefix rest
        | _ -> []
      in
      let index = take_to "## 5. " (drop_to "## 4. " lines) in
      List.iter
        (fun id ->
          Alcotest.(check bool)
            (Printf.sprintf "DESIGN.md section 4 has a row for `%s`" id)
            true
            (List.exists (String.starts_with ~prefix:(Printf.sprintf "| `%s` |" id)) index))
        Experiments.all_experiment_ids

let experiments_typed_shapes () =
  let grid = Experiments.Grid.create tiny_scale in
  (* Every figure's typed output has the expected arity. *)
  Alcotest.(check int) "fig7: seven structures (author+conf and author-prefix at weight 0)" 7
    (List.length (Experiments.fig7_query_mix tiny_scale));
  Alcotest.(check int) "fig11: 3 schemes x 5 policies" 15
    (List.length (Experiments.fig11_interactions grid));
  Alcotest.(check int) "fig12: 3 schemes x 6 policies" 18
    (List.length (Experiments.fig12_traffic grid));
  Alcotest.(check int) "fig13: 3 schemes x 5 caching policies" 15
    (List.length (Experiments.fig13_hit_ratio grid));
  Alcotest.(check int) "fig13 first-node: one per scheme" 3
    (List.length (Experiments.fig13_first_node_share grid));
  Alcotest.(check int) "fig14: 3 schemes x 5 caching policies" 15
    (List.length (Experiments.fig14_cache_storage grid));
  Alcotest.(check int) "fig15: three policies" 3
    (List.length (Experiments.fig15_hotspots grid));
  Alcotest.(check int) "table1: 3 policies x 3 schemes" 9
    (List.length (Experiments.table1_errors grid));
  Alcotest.(check int) "storage: three rows" 3
    (List.length (Experiments.storage_overhead grid))

let hotspot_replication_monotone () =
  let rows = Experiments.ablation_hotspot_replication tiny_scale in
  Alcotest.(check int) "four replication levels" 4 (List.length rows);
  let rec check_decreasing = function
    | (a : Experiments.hotspot_replication_row)
      :: (b : Experiments.hotspot_replication_row)
      :: rest ->
        Alcotest.(check bool)
          (Printf.sprintf "busiest %.3f >= %.3f as replicas grow" a.busiest_share
             b.busiest_share)
          true
          (a.busiest_share >= b.busiest_share -. 1e-9);
        Alcotest.(check bool) "imbalance falls" true (a.load_gini >= b.load_gini -. 1e-9);
        check_decreasing (b :: rest)
    | [ _ ] | [] -> ()
  in
  check_decreasing rows

let replication_availability_monotone () =
  let rows = Experiments.ablation_replication tiny_scale in
  (* For a fixed failure fraction, availability grows with replication. *)
  List.iter
    (fun fraction ->
      let series =
        List.filter
          (fun (r : Experiments.replication_row) -> r.failed_fraction = fraction)
          rows
        |> List.sort (fun (a : Experiments.replication_row) b ->
               Int.compare a.replication b.replication)
      in
      let rec check = function
        | (a : Experiments.replication_row) :: (b : Experiments.replication_row) :: rest ->
            Alcotest.(check bool)
              (Printf.sprintf "r=%d availability %.2f <= r=%d %.2f" a.replication
                 a.available_keys b.replication b.available_keys)
              true
              (a.available_keys <= b.available_keys +. 1e-9);
            check (b :: rest)
        | [ _ ] | [] -> ()
      in
      check series)
    [ 0.1; 0.3; 0.5 ]

let fig15_caching_relieves_hotspot () =
  let grid = Experiments.Grid.create tiny_scale in
  match Experiments.fig15_hotspots grid with
  | [ no_cache; single; _lru ] ->
      let busiest s = List.assoc 1 s.Experiments.share_by_rank in
      Alcotest.(check bool)
        (Printf.sprintf "single %.3f <= no-cache %.3f" (busiest single) (busiest no_cache))
        true
        (busiest single <= busiest no_cache +. 0.01)
  | _ -> Alcotest.fail "expected three hotspot series"

let scheme_variant_ablation () =
  match Experiments.ablation_scheme_variants tiny_scale with
  | [ complex; complex_ac ] ->
      Alcotest.(check bool) "entry point removes errors" true
        (complex_ac.Experiments.non_indexed_errors < complex.Experiments.non_indexed_errors);
      Alcotest.(check bool) "entry point shortens lookups" true
        (complex_ac.Experiments.interactions <= complex.Experiments.interactions +. 1e-9);
      Alcotest.(check bool) "entry point costs storage" true
        (complex_ac.Experiments.index_megabytes > complex.Experiments.index_megabytes)
  | rows -> Alcotest.failf "expected 2 scheme rows, got %d" (List.length rows)

let experiments_grid_memoizes () =
  let scale =
    { Experiments.node_count = 40; article_count = 200; query_count = 500; seed = 3L }
  in
  let grid = Experiments.Grid.create scale in
  let a = Experiments.Grid.report grid ~scheme:Schemes.Simple ~policy:Policy.no_cache in
  let b = Experiments.Grid.report grid ~scheme:Schemes.Simple ~policy:Policy.no_cache in
  (* lint: allow phys-equal — the memoization contract under test is physical identity *)
  Alcotest.(check bool) "same physical report" true (a == b)

let storage_ordering () =
  let scale =
    { Experiments.node_count = 40; article_count = 400; query_count = 10; seed = 5L }
  in
  let grid = Experiments.Grid.create scale in
  match Experiments.storage_overhead grid with
  | [ simple; flat; complex ] ->
      Alcotest.(check string) "rows ordered" "Simple" simple.Experiments.scheme;
      Alcotest.(check bool) "simple cheapest" true
        (simple.Experiments.index_bytes < complex.Experiments.index_bytes);
      Alcotest.(check bool) "flat most expensive" true
        (complex.Experiments.index_bytes < flat.Experiments.index_bytes);
      Alcotest.(check bool) "index is a small fraction of data" true
        (simple.Experiments.index_to_data_ratio < 0.02)
  | rows -> Alcotest.failf "expected 3 storage rows, got %d" (List.length rows)

let suite =
  [
    ( "sim:walk",
      [
        Alcotest.test_case "every session succeeds" `Slow every_session_succeeds;
        Alcotest.test_case "deterministic" `Quick determinism;
        Alcotest.test_case "touches cover interactions" `Quick touches_cover_all_interactions;
        Alcotest.test_case "regular keys count entries" `Quick regular_keys_count_entries;
        Alcotest.test_case "trace replay equals generation" `Quick
          trace_replay_equals_generation;
      ] );
    ( "sim:shapes",
      [
        Alcotest.test_case "flat fewest interactions" `Quick flat_needs_fewest_interactions;
        Alcotest.test_case "flat most traffic" `Quick flat_generates_most_traffic;
        Alcotest.test_case "caching helps" `Quick caching_reduces_interactions_and_traffic;
        Alcotest.test_case "larger caches help more" `Slow larger_caches_help_more;
        Alcotest.test_case "multi marginal over single" `Quick multi_cache_marginal_over_single;
        Alcotest.test_case "hits concentrate at first node" `Quick most_hits_at_first_node;
        Alcotest.test_case "LRU capacity respected" `Slow lru_respects_capacity;
        Alcotest.test_case "no-cache stores nothing" `Quick no_cache_stores_nothing;
        Alcotest.test_case "errors are author+year" `Quick errors_only_author_year;
        Alcotest.test_case "caching reduces errors" `Quick caching_reduces_errors;
        Alcotest.test_case "traffic categories" `Quick traffic_categories_consistent;
      ] );
    ( "sim:substrate",
      [
        Alcotest.test_case "substrate independence" `Slow substrate_independence;
        Alcotest.test_case "chord hops charged" `Slow chord_hops_charged_when_asked;
      ] );
    ( "sim:experiments",
      [
        Alcotest.test_case "all experiments print" `Slow experiments_quick_scale;
        Alcotest.test_case "grid memoizes" `Quick experiments_grid_memoizes;
        Alcotest.test_case "storage ordering" `Quick storage_ordering;
        Alcotest.test_case "typed output shapes" `Slow experiments_typed_shapes;
        Alcotest.test_case "hotspot replication monotone" `Quick hotspot_replication_monotone;
        Alcotest.test_case "replication availability monotone" `Quick
          replication_availability_monotone;
        Alcotest.test_case "caching relieves the hotspot" `Slow fig15_caching_relieves_hotspot;
        Alcotest.test_case "scheme variant ablation" `Quick scheme_variant_ablation;
        Alcotest.test_case "DESIGN.md indexes every experiment" `Quick
          design_indexes_every_experiment;
      ] );
  ]
