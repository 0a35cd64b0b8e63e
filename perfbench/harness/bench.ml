module Runner = Sim.Runner
module Summary = Stdx.Stats.Summary

type metric = { name : string; unit : string; value : float }

type result = {
  attempted : int;  (** Sessions run in the measured repetitions. *)
  failed : int;  (** Of those, sessions that never reached their target. *)
  metrics : metric list;
  notes : string list;  (** Human-readable lines printed before the result. *)
}

(* The metric catalogue, in BENCHMARK.json's order.  A run prints every
   end-to-end metric untraced and every per-layer metric traced; a layer
   the workload never calls reads 0. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("queries_per_s", "1/s");
    ("minor_words_per_query", "words");
    ("major_words_per_query", "words");
    ("max_rss_mb", "MiB");
    ("interactions_per_query", "count");
    ("normal_bytes_per_query", "B");
  ]

let per_layer =
  [
    ("runner.setup.minor_words", "words");
    ("runner.report_s", "s");
    ("runner.report.minor_words", "words");
    ("walk.self_ns_per_query", "ns");
    ("walk.self.minor_words_per_query", "words");
    ("walk.steps_per_query", "count");
    ("index.lookup.calls_per_query", "count");
    ("index.lookup.ns_per_query", "ns");
    ("index.lookup.ns_p50", "ns");
    ("index.lookup.ns_p99", "ns");
    ("index.lookup.minor_words_per_call", "words");
    ("index.lookup.children_per_call", "count");
    ("index.lookup.not_indexed_ratio", "ratio");
    ("cache.install.ns_per_query", "ns");
    ("cache.install.minor_words_per_query", "words");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions_per_query", "count");
    ("churn.ns_per_query", "ns");
    ("churn.minor_words_per_query", "words");
    ("churn.events_per_query", "count");
    ("rpc.deliver_ns_per_query", "ns");
    ("rpc.calls_per_query", "count");
    ("rpc.retries_per_call", "ratio");
    ("rpc.exhausted_ratio", "ratio");
    ("quorum.reads_per_query", "count");
    ("quorum.read_repairs_per_query", "count");
    ("antientropy.digest_bytes_per_query", "B");
    ("workload.ns_per_query", "ns");
    ("tally.ns_per_query", "ns");
    ("query.render_ns", "ns");
    ("query.render_words", "words");
    ("hash.key_ns", "ns");
    ("hash.key_words", "words");
    ("resolver.responsible_ns", "ns");
    ("resolver.responsible_words", "words");
    ("resolver.replicas_ns", "ns");
    ("resolver.replicas_words", "words");
    ("sharded.domain_speedup", "ratio");
    ("sharded.setup_s", "s");
    ("sharded.walk_s", "s");
    ("sharded.report_s", "s");
    ("engine.coalesced_per_query", "count");
    ("engine.peak_in_flight", "count");
    ("engine.session_latency_virtual_mean_s", "s");
    ("run.failed_session_ratio", "ratio");
    ("run.maintenance_bytes_per_query", "B");
    ("trace.overhead_ratio", "ratio");
    ("trace.gap_ratio", "ratio");
  ]

(* Fill the catalogue from [(name, value)] pairs; names not given read 0
   and a name outside the catalogue is a programming error. *)
let catalogue names values =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n names) then invalid_arg ("unknown metric " ^ n))
    values;
  List.map
    (fun (name, unit) ->
      { name; unit; value = Option.value ~default:0. (List.assoc_opt name values) })
    names

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let seconds ns = float_of_int ns /. 1e9
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per n x = x /. float_of_int n

(* Repeat [f] until at least [min_reps] repetitions ran and the next one,
   predicted at the median repetition time so far, would end past
   [deadline]. *)
let repeat ~deadline ~min_reps f =
  let times = ref [] and n = ref 0 in
  while
    !n < min_reps
    || Spans.now_ns () + int_of_float (median !times) <= deadline
  do
    let t0 = Spans.now_ns () in
    f !n;
    times := float_of_int (Spans.now_ns () - t0) :: !times;
    incr n
  done

let max_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

let counter (r : Runner.report) name = Obs.Metrics.counter_total r.metrics name

(* Per-layer numbers read from the report's metrics snapshot: the
   simulated counts behind the cache, churn, RPC and quorum layers. *)
let report_layers (r : Runner.report) n =
  let hits = counter r "p2pindex_cache_hits_total"
  and misses = counter r "p2pindex_cache_misses_total" in
  let churn_events =
    counter r "p2pindex_churn_failures_total"
    + counter r "p2pindex_churn_joins_total"
    + counter r "p2pindex_churn_republishes_total"
    + counter r "p2pindex_churn_repairs_total"
  in
  [
    ("cache.hit_ratio", ratio hits (hits + misses));
    ("cache.evictions_per_query", ratio (counter r "p2pindex_cache_evictions_total") n);
    ("churn.events_per_query", ratio churn_events n);
    ("rpc.calls_per_query", ratio r.rpc_calls n);
    ("rpc.retries_per_call", ratio r.rpc_retries r.rpc_calls);
    ("rpc.exhausted_ratio", ratio r.rpc_exhausted r.rpc_calls);
    ("quorum.reads_per_query", ratio r.quorum_reads n);
    ("quorum.read_repairs_per_query", ratio r.quorum_read_repairs n);
    ("antientropy.digest_bytes_per_query", ratio r.antientropy_digest_bytes n);
    ("run.failed_session_ratio", ratio r.unreachable n);
    ("run.maintenance_bytes_per_query", Runner.maintenance_traffic_per_query r);
  ]

(* Repetition [i] simulates sub-seed [i mod subseeds] of the run's seed
   (an injective mapping, so distinct seeds never share inputs).  Counts
   and words are means over the first [subseeds] repetitions, one per
   input; times are [per_input] summaries of every repetition. *)
let subseeds = 2
let subseed seed i = Int64.(add (mul seed (of_int subseeds)) (of_int (i mod subseeds)))

let size_line (w : Workloads.t) seed ~shards ~domains =
  let c = w.config seed in
  Printf.sprintf
    "workload=%s seed=%Ld (config seeds %s) nodes=%d articles=%d queries=%d \
     shards=%d domains=%d nproc=%d"
    w.name seed
    (String.concat "," (List.init subseeds (fun i -> Int64.to_string (subseed seed i))))
    c.Runner.node_count c.Runner.article_count c.Runner.query_count
    shards domains
    (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Sequential workloads. *)

type rep = {
  report : Runner.report;
  setup_ns : int;
  total_ns : int;
  minor : float;
  major : float;
}

(* Runs the driver once from a compacted heap, applies the output checks,
   and checks the report against the earlier repetition of the same
   input, which it must equal field for field. *)
let checked_run (w : Workloads.t) cfg ?spans ~check earlier =
  Gc.compact ();
  let r = Driver.run ?spans cfg in
  Checks.outputs ~static:w.static r.report;
  let fields = Report_fields.of_runner r.report in
  (match earlier with
  | None -> ()
  | Some f0 -> Checks.same_fields check f0 fields);
  (r, fields)

(* Means over the first repetition of each input. *)
let distinct reps = List.filteri (fun i _ -> i < subseeds) reps

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
let fastest = List.fold_left Float.min infinity
let highest = List.fold_left Float.max neg_infinity

(* A time metric of a run: [pick] (fastest or highest) over each input's
   repetitions, then the mean over the inputs.  Other tenants of a shared
   host only ever add time, so an input's best repetition is its least
   disturbed cost, and the mean evens out how much work each input makes.
   [reps] pairs each repetition with its input. *)
let per_input pick reps f =
  mean
    (List.init subseeds (fun k ->
         pick (List.filter_map (fun (j, r) -> if j = k then Some (f r) else None) reps)))

(* The repetitions' times, each tagged with its input. *)
let tagged_timings reps ns =
  String.concat " "
    (List.map (fun (k, r) -> Printf.sprintf "%d:%.3f" k (seconds (ns r))) reps)

let count_metrics reports =
  let sum f = List.fold_left (fun acc (r : Runner.report) -> acc + f r) 0 reports in
  let sessions = sum (fun r -> Summary.count r.interactions) in
  [
    ( "interactions_per_query",
      List.fold_left
        (fun acc (r : Runner.report) -> acc +. Summary.total r.interactions)
        0. reports
      /. float_of_int sessions );
    ( "normal_bytes_per_query",
      ratio (sum (fun r -> r.request_bytes + r.response_bytes)) sessions );
  ]

let sequential_end_to_end (w : Workloads.t) ~seed ~deadline =
  let n = (w.config seed).Runner.query_count in
  let fields = Array.make subseeds None and reps = ref [] in
  repeat ~deadline ~min_reps:(2 * subseeds) (fun i ->
      let k = i mod subseeds in
      let r, f =
        checked_run w (w.config (subseed seed i)) ~check:"reps_identical" fields.(k)
      in
      fields.(k) <- Some f;
      reps :=
        ( k,
          { report = r.report; setup_ns = r.setup_ns; total_ns = r.total_ns;
            minor = r.minor_words; major = r.major_words } )
        :: !reps);
  let reps = List.rev !reps in
  let firsts = List.map snd (distinct reps) in
  let metrics =
    catalogue end_to_end
      ([
         ("setup_s", per_input fastest reps (fun r -> seconds r.setup_ns));
         ("run_s", per_input fastest reps (fun r -> seconds r.total_ns));
         ( "queries_per_s",
           per_input highest reps (fun r ->
               float_of_int n /. seconds (r.total_ns - r.setup_ns)) );
         ("minor_words_per_query", mean (List.map (fun r -> per n r.minor) firsts));
         ("major_words_per_query", mean (List.map (fun r -> per n r.major) firsts));
         ("max_rss_mb", max_rss_mb ());
       ]
      @ count_metrics (List.map (fun r -> r.report) firsts))
  in
  {
    attempted = n * List.length reps;
    failed = List.fold_left (fun acc (_, r) -> acc + r.report.unreachable) 0 reps;
    metrics;
    notes =
      [
        Printf.sprintf
          "%d repetitions over %d sub-seeds; run_s per repetition (input:s): %s"
          (List.length reps) subseeds
          (tagged_timings reps (fun r -> r.total_ns));
      ];
  }

let span_table (s : Spans.summary) ~wall_ns =
  let row layer =
    let st = Spans.stats s layer in
    Printf.sprintf "  %-20s %9d %11.3f %6.2f%% %14d" (Spans.layer_name layer)
      st.calls
      (float_of_int st.self_ns /. 1e6)
      (100. *. ratio st.self_ns wall_ns)
      st.self_words
  in
  let gap = wall_ns - s.self_ns_sum in
  (Printf.sprintf "  %-20s %9s %11s %7s %14s" "layer (span)" "calls" "self ms"
     "share" "self words"
  :: List.map row (Array.to_list Spans.layers))
  @ [
      Printf.sprintf "  %-20s %9s %11.3f %6.2f%%" "untraced gaps" ""
        (float_of_int gap /. 1e6)
        (100. *. ratio gap wall_ns);
      Printf.sprintf "  %-20s %9s %11.3f %6.2f%%   (self times + gaps)" "traced wall" ""
        (float_of_int wall_ns /. 1e6) 100.;
    ]

(* The per-layer ledger of one traced repetition: span self times and
   words, the lookup wrapper's counts, the replay, and the report's
   simulated counters. *)
let ledger (r : Driver.result) (s : Spans.summary) (replay : Replay.t) n =
  let st = Spans.stats s in
  let per_q ns = float_of_int ns /. float_of_int n in
  let lookup_ns = Array.map float_of_int s.lookup_ns in
  let pct p =
    if Array.length lookup_ns = 0 then 0. else Stdx.Stats.percentile lookup_ns p
  in
  let lk = r.lookups in
  [
    ("runner.setup.minor_words", float_of_int (st Spans.Setup).total_words);
    ("runner.report_s", seconds (st Spans.Report).total_ns);
    ("runner.report.minor_words", float_of_int (st Spans.Report).total_words);
    ("walk.self_ns_per_query", per_q (st Spans.Walk_step).self_ns);
    ("walk.self.minor_words_per_query", per_q (st Spans.Walk_step).self_words);
    ("walk.steps_per_query", ratio (st Spans.Walk_step).calls n);
    ("index.lookup.calls_per_query", ratio lk.calls n);
    ("index.lookup.ns_per_query", per_q (st Spans.Lookup).total_ns);
    ("index.lookup.ns_p50", pct 50.);
    ("index.lookup.ns_p99", pct 99.);
    ("index.lookup.minor_words_per_call", ratio (st Spans.Lookup).total_words lk.calls);
    ("index.lookup.children_per_call", ratio lk.children lk.calls);
    ("index.lookup.not_indexed_ratio", ratio lk.not_indexed lk.calls);
    ("cache.install.ns_per_query", per_q (st Spans.Install).total_ns);
    ("cache.install.minor_words_per_query", per_q (st Spans.Install).total_words);
    ("churn.ns_per_query", per_q (st Spans.Churn).total_ns);
    ("churn.minor_words_per_query", per_q (st Spans.Churn).total_words);
    ( "rpc.deliver_ns_per_query",
      per_q ((st Spans.Deliver).total_ns + (st Spans.Flush).total_ns) );
    ("workload.ns_per_query", per_q (st Spans.Next_event).total_ns);
    ("tally.ns_per_query", per_q (st Spans.Tally).total_ns);
    ("query.render_ns", replay.render_ns);
    ("query.render_words", replay.render_words);
    ("hash.key_ns", replay.key_ns);
    ("hash.key_words", replay.key_words);
    ("resolver.responsible_ns", replay.responsible_ns);
    ("resolver.responsible_words", replay.responsible_words);
    ("resolver.replicas_ns", replay.replicas_ns);
    ("resolver.replicas_words", replay.replicas_words);
    ("trace.gap_ratio", ratio (r.total_ns - s.self_ns_sum) r.total_ns);
  ]
  @ report_layers r.report n

let sequential_layers (w : Workloads.t) ~seed ~deadline =
  let cfg = w.config (subseed seed 0) in
  let n = cfg.Runner.query_count in
  let first = ref None and failed = ref 0 in
  let run ?spans check =
    let r, f = checked_run w cfg ?spans ~check !first in
    if Option.is_none !first then first := Some f;
    failed := !failed + r.report.unreachable;
    r
  in
  let plain = ref [] and traced = ref [] and first_ledger = ref None in
  (* Untraced and traced repetitions alternate, so both see the same
     machine load; only the first traced one feeds the ledger, which is
     computed at once so no repetition's state outlives it. *)
  repeat ~deadline ~min_reps:2 (fun i ->
      if i mod 2 = 0 then
        plain := seconds (run "reps_identical").total_ns :: !plain
      else begin
        let sp = Spans.create () in
        let r = run ~spans:sp "traced_matches_untraced" in
        traced := seconds r.total_ns :: !traced;
        if Option.is_none !first_ledger then begin
          let replay = Replay.run r.index r.paths in
          if w.static && replay.mismatches > 0 then
            Checks.fail "resolver_matches_walk"
              "%d of %d replayed primaries differ from the node the walk \
               contacted"
              replay.mismatches replay.pairs;
          let s = Spans.summarize sp in
          first_ledger :=
            Some
              ( ledger r s replay n,
                Printf.sprintf
                  "ledger from the first traced repetition: %d spans, %d \
                   replayed pairs"
                  (Spans.span_count sp) replay.pairs
                :: span_table s ~wall_ns:r.total_ns )
        end
      end);
  let values, table = match !first_ledger with Some l -> l | None -> assert false in
  {
    attempted = n * (List.length !plain + List.length !traced);
    failed = !failed;
    metrics =
      catalogue per_layer
        (("trace.overhead_ratio", (median !traced /. median !plain) -. 1.) :: values);
    notes =
      Printf.sprintf "%d untraced + %d traced repetitions, alternating"
        (List.length !plain) (List.length !traced)
      :: table;
  }

(* ------------------------------------------------------------------ *)
(* The sharded engine, timed as a whole. *)

type sharded_rep = {
  report : Sim.Sharded.report;
  ns : int;
  minor : float;
  major : float;
}

let sharded_run ?phases ~shards ~domains ~concurrency cfg =
  let stat0 = Gc.quick_stat () in
  let t0 = Spans.now_ns () in
  let report =
    Sim.Sharded.run ~shards ~domains ?phases ~concurrency ~coalesce:true cfg
  in
  let ns = Spans.now_ns () - t0 in
  let stat1 = Gc.quick_stat () in
  (* [quick_stat] folds in the words of worker domains that have been
     joined, so these counts cover every shard. *)
  {
    report;
    ns;
    minor = stat1.Gc.minor_words -. stat0.Gc.minor_words;
    major = stat1.Gc.major_words -. stat0.Gc.major_words;
  }

let simulated_fields (r : sharded_rep) =
  ("shard_count", string_of_int r.report.shard_count)
  :: Report_fields.of_engine ~keep_family:Report_fields.simulated_family
       r.report.engine

let sharded_checked (w : Workloads.t) ?phases ~shards ~domains ~concurrency cfg =
  Gc.compact ();
  let r = sharded_run ?phases ~shards ~domains ~concurrency cfg in
  Checks.outputs ~static:w.static r.report.engine.base;
  r

(* Every run also checks the 1-domain profiled report against the
   2-domain one: sharding promises identical results for any domain
   count, and only the wall-clock profile families may differ. *)
let profiled_agrees (w : Workloads.t) ~shards ~concurrency cfg reference =
  let phases = Obs.Phase.create ~clock:Monotonic_clock.now () in
  let r = sharded_checked w ~phases ~shards ~domains:1 ~concurrency cfg in
  Checks.same_fields "domains_agree" reference (simulated_fields r);
  (r, phases)

let sharded_end_to_end (w : Workloads.t) ~shards ~domains ~concurrency ~seed ~deadline =
  let n = (w.config seed).Runner.query_count in
  let run cfg = sharded_checked w ~shards ~domains ~concurrency cfg in
  (* Two set-up-only runs per input, so set-up too is a [per_input]
     fastest; their words are exact, so either run serves to subtract. *)
  let setup_runs =
    List.init (2 * subseeds) (fun i ->
        let k = i mod subseeds in
        (k, run { (w.config (subseed seed k)) with Runner.query_count = shards }))
  in
  let setups = Array.init subseeds (fun k -> List.assoc k setup_runs) in
  let setup_ns = per_input fastest setup_runs (fun r -> float_of_int r.ns) in
  (* The 1-domain profiled run of input 0 goes before the repetitions, so
     the deadline covers it; each 2-domain repetition of input 0 must
     agree with it. *)
  let profiled =
    sharded_checked w
      ~phases:(Obs.Phase.create ~clock:Monotonic_clock.now ())
      ~shards ~domains:1 ~concurrency
      (w.config (subseed seed 0))
  in
  let fields = Array.make subseeds None and reps = ref [] in
  fields.(0) <- Some (simulated_fields profiled);
  repeat ~deadline ~min_reps:(2 * subseeds) (fun i ->
      let k = i mod subseeds in
      let r = run (w.config (subseed seed i)) in
      let f = simulated_fields r in
      (match fields.(k) with
      | Some f0 ->
          Checks.same_fields (if k = 0 then "domains_agree" else "reps_identical") f0 f
      | None -> fields.(k) <- Some f);
      reps := (k, r) :: !reps);
  let reps = List.rev !reps in
  (* Words exclude set-up: each input's full run minus its set-up-only run. *)
  let firsts = distinct reps in
  let words f = mean (List.map (fun (k, r) -> per n (f r -. f setups.(k))) firsts) in
  let metrics =
    catalogue end_to_end
      ([
         ("setup_s", setup_ns /. 1e9);
         ("run_s", per_input fastest reps (fun r -> seconds r.ns));
         ( "queries_per_s",
           per_input highest reps (fun r ->
               float_of_int n /. ((float_of_int r.ns -. setup_ns) /. 1e9)) );
         ("minor_words_per_query", words (fun (r : sharded_rep) -> r.minor));
         ("major_words_per_query", words (fun (r : sharded_rep) -> r.major));
         ("max_rss_mb", max_rss_mb ());
       ]
      @ count_metrics (List.map (fun (_, r) -> r.report.engine.base) firsts))
  in
  {
    attempted = n * List.length reps;
    failed =
      List.fold_left (fun acc (_, r) -> acc + r.report.engine.base.unreachable) 0 reps;
    metrics;
    notes =
      [
        Printf.sprintf
          "set-up-only runs (one query per shard, input:s): %s; %d full \
           runs on %d domains over %d sub-seeds (input:s): %s; the 1-domain \
           profiled run agrees"
          (tagged_timings setup_runs (fun r -> r.ns))
          (List.length reps) domains subseeds
          (tagged_timings reps (fun r -> r.ns));
      ];
  }

let sharded_layers (w : Workloads.t) ~shards ~domains ~concurrency ~seed ~deadline =
  let cfg = w.config (subseed seed 0) in
  let n = cfg.Runner.query_count in
  let reference = ref None and triples = ref [] and first_profile = ref None in
  (* Rounds of (parallel, serial, profiled serial) runs: the speed-up and
     the profiling overhead are medians of per-round ratios, and the phase
     split comes from the first profiled run. *)
  repeat ~deadline ~min_reps:1 (fun _ ->
      let parallel = sharded_checked w ~shards ~domains ~concurrency cfg in
      let f = simulated_fields parallel in
      let f0 = match !reference with Some f0 -> f0 | None -> reference := Some f; f in
      Checks.same_fields "reps_identical" f0 f;
      let serial = sharded_checked w ~shards ~domains:1 ~concurrency cfg in
      Checks.same_fields "domains_agree" f0 (simulated_fields serial);
      let profiled, phases = profiled_agrees w ~shards ~concurrency cfg f0 in
      if Option.is_none !first_profile then first_profile := Some (parallel, phases);
      triples := (parallel.ns, serial.ns, profiled.ns) :: !triples);
  let parallel, phases = match !first_profile with Some p -> p | None -> assert false in
  let phase name f =
    match Obs.Phase.find phases name with Some e -> f e | None -> 0.
  in
  let elapsed (e : Obs.Phase.entry) = Int64.to_float e.elapsed_ns /. 1e9 in
  let med f = median (List.map f !triples) in
  let e = parallel.report.engine in
  let base = e.base in
  let metrics =
    catalogue per_layer
      ([
         ("runner.setup.minor_words", phase "setup" (fun e -> e.minor_words));
         ("runner.report_s", phase "report" elapsed);
         ("runner.report.minor_words", phase "report" (fun e -> e.minor_words));
         ( "sharded.domain_speedup",
           med (fun (p, s, _) -> float_of_int s /. float_of_int p) );
         ("sharded.setup_s", phase "setup" elapsed);
         ("sharded.walk_s", phase "walk" elapsed);
         ("sharded.report_s", phase "report" elapsed);
         ("engine.coalesced_per_query", ratio e.coalesced n);
         ("engine.peak_in_flight", float_of_int e.peak_in_flight);
         ("engine.session_latency_virtual_mean_s", Summary.mean e.session_latency);
         ( "trace.overhead_ratio",
           med (fun (_, s, t) -> (float_of_int t /. float_of_int s) -. 1.) );
       ]
      @ report_layers base n)
  in
  let runs = 3 * List.length !triples in
  {
    attempted = runs * n;
    failed = runs * base.unreachable;
    metrics;
    notes =
      Printf.sprintf
        "%d rounds of %d-domain, 1-domain and 1-domain profiled runs (s): %s; \
         all reports agree"
        (List.length !triples) domains
        (String.concat "; "
           (List.rev_map
              (fun (p, s, t) ->
                Printf.sprintf "%.3f %.3f %.3f" (seconds p) (seconds s) (seconds t))
              !triples))
      :: [ Obs.Phase.render_table phases ];
  }

let run (w : Workloads.t) ~seed ~seconds ~trace =
  let deadline = Spans.now_ns () + (seconds * 1_000_000_000) in
  match w.driver with
  | Workloads.Sequential ->
      let header = size_line w seed ~shards:1 ~domains:1 in
      let r =
        if trace then sequential_layers w ~seed ~deadline
        else sequential_end_to_end w ~seed ~deadline
      in
      { r with notes = header :: r.notes }
  | Workloads.Sharded { shards; domains; concurrency } ->
      let header = size_line w seed ~shards ~domains in
      let r =
        if trace then sharded_layers w ~shards ~domains ~concurrency ~seed ~deadline
        else sharded_end_to_end w ~shards ~domains ~concurrency ~seed ~deadline
      in
      { r with notes = header :: r.notes }
