module Runner = Sim.Runner
module Internal = Runner.Internal
module Walk = Sim.Walk
module Index = Bib.Bib_index

type lookup_stats = {
  mutable calls : int;
  mutable children : int;
  mutable not_indexed : int;
}

type result = {
  report : Runner.report;
  index : Index.t;
  setup_ns : int;
  total_ns : int;
  minor_words : float;
  major_words : float;
  paths : (Bib.Bib_query.t * int) list list;
  lookups : lookup_stats;
}

(* The traced index probe: the [lookup] the walk calls, timed as its own
   span, with the answer's shape counted inside the span. *)
let traced_lookup sp idx stats ~rendered q =
  let id = Spans.enter sp Spans.Lookup in
  let answer = Index.lookup_step_rendered idx ~rendered q in
  stats.calls <- stats.calls + 1;
  (match answer with
  | Index.Children l -> stats.children <- stats.children + List.length l
  | Index.Not_indexed -> stats.not_indexed <- stats.not_indexed + 1
  | Index.File _ -> ());
  Spans.leave sp id;
  answer

(* The call sequence of [Sim.Runner.run], spelled out so set-up, every
   session's layers and the report can be timed apart.  Untraced, the
   probe is [lookup_step_rendered] itself and the loop adds one branch
   per layer boundary, so the numbers are those of a plain run. *)
let run ?spans (cfg : Runner.config) =
  let t0 = Spans.now_ns () in
  let id = Spans.enter_opt spans Spans.Setup in
  let env = Internal.setup cfg in
  Spans.leave_opt spans id;
  let t_setup = Spans.now_ns () in
  let stat0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let cfg = Internal.config env in
  let ctx = Internal.walk_ctx env in
  let rpc = Internal.rpc env in
  let clock = Internal.clock_ref env in
  let idx = Internal.index env in
  let stats = { calls = 0; children = 0; not_indexed = 0 } in
  let lookup =
    match spans with
    | None -> Index.lookup_step_rendered idx
    | Some sp -> traced_lookup sp idx stats
  in
  let rec walk s =
    let id = Spans.enter_opt spans Spans.Walk_step in
    let status = Walk.step ctx ~lookup s in
    Spans.leave_opt spans id;
    match status with Walk.Running s -> walk s | Walk.Finished o -> o
  in
  let query_rate =
    match cfg.Runner.churn with Some c -> c.Runner.query_rate | None -> 0.
  in
  let tally = Internal.tally_create () in
  let paths = ref [] in
  for i = 1 to cfg.Runner.query_count do
    let root =
      match spans with
      | None -> -1
      | Some sp ->
          Spans.set_session sp i;
          Spans.enter sp Spans.Session
    in
    if query_rate > 0. then begin
      let id = Spans.enter_opt spans Spans.Churn in
      Internal.advance_churn env ~until:(float_of_int i /. query_rate);
      Spans.leave_opt spans id
    end;
    let id = Spans.enter_opt spans Spans.Deliver in
    ignore (Dht.Rpc.deliver_until rpc ~now:!clock : int);
    Spans.leave_opt spans id;
    let id = Spans.enter_opt spans Spans.Next_event in
    let event = Internal.next_event env in
    Spans.leave_opt spans id;
    let id = Spans.enter_opt spans Spans.Walk_start in
    let s0 = Walk.start event in
    Spans.leave_opt spans id;
    let outcome = walk s0 in
    let id = Spans.enter_opt spans Spans.Install in
    Walk.install_shortcuts ctx s0 outcome;
    Spans.leave_opt spans id;
    let id = Spans.enter_opt spans Spans.Tally in
    Internal.tally_record tally outcome;
    Spans.leave_opt spans id;
    (* Traced runs keep every path for the post-run replay. *)
    if Option.is_some spans then paths := outcome.Walk.path :: !paths;
    Spans.leave_opt spans root
  done;
  let id = Spans.enter_opt spans Spans.Flush in
  ignore (Dht.Rpc.flush_deliveries rpc : int);
  Spans.leave_opt spans id;
  let id = Spans.enter_opt spans Spans.Report in
  let report = Internal.make_report env tally in
  Spans.leave_opt spans id;
  let minor1 = Gc.minor_words () in
  let stat1 = Gc.quick_stat () in
  let t1 = Spans.now_ns () in
  {
    report;
    index = idx;
    setup_ns = t_setup - t0;
    total_ns = t1 - t0;
    minor_words = minor1 -. minor0;
    major_words = stat1.Gc.major_words -. stat0.Gc.major_words;
    paths = !paths;
    lookups = stats;
  }
