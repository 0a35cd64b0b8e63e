(* Driver equivalence: on a reduced copy of every sequential workload, the
   benchmark's driver must return the report [Sim.Runner.run] returns,
   metrics snapshot included, with spans off and with spans on.  Also
   pins the span ledger's arithmetic: self times plus gaps make the
   traced wall time, and every session's walk shows up as steps. *)

open Perfbench

let failures = ref 0

let check name ok detail =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s: %s\n%!" name (Lazy.force detail)
  end
  else Printf.printf "ok   %s\n%!" name

let same name a b =
  match Report_fields.first_difference a b with
  | None -> check name true (lazy "")
  | Some d -> check name false (lazy (Report_fields.describe d))

let equivalence (w : Workloads.t) =
  let cfg = Workloads.reduced w 7L in
  let reference = Report_fields.of_runner (Sim.Runner.run cfg) in
  let plain = Driver.run cfg in
  same (w.name ^ ": untraced driver = Runner.run") reference
    (Report_fields.of_runner plain.report);
  let sp = Spans.create () in
  let traced = Driver.run ~spans:sp cfg in
  same (w.name ^ ": traced driver = Runner.run") reference
    (Report_fields.of_runner traced.report);
  let s = Spans.summarize sp in
  let n = cfg.Sim.Runner.query_count in
  check (w.name ^ ": one session span per query")
    ((Spans.stats s Spans.Session).calls = n)
    (lazy (string_of_int (Spans.stats s Spans.Session).calls));
  check (w.name ^ ": walk steps equal tallied interactions")
    (float_of_int (Spans.stats s Spans.Walk_step).calls
    = Stdx.Stats.Summary.total traced.report.interactions)
    (lazy "step spans and interactions disagree");
  let gap = traced.total_ns - s.self_ns_sum in
  check (w.name ^ ": self times never exceed the traced wall time") (gap >= 0)
    (lazy (Printf.sprintf "gap %d ns" gap));
  check (w.name ^ ": one lookup span per probe")
    ((Spans.stats s Spans.Lookup).calls = traced.lookups.calls)
    (lazy "lookup spans and wrapper calls disagree");
  Checks.outputs ~static:w.static traced.report;
  if w.static then begin
    let replay = Replay.run traced.index traced.paths in
    check (w.name ^ ": replayed primaries match the walk") (replay.mismatches = 0)
      (lazy (Printf.sprintf "%d of %d differ" replay.mismatches replay.pairs))
  end

let () =
  List.iter
    (fun (w : Workloads.t) ->
      match w.driver with
      | Workloads.Sequential -> equivalence w
      | Workloads.Sharded _ -> ())
    Workloads.all;
  if !failures > 0 then exit 1
