module Runner = Sim.Runner
module Summary = Stdx.Stats.Summary

exception Failed of { check : string; detail : string }

let fail check fmt =
  Printf.ksprintf (fun detail -> raise (Failed { check; detail })) fmt

(* The checks every simulated run must pass, whatever its workload. *)
let outputs ~static (r : Runner.report) =
  let sessions = Summary.count r.interactions in
  if sessions <> r.config.Runner.query_count then
    fail "session_count" "%d sessions tallied, %d configured" sessions
      r.config.Runner.query_count;
  if static && r.unreachable <> 0 then
    fail "unreachable_zero" "%d of %d sessions never reached their target"
      r.unreachable sessions;
  let lo = Summary.min r.interactions and hi = Summary.max r.interactions in
  if lo < 1. || hi > float_of_int Sim.Walk.max_steps then
    fail "interactions_in_range" "interactions span [%g, %g], outside [1, %d]" lo
      hi Sim.Walk.max_steps;
  let billed =
    r.request_bytes + r.response_bytes + r.cache_bytes + r.maintenance_bytes
  in
  let counted = Obs.Metrics.counter_total r.metrics "p2pindex_network_bytes_total" in
  if billed <> counted then
    fail "bytes_balance"
      "report bills %d B (request+response+cache+maintenance), registry \
       counts %d B"
      billed counted

let same_fields check a b =
  match Report_fields.first_difference a b with
  | None -> ()
  | Some d -> fail check "%s" (Report_fields.describe d)
