(* perfbench: one benchmark run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints the run's input sizes, a human-readable metric table and, as the
   last line of standard output, one JSON object with the keys
   [correct], [attempted], [failed] and [metrics].  [--trace 0] reports
   the end-to-end metrics from untraced runs; [--trace 1] the per-layer
   ledger from a traced run.  A failed output check prints its name on
   standard error and exits 1 without a result. *)

let usage () =
  Printf.eprintf
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: %s\n"
    (String.concat ", "
       (List.map (fun (w : Perfbench.Workloads.t) -> w.name) Perfbench.Workloads.all));
  exit 2

(* Shortest decimal that reads back as the same float, so no measured
   digit is dropped; JSON has no NaN or infinity. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p v in
      if p >= 17 || Float.equal (float_of_string s) v then s else shortest (p + 1)
    in
    shortest 6
  else "null"

let json_result (r : Perfbench.Bench.result) =
  let metric (m : Perfbench.Bench.metric) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
      m.unit
  in
  Printf.sprintf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ( "--seed",
        Arg.String (fun s -> seed := Int64.of_string_opt s),
        "N workload seed" );
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad a)) "perfbench"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let w =
    match Perfbench.Workloads.find !workload with Some w -> w | None -> usage ()
  in
  let seed = match !seed with Some s -> s | None -> usage () in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  match Perfbench.Bench.run w ~seed ~seconds:!seconds ~trace:(!trace = 1) with
  | r ->
      List.iter print_endline r.notes;
      List.iter
        (fun (m : Perfbench.Bench.metric) ->
          Printf.printf "  %-40s %16s %s\n" m.name (json_number m.value) m.unit)
        r.metrics;
      print_endline (json_result r)
  | exception Perfbench.Checks.Failed { check; detail } ->
      Printf.eprintf "perfbench: check failed: %s: %s\n" check detail;
      exit 1
