(* Differential tests: the routing fast path ({!Drtp.Routing}) against the
   reference oracle ({!Drtp.Routing_reference}), driven through the
   {!Drtp.Routing_check} harness.  A single divergent route, a single bit
   of a cost decomposition, or a single state-invariant violation after a
   mutation fails these tests. *)

module RC = Drtp.Routing_check

let property ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let fail_report r =
  Alcotest.failf "%d divergences:@.%a" r.RC.divergence_count RC.pp_report r

(* The acceptance-criteria run: the harness defaults replay >= 500
   randomized admissions (4 graphs x 3 schemes x 60 attempts, with
   edge/node failure churn) and must see zero divergence. *)
let test_default_run () =
  let r = RC.run RC.default_params in
  if r.RC.divergence_count > 0 then fail_report r;
  Alcotest.(check bool)
    "at least 500 admissions exercised" true
    (r.RC.admissions_checked >= 500);
  Alcotest.(check int) "all graphs ran" RC.default_params.RC.graphs
    r.RC.graphs_run;
  Alcotest.(check bool) "churn actually happened" true (r.RC.churn_events > 0);
  Alcotest.(check bool)
    "some admissions were accepted" true (r.RC.admitted > 0)

(* Heavy churn: fail/restore after nearly every admission, so most verdict
   comparisons run against a degraded network (Dead links, promoted spare,
   partially-released state). *)
let test_churn_heavy () =
  let params =
    {
      RC.default_params with
      RC.graphs = 2;
      nodes = 16;
      admissions = 40;
      churn_every = 2;
      seed = 1234;
    }
  in
  let r = RC.run params in
  if r.RC.divergence_count > 0 then fail_report r;
  Alcotest.(check bool) "churned" true (r.RC.churn_events >= 30)

(* No-churn control: both sides must also agree on a healthy network. *)
let test_no_churn () =
  let params =
    {
      RC.default_params with
      RC.graphs = 1;
      nodes = 24;
      admissions = 50;
      churn_every = 0;
      seed = 99;
    }
  in
  let r = RC.run params in
  if r.RC.divergence_count > 0 then fail_report r

(* qcheck: any seed, any small topology — fast path and oracle agree. *)
let prop_random_seeds =
  property ~count:12 "fast path = oracle on random seeds/topologies"
    QCheck.(pair (int_range 0 100_000) (int_range 10 20))
    (fun (seed, nodes) ->
      let params =
        {
          RC.default_params with
          RC.graphs = 1;
          nodes;
          admissions = 15;
          churn_every = 3;
          seed;
          max_bw = 3;
          capacity = 30;
        }
      in
      let r = RC.run_graph params ~graph_index:0 in
      if r.RC.divergence_count > 0 then
        QCheck.Test.fail_reportf "%a" RC.pp_report r;
      true)

let test_report_merge () =
  let r = { RC.empty_report with RC.graphs_run = 1; admissions_checked = 5 } in
  let m = RC.merge r (RC.merge r r) in
  Alcotest.(check int) "graphs sum" 3 m.RC.graphs_run;
  Alcotest.(check int) "admissions sum" 15 m.RC.admissions_checked

let suite =
  [
    ( "differential",
      [
        Alcotest.test_case "default run: >=500 admissions, 0 divergence" `Slow
          test_default_run;
        Alcotest.test_case "heavy churn" `Quick test_churn_heavy;
        Alcotest.test_case "no churn" `Quick test_no_churn;
        Alcotest.test_case "report merge" `Quick test_report_merge;
        prop_random_seeds;
      ] );
  ]
