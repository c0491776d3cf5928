(* Hop-constrained cheapest paths and QoS-bounded backup routing. *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module CP = Dr_topo.Constrained_path
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing

let unit_cost _ = 1.0

let test_matches_dijkstra_when_loose () =
  let g = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  match
    ( CP.cheapest_within_hops g ~cost:unit_cost ~src:0 ~dst:8 ~max_hops:8,
      Dr_topo.Shortest_path.dijkstra_path g
        ~cost:(Array.make (Graph.link_count g) 1.0)
        ~src:0 ~dst:8 )
  with
  | Some (c1, p1), Some (c2, _) ->
      Alcotest.(check (float 1e-9)) "same cost" c2 c1;
      Alcotest.(check int) "4 hops" 4 (Path.hops p1)
  | _ -> Alcotest.fail "paths expected"

let test_infeasible_budget () =
  let g = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  Alcotest.(check bool) "needs 4 hops, budget 3" true
    (CP.cheapest_within_hops g ~cost:unit_cost ~src:0 ~dst:8 ~max_hops:3 = None);
  Alcotest.(check bool) "exactly 4 works" true
    (CP.cheapest_within_hops g ~cost:unit_cost ~src:0 ~dst:8 ~max_hops:4 <> None)

let test_budget_forces_expensive_shortcut () =
  (* Ring of 6 with the short way made expensive: unbounded takes the long
     way round (cost 5 x 1), a 1-hop budget takes the expensive direct
     link. *)
  let g = Dr_topo.Gen.ring 6 in
  let direct = Option.get (Graph.find_link g ~src:0 ~dst:1) in
  let cost l = if l = direct then 10.0 else 1.0 in
  (match
     Dr_topo.Shortest_path.dijkstra_path g
       ~cost:(Array.init (Graph.link_count g) cost)
       ~src:0 ~dst:1
   with
  | Some (c, p) ->
      Alcotest.(check (float 1e-9)) "unbounded prefers detour" 5.0 c;
      Alcotest.(check int) "5 hops" 5 (Path.hops p)
  | None -> Alcotest.fail "path expected");
  match CP.cheapest_within_hops g ~cost ~src:0 ~dst:1 ~max_hops:2 with
  | Some (c, p) ->
      Alcotest.(check (float 1e-9)) "budget forces the direct link" 10.0 c;
      Alcotest.(check int) "1 hop" 1 (Path.hops p)
  | None -> Alcotest.fail "bounded path expected"

let test_respects_budget_and_cost_tradeoff () =
  let g = Dr_topo.Gen.ring 6 in
  let direct = Option.get (Graph.find_link g ~src:0 ~dst:1) in
  let cost l = if l = direct then 10.0 else 1.0 in
  (* Budget 5 admits the detour again. *)
  match CP.cheapest_within_hops g ~cost ~src:0 ~dst:1 ~max_hops:5 with
  | Some (c, _) -> Alcotest.(check (float 1e-9)) "detour returns" 5.0 c
  | None -> Alcotest.fail "path expected"

let test_infinite_cost_excluded () =
  let g = Dr_topo.Gen.line 3 in
  let l12 = Option.get (Graph.find_link g ~src:1 ~dst:2) in
  let cost l = if l = l12 then infinity else 1.0 in
  Alcotest.(check bool) "blocked" true
    (CP.cheapest_within_hops g ~cost ~src:0 ~dst:2 ~max_hops:5 = None)

let test_validation () =
  let g = Dr_topo.Gen.ring 4 in
  Alcotest.(check bool) "max_hops 0 rejected" true
    (try ignore (CP.cheapest_within_hops g ~cost:unit_cost ~src:0 ~dst:1 ~max_hops:0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative cost rejected" true
    (try
       ignore (CP.cheapest_within_hops g ~cost:(fun _ -> -1.0) ~src:0 ~dst:1 ~max_hops:2);
       false
     with Invalid_argument _ -> true)

let test_degenerate_queries () =
  (* src = dst is a non-query, answered None rather than raised; a
     disconnected destination is None at any budget. *)
  let g = Graph.create ~node_count:4 ~edges:[ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "src = dst" true
    (CP.cheapest_within_hops g ~cost:unit_cost ~src:2 ~dst:2 ~max_hops:3 = None);
  Alcotest.(check bool) "disconnected dst" true
    (CP.cheapest_within_hops g ~cost:unit_cost ~src:0 ~dst:3 ~max_hops:10 = None)

let test_random_agreement_with_yen () =
  (* Oracle: the cheapest bounded path equals the cheapest of Yen's k
     shortest that fits the budget (for k large enough on small graphs). *)
  let rng = Dr_rng.Splitmix64.create 5 in
  for seed = 1 to 20 do
    let rng2 = Dr_rng.Splitmix64.create seed in
    let g = Dr_topo.Gen.erdos_renyi ~rng:rng2 ~n:8 ~avg_degree:2.8 in
    let costs =
      Array.init (Graph.link_count g) (fun _ -> 0.5 +. Dr_rng.Splitmix64.float rng 3.0)
    in
    let cost l = costs.(l) in
    let src = 0 and dst = 7 in
    let budget = 3 in
    let bounded = CP.cheapest_within_hops g ~cost ~src ~dst ~max_hops:budget in
    let yen =
      Dr_topo.Yen.k_shortest g ~cost ~src ~dst ~k:40
      |> List.filter (fun (_, p) -> Path.hops p <= budget)
    in
    match (bounded, yen) with
    | None, [] -> ()
    | Some (c, _), (c', _) :: _ ->
        Alcotest.(check (float 1e-9)) (Printf.sprintf "seed %d" seed) c' c
    | Some _, [] -> Alcotest.failf "seed %d: bounded found, yen did not" seed
    | None, _ :: _ -> Alcotest.failf "seed %d: yen found, bounded did not" seed
  done

let test_reachable_within_hops () =
  let g = Dr_topo.Gen.line 5 in
  let reach = CP.reachable_within_hops g ~usable:(fun _ -> true) ~src:0 ~max_hops:2 in
  Alcotest.(check (array bool)) "two hops down the line"
    [| true; true; true; false; false |] reach

let test_bounded_backup_routing () =
  let graph = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  let st = Net_state.create ~graph ~capacity:10 ~spare_policy:Net_state.Multiplexed in
  let primary = Path.of_nodes graph [ 0; 1; 2 ] in
  (* Unbounded: 4-hop disjoint backup exists. *)
  (match Routing.find_backup Routing.Dlsr st ~primary ~bw:1 with
  | Some b -> Alcotest.(check int) "unbounded backup" 4 (Path.hops b)
  | None -> Alcotest.fail "backup expected");
  (* Budget 2 (= primary length): no 2-hop disjoint route exists from 0 to
     2; the bounded search must settle for an overlapping one or fail —
     with Q finite the only 2-hop alternative is the primary itself, which
     is excluded, so expect None via the route_fn slack 0. *)
  let fn = Routing.link_state_route_fn ~backup_hop_slack:0 Routing.Dlsr ~with_backup:true in
  (match fn st ~src:0 ~dst:2 ~bw:1 with
  | Error Routing.No_backup -> ()
  | Ok { Routing.backups = [ b ]; _ } ->
      (* If a 2-hop walk exists it must differ from the primary. *)
      Alcotest.(check bool) "within budget" true (Path.hops b <= 2)
  | _ -> Alcotest.fail "unexpected");
  (* Slack 2 admits the 4-hop disjoint backup. *)
  let fn2 = Routing.link_state_route_fn ~backup_hop_slack:2 Routing.Dlsr ~with_backup:true in
  match fn2 st ~src:0 ~dst:2 ~bw:1 with
  | Ok { Routing.backups = [ b ]; _ } ->
      Alcotest.(check int) "disjoint within slack" 0 (Path.edge_overlap b primary);
      Alcotest.(check bool) "within budget" true (Path.hops b <= 4)
  | _ -> Alcotest.fail "bounded backup expected"

let test_qos_ablation_shape () =
  let cfg =
    {
      Dr_exp.Config.default with
      Dr_exp.Config.warmup = 600.0;
      horizon = 1500.0;
      lifetime_lo = 200.0;
      lifetime_hi = 400.0;
    }
  in
  let rows =
    Dr_exp.Ablation.qos_bound cfg ~avg_degree:3.0 ~traffic:Dr_exp.Config.UT
      ~lambda:0.3 ~slacks:[ Some 0; None ] ()
  in
  match rows with
  | [ tight; unbounded ] ->
      Alcotest.(check bool) "tight budget rejects more" true
        (tight.Dr_exp.Ablation.rejected_no_backup
        > unbounded.Dr_exp.Ablation.rejected_no_backup);
      Alcotest.(check bool) "tight budget shortens backups" true
        (tight.Dr_exp.Ablation.avg_backup_hops
        <= unbounded.Dr_exp.Ablation.avg_backup_hops);
      Alcotest.(check int) "unbounded rejects none" 0
        unbounded.Dr_exp.Ablation.rejected_no_backup
  | _ -> Alcotest.fail "two rows expected"

let suite =
  [
    ( "topology.constrained_path",
      [
        Alcotest.test_case "matches dijkstra when loose" `Quick test_matches_dijkstra_when_loose;
        Alcotest.test_case "infeasible budget" `Quick test_infeasible_budget;
        Alcotest.test_case "budget forces shortcut" `Quick test_budget_forces_expensive_shortcut;
        Alcotest.test_case "budget/cost trade-off" `Quick test_respects_budget_and_cost_tradeoff;
        Alcotest.test_case "infinite cost excluded" `Quick test_infinite_cost_excluded;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "degenerate queries" `Quick test_degenerate_queries;
        Alcotest.test_case "agrees with yen oracle" `Quick test_random_agreement_with_yen;
        Alcotest.test_case "reachability" `Quick test_reachable_within_hops;
        Alcotest.test_case "bounded backup routing" `Quick test_bounded_backup_routing;
        Alcotest.test_case "QoS ablation shape (E5)" `Slow test_qos_ablation_shape;
      ] );
  ]
