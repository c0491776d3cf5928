(* Second property-test battery: the extended machinery — multi-backup
   state transitions, hop-constrained routing, recovery dynamics, the
   advertised-view protocol and the double-failure evaluator. *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module SP = Dr_topo.Shortest_path
module CP = Dr_topo.Constrained_path
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module FE = Drtp.Failure_eval
module Rng = Dr_rng.Splitmix64

let property ?(count = 50) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let seed_gen = QCheck.int_range 0 1_000_000

let random_graph seed =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 12 in
  Dr_topo.Gen.waxman ~rng ~n ~avg_degree:(3.0 +. Rng.float rng 0.8) ()

let random_pair rng n =
  let a = Rng.int rng n in
  let b = Rng.int rng (n - 1) in
  (a, if b >= a then b + 1 else b)

(* Load a random workload with k backups per connection; stop before any
   release so the network is busy. *)
let loaded_state ?(backup_count = 1) ?(capacity = 15) seed =
  let rng = Rng.create seed in
  let graph = Dr_topo.Gen.waxman ~rng ~n:16 ~avg_degree:3.4 () in
  let manager =
    Drtp.Manager.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed
      ~route:(Routing.link_state_route_fn ~backup_count Routing.Dlsr ~with_backup:true)
  in
  let spec =
    {
      Dr_sim.Workload.arrival_rate = 0.5;
      horizon = 300.0;
      lifetime_lo = 400.0;
      lifetime_hi = 800.0;
      bw = Dr_sim.Workload.constant_bw 1;
      pattern = Dr_sim.Workload.Uniform;
    }
  in
  let scenario = Dr_sim.Workload.generate rng ~node_count:16 spec in
  Array.iter
    (fun item ->
      if item.Dr_sim.Scenario.time <= 300.0 then Drtp.Manager.apply manager item)
    (Dr_sim.Scenario.items scenario);
  (graph, Drtp.Manager.state manager, rng)

let prop_constrained_never_beats_dijkstra =
  property "bounded path cost >= unbounded cost" seed_gen (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 1) in
      let costs =
        Array.init (Graph.link_count g) (fun _ -> 0.1 +. Rng.float rng 2.0)
      in
      let cost l = costs.(l) in
      let src, dst = random_pair rng (Graph.node_count g) in
      let budget = 1 + Rng.int rng 6 in
      match
        ( CP.cheapest_within_hops g ~cost ~src ~dst ~max_hops:budget,
          SP.dijkstra_path g ~cost:costs ~src ~dst )
      with
      | None, _ -> true
      | Some _, None -> false
      | Some (cb, pb), Some (cu, _) ->
          cb +. 1e-9 >= cu && Path.hops pb <= budget && Path.is_simple g pb)

let prop_constrained_monotone_in_budget =
  property "bounded path cost non-increasing in budget" seed_gen (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 2) in
      let costs = Array.init (Graph.link_count g) (fun _ -> 0.1 +. Rng.float rng 2.0) in
      let cost l = costs.(l) in
      let src, dst = random_pair rng (Graph.node_count g) in
      let cost_at h =
        Option.map fst (CP.cheapest_within_hops g ~cost ~src ~dst ~max_hops:h)
      in
      let rec check h prev =
        if h > 8 then true
        else
          match (prev, cost_at h) with
          | _, None -> check (h + 1) prev
          | None, (Some _ as c) -> check (h + 1) c
          | Some p, Some c -> c <= p +. 1e-9 && check (h + 1) (Some c)
      in
      check 1 None)

let prop_multi_backup_invariants =
  property ~count:15 "k=2 workload preserves invariants" seed_gen (fun seed ->
      let _, state, _ = loaded_state ~backup_count:2 seed in
      Net_state.check_invariants state = Ok ())

let prop_backups_within_hop_budget =
  property ~count:20 "bounded route_fn respects the budget" seed_gen (fun seed ->
      let g = random_graph seed in
      let state = Net_state.create ~graph:g ~capacity:10 ~spare_policy:Net_state.Multiplexed in
      let rng = Rng.create (seed + 3) in
      let src, dst = random_pair rng (Graph.node_count g) in
      let slack = Rng.int rng 3 in
      let fn = Routing.link_state_route_fn ~backup_hop_slack:slack Routing.Dlsr ~with_backup:true in
      match fn state ~src ~dst ~bw:1 with
      | Error _ -> true
      | Ok { Routing.primary; backups } ->
          List.for_all (fun b -> Path.hops b <= Path.hops primary + slack) backups)

let prop_promote_random_backup_keeps_invariants =
  property ~count:15 "random promotions preserve invariants" seed_gen (fun seed ->
      let _, state, rng = loaded_state ~backup_count:2 seed in
      (* Promote a handful of random connections on a random backup index. *)
      let ids = ref [] in
      Net_state.iter_conns state (fun c -> ids := c.Net_state.id :: !ids);
      let ids = Array.of_list !ids in
      let ok = ref true in
      for _ = 1 to min 10 (Array.length ids) do
        let id = ids.(Rng.int rng (Array.length ids)) in
        match Net_state.find state id with
        | Some conn when conn.Net_state.backups <> [] ->
            let index = Rng.int rng (List.length conn.Net_state.backups) in
            if Net_state.activation_feasible state ~id ~index () then begin
              Net_state.promote_backup state ~id ~index ();
              if Net_state.check_invariants state <> Ok () then ok := false
            end
        | _ -> ()
      done;
      !ok && Net_state.check_invariants state = Ok ())

let prop_recovery_conserves_connections =
  property ~count:15 "recovery outcomes partition the victims" seed_gen
    (fun seed ->
      let graph, state, rng = loaded_state seed in
      let edge = Rng.int rng (Graph.edge_count graph) in
      let before = Net_state.active_count state in
      let victims = List.length (Net_state.primaries_crossing_edge state edge) in
      let report = Drtp.Recovery.fail_edge_drtp state ~scheme:Routing.Dlsr ~edge () in
      let lost =
        List.length
          (List.filter
             (fun (_, o) -> not (Drtp.Recovery.outcome_is_recovered o))
             report.Drtp.Recovery.outcomes)
      in
      List.length report.Drtp.Recovery.outcomes = victims
      && Net_state.active_count state = before - lost
      && Net_state.check_invariants state = Ok ())

let prop_double_failure_dominated_by_single =
  property ~count:15 "single-failure ft >= double-failure ft" seed_gen
    (fun seed ->
      let _, state, _ = loaded_state seed in
      let single = FE.fault_tolerance (FE.evaluate state) in
      let double = FE.fault_tolerance (FE.evaluate_double ~samples:100 state) in
      double <= single +. 0.02)

let prop_view_refresh_converges =
  property ~count:20 "refreshed advertised view matches ground truth" seed_gen
    (fun seed ->
      let _, state, _ = loaded_state seed in
      let view = Dr_proto.Advertised_view.create state in
      Dr_proto.Advertised_view.refresh_all view state;
      Dr_proto.Advertised_view.staleness_count view state = 0)

let prop_fresh_view_routes_like_ground_truth =
  property ~count:20 "fresh view backup = ground-truth backup" seed_gen
    (fun seed ->
      let graph, state, rng = loaded_state seed in
      let view = Dr_proto.Advertised_view.create state in
      let src, dst = random_pair rng (Graph.node_count graph) in
      match Routing.find_primary state ~src ~dst ~bw:1 with
      | None -> true
      | Some primary ->
          List.for_all
            (fun (scheme, count) ->
              let a =
                Dr_proto.Advertised_view.find_backups view state ~scheme ~primary
                  ~bw:1 ~count
              in
              let b = Routing.find_backups scheme state ~primary ~bw:1 ~count in
              List.map Path.links a = List.map Path.links b)
            [ (Routing.Dlsr, 1); (Routing.Plsr, 2); (Routing.Dlsr, 2); (Routing.Spf, 2) ])

let prop_node_eval_consistent_with_pair =
  property ~count:15 "degree-2 node failure = its edge-pair failure" seed_gen
    (fun seed ->
      let graph, state, _ = loaded_state seed in
      (* For nodes of degree 2, failing the node equals failing its two
         incident edges simultaneously, modulo endpoint exclusions. *)
      let ok = ref true in
      for node = 0 to Graph.node_count graph - 1 do
        if Graph.degree graph node = 2 then begin
          let edges =
            Array.to_list (Graph.out_links graph node) |> List.map Graph.edge_of_link
          in
          match edges with
          | [ e1; e2 ] ->
              let n = FE.evaluate_node state ~node in
              let p = FE.evaluate_edge_pair state ~edges:(e1, e2) in
              (* The pair count includes endpoint connections; transit =
                 pair affected - endpoints. *)
              if
                n.FE.transit_affected + n.FE.endpoint_lost <> p.FE.affected
                || n.FE.transit_activated > p.FE.activated
              then ok := false
          | _ -> ()
        end
      done;
      !ok)

let suite =
  [
    ( "properties.extended",
      [
        prop_constrained_never_beats_dijkstra;
        prop_constrained_monotone_in_budget;
        prop_multi_backup_invariants;
        prop_backups_within_hop_budget;
        prop_promote_random_backup_keeps_invariants;
        prop_recovery_conserves_connections;
        prop_double_failure_dominated_by_single;
        prop_view_refresh_converges;
        prop_fresh_view_routes_like_ground_truth;
        prop_node_eval_consistent_with_pair;
      ] );
  ]
