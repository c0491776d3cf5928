(* Distributed-protocol layer: advertised views, LSA damping, staleness
   setup failures and crankback. *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module View = Dr_proto.Advertised_view
module Sim = Dr_proto.Protocol_sim
module Scenario = Dr_sim.Scenario

let mesh_state ?(capacity = 10) () =
  let graph = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  (graph, Net_state.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed)

let path g nodes = Path.of_nodes g nodes
let link g a b = Option.get (Graph.find_link g ~src:a ~dst:b)

let test_view_snapshots () =
  let g, st = mesh_state () in
  let view = View.create st in
  let l01 = link g 0 1 in
  Alcotest.(check int) "fresh view sees full capacity" 10 (View.free view l01);
  (* Consume ground truth; the view must NOT see it until refreshed. *)
  ignore (Net_state.admit st ~id:1 ~bw:4 ~primary:(path g [ 0; 1 ]) ~backups:[]);
  Alcotest.(check int) "stale view unchanged" 10 (View.free view l01);
  Alcotest.(check bool) "staleness detected" true (View.staleness_count view st > 0);
  View.refresh_link view st l01;
  Alcotest.(check int) "refreshed view sees 6" 6 (View.free view l01);
  View.refresh_all view st;
  Alcotest.(check int) "fully fresh" 0 (View.staleness_count view st)

let test_view_routing_uses_advertisements () =
  let g, st = mesh_state ~capacity:2 () in
  let view = View.create st in
  (* Ground truth: link 0->1 full.  The stale view still offers it. *)
  ignore (Net_state.admit st ~id:1 ~bw:2 ~primary:(path g [ 0; 1 ]) ~backups:[]);
  (match View.find_primary view st ~src:0 ~dst:1 ~bw:1 with
  | Some p -> Alcotest.(check int) "stale view routes the direct hop" 1 (Path.hops p)
  | None -> Alcotest.fail "stale route expected");
  View.refresh_all view st;
  match View.find_primary view st ~src:0 ~dst:1 ~bw:1 with
  | Some p -> Alcotest.(check int) "fresh view detours" 3 (Path.hops p)
  | None -> Alcotest.fail "detour expected"

let test_view_route_matches_ground_truth_when_fresh () =
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2; 5; 8 ])
       ~backups:[ path g [ 0; 3; 6; 7; 8 ] ]);
  let view = View.create st in
  let primary = path g [ 3; 4; 5 ] in
  (* Two backups exercise the pricing of later backups against the
     earlier ones. *)
  List.iter
    (fun (scheme, count) ->
      let from_view = View.find_backups view st ~scheme ~primary ~bw:1 ~count in
      let from_truth = Routing.find_backups scheme st ~primary ~bw:1 ~count in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "identical backup choice (%s, %d)"
           (Routing.scheme_name scheme) count)
        (List.map Path.links from_truth)
        (List.map Path.links from_view))
    [ (Routing.Dlsr, 1); (Routing.Plsr, 2); (Routing.Dlsr, 2); (Routing.Spf, 2) ]

let request ~time ~conn ~src ~dst ~duration =
  { Scenario.time; event = Scenario.Request { conn; src; dst; bw = 1; duration } }

let mesh_scenario items = Scenario.of_items items

let run_sim ?(config = Sim.default_config) ?(capacity = 10) scenario =
  let graph = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  Sim.run ~config ~graph ~capacity ~scenario ~warmup:0.0 ~horizon:1000.0
    ~sample_every:100.0 ()

let test_protocol_accepts_and_releases () =
  let scenario =
    mesh_scenario
      [
        request ~time:1.0 ~conn:0 ~src:0 ~dst:8 ~duration:100.0;
        { Scenario.time = 101.0; event = Scenario.Release { conn = 0 } };
      ]
  in
  let r = run_sim scenario in
  Alcotest.(check int) "accepted" 1 r.Sim.stats.Sim.accepted;
  Alcotest.(check int) "released" 1 r.Sim.stats.Sim.released;
  Alcotest.(check int) "no setup failures" 0 r.Sim.stats.Sim.setup_failures;
  Alcotest.(check bool) "LSAs originated" true (r.Sim.stats.Sim.lsa_originated > 0)

let test_release_during_setup () =
  (* Release fires before the setup message lands (huge hop delay): the
     connection must still be torn down. *)
  let config = { Sim.default_config with Sim.hop_delay = 10.0 } in
  let scenario =
    mesh_scenario
      [
        request ~time:1.0 ~conn:0 ~src:0 ~dst:8 ~duration:5.0;
        { Scenario.time = 6.0; event = Scenario.Release { conn = 0 } };
      ]
  in
  let r = run_sim ~config scenario in
  Alcotest.(check int) "accepted then immediately torn down" 1 r.Sim.stats.Sim.accepted;
  Alcotest.(check int) "released" 1 r.Sim.stats.Sim.released;
  Alcotest.(check (float 1e-9)) "nothing left active" 0.0 r.Sim.avg_active

let test_stale_view_causes_setup_failure () =
  (* Two simultaneous requests race for the last unit of the bottleneck
     link: with damped LSAs both are routed over it, and the second setup
     to arrive must fail.  Capacity 1 per link makes node 0's two edges the
     scarce resource; both conns 0->1. *)
  let config =
    {
      Sim.default_config with
      Sim.min_lsa_interval = 1000.0;
      lsa_flood_delay = 0.0;
      hop_delay = 0.01;
      max_retries = 0;
      backup_count = 0;
    }
  in
  let scenario =
    mesh_scenario
      [
        request ~time:1.0 ~conn:0 ~src:0 ~dst:1 ~duration:500.0;
        request ~time:1.001 ~conn:1 ~src:0 ~dst:1 ~duration:500.0;
      ]
  in
  let r = run_sim ~config ~capacity:1 scenario in
  Alcotest.(check int) "one accepted" 1 r.Sim.stats.Sim.accepted;
  Alcotest.(check int) "one setup failure" 1 r.Sim.stats.Sim.setup_failures;
  Alcotest.(check int) "lost (no retries)" 1 r.Sim.stats.Sim.lost_after_retries

let test_crankback_retry_recovers () =
  (* Same race, but with a retry: the loser re-routes (view refreshed by the
     winner's LSA at interval 0) over the detour and succeeds. *)
  let config =
    {
      Sim.default_config with
      Sim.min_lsa_interval = 0.0;
      lsa_flood_delay = 0.0;
      hop_delay = 0.01;
      max_retries = 2;
      backup_count = 0;
    }
  in
  let scenario =
    mesh_scenario
      [
        request ~time:1.0 ~conn:0 ~src:0 ~dst:1 ~duration:500.0;
        request ~time:1.001 ~conn:1 ~src:0 ~dst:1 ~duration:500.0;
      ]
  in
  let r = run_sim ~config ~capacity:1 scenario in
  Alcotest.(check int) "both eventually accepted" 2 r.Sim.stats.Sim.accepted;
  Alcotest.(check bool) "via a retry" true (r.Sim.stats.Sim.retries >= 1);
  Alcotest.(check int) "nothing lost" 0 r.Sim.stats.Sim.lost_after_retries

let test_lsa_damping_reduces_traffic () =
  let requests =
    List.concat
      (List.init 20 (fun i ->
           [
             request ~time:(1.0 +. float_of_int i) ~conn:i ~src:(i mod 3)
               ~dst:(6 + (i mod 3))
               ~duration:50.0;
             {
               Scenario.time = 51.0 +. float_of_int i;
               event = Scenario.Release { conn = i };
             };
           ]))
  in
  let scenario = mesh_scenario requests in
  let lsa_count interval =
    let config = { Sim.default_config with Sim.min_lsa_interval = interval } in
    (run_sim ~config scenario).Sim.stats.Sim.lsa_originated
  in
  let fresh = lsa_count 0.0 in
  let damped = lsa_count 300.0 in
  Alcotest.(check bool)
    (Printf.sprintf "damping reduces LSAs (%d -> %d)" fresh damped)
    true (damped < fresh)

let test_fresh_protocol_matches_centralised () =
  (* With zero delays and no damping the protocol admits exactly the same
     connections as the centralised manager. *)
  let rng = Dr_rng.Splitmix64.create 77 in
  let graph = Dr_topo.Gen.waxman ~rng ~n:20 ~avg_degree:3.2 () in
  let spec =
    {
      Dr_sim.Workload.arrival_rate = 0.4;
      horizon = 500.0;
      lifetime_lo = 100.0;
      lifetime_hi = 300.0;
      bw = Dr_sim.Workload.constant_bw 1;
      pattern = Dr_sim.Workload.Uniform;
    }
  in
  let scenario = Dr_sim.Workload.generate rng ~node_count:20 spec in
  let config =
    {
      Sim.default_config with
      Sim.min_lsa_interval = 0.0;
      lsa_flood_delay = 0.0;
      hop_delay = 0.0;
      max_retries = 0;
    }
  in
  let proto =
    Sim.run ~config ~graph ~capacity:8 ~scenario ~warmup:0.0 ~horizon:1000.0
      ~sample_every:200.0 ()
  in
  let manager =
    Drtp.Manager.create ~graph ~capacity:8 ~spare_policy:Net_state.Multiplexed
      ~route:(Routing.link_state_route_fn Routing.Dlsr ~with_backup:true)
  in
  Drtp.Manager.run manager scenario;
  let central = Drtp.Manager.stats manager in
  Alcotest.(check int) "same acceptance as centralised"
    central.Drtp.Manager.accepted proto.Sim.stats.Sim.accepted;
  Alcotest.(check int) "no setup failures when fresh" 0
    proto.Sim.stats.Sim.setup_failures

let test_staleness_experiment_rows () =
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
    Dr_exp.Staleness_exp.run cfg ~avg_degree:3.0 ~traffic:Dr_exp.Config.UT
      ~lambda:0.4 ~intervals:[ 0.0; 60.0 ] ()
  in
  match rows with
  | [ fresh; damped ] ->
      Alcotest.(check bool) "fresh has fewer setup failures" true
        (fresh.Dr_exp.Staleness_exp.setup_failure_rate
        <= damped.Dr_exp.Staleness_exp.setup_failure_rate);
      Alcotest.(check bool) "damped has fewer LSAs" true
        (damped.Dr_exp.Staleness_exp.lsa_per_second
        <= fresh.Dr_exp.Staleness_exp.lsa_per_second +. 1e-9);
      Alcotest.(check bool) "damped view is staler" true
        (damped.Dr_exp.Staleness_exp.avg_stale_links
        >= fresh.Dr_exp.Staleness_exp.avg_stale_links)
  | _ -> Alcotest.fail "two rows expected"

(* ---- lossy signalling --------------------------------------------------- *)

let lossy_config spec =
  {
    Sim.default_config with
    Sim.faults = Some (Dr_faults.Faults.create ~seed:17 spec);
  }

let two_requests =
  mesh_scenario
    [
      request ~time:1.0 ~conn:0 ~src:0 ~dst:8 ~duration:100.0;
      request ~time:2.0 ~conn:1 ~src:6 ~dst:2 ~duration:100.0;
    ]

let test_zero_spec_protocol_identical () =
  let clean = run_sim two_requests in
  let zero = run_sim ~config:(lossy_config Dr_faults.Faults.zero_spec) two_requests in
  Alcotest.(check bool) "zero-spec run identical to no plan" true (clean = zero)

let test_setup_loss_exhausts_and_loses () =
  let spec = { Dr_faults.Faults.zero_spec with Dr_faults.Faults.p_setup = 1.0 } in
  let r = run_sim ~config:(lossy_config spec) two_requests in
  Alcotest.(check int) "nothing admitted" 0 r.Sim.stats.Sim.accepted;
  Alcotest.(check int) "both connections lost" 2 r.Sim.stats.Sim.lost_after_retries;
  Alcotest.(check bool) "setups dropped" true (r.Sim.stats.Sim.setup_dropped > 0);
  Alcotest.(check bool) "retransmissions attempted" true
    (r.Sim.stats.Sim.retransmits > 0);
  (* Every abandoned setup burned the full retransmission budget before
     cranking back. *)
  let per_attempt = Sim.default_config.Sim.max_retransmits + 1 in
  Alcotest.(check bool) "drops consistent with budget" true
    (r.Sim.stats.Sim.setup_dropped >= 2 * per_attempt)

let test_ack_loss_fails_setup () =
  let spec = { Dr_faults.Faults.zero_spec with Dr_faults.Faults.p_ack = 1.0 } in
  let r = run_sim ~config:(lossy_config spec) two_requests in
  Alcotest.(check int) "no admission without an ACK" 0 r.Sim.stats.Sim.accepted;
  Alcotest.(check bool) "acks dropped" true (r.Sim.stats.Sim.ack_dropped > 0);
  Alcotest.(check bool) "counted as setup failures" true
    (r.Sim.stats.Sim.setup_failures > 0)

let test_mild_loss_still_admits () =
  let spec = Dr_faults.Faults.uniform_spec 0.1 in
  let r = run_sim ~config:(lossy_config spec) two_requests in
  Alcotest.(check bool) "retransmission rescues most setups" true
    (r.Sim.stats.Sim.accepted >= 1)

let suite =
  [
    ( "protocol",
      [
        Alcotest.test_case "view snapshots" `Quick test_view_snapshots;
        Alcotest.test_case "view routing uses advertisements" `Quick test_view_routing_uses_advertisements;
        Alcotest.test_case "fresh view = ground truth routing" `Quick test_view_route_matches_ground_truth_when_fresh;
        Alcotest.test_case "accept and release" `Quick test_protocol_accepts_and_releases;
        Alcotest.test_case "release during setup" `Quick test_release_during_setup;
        Alcotest.test_case "stale view -> setup failure" `Quick test_stale_view_causes_setup_failure;
        Alcotest.test_case "crankback retry recovers" `Quick test_crankback_retry_recovers;
        Alcotest.test_case "LSA damping reduces traffic" `Quick test_lsa_damping_reduces_traffic;
        Alcotest.test_case "fresh protocol = centralised" `Quick test_fresh_protocol_matches_centralised;
        Alcotest.test_case "staleness experiment" `Slow test_staleness_experiment_rows;
        Alcotest.test_case "zero-spec plan identical" `Quick test_zero_spec_protocol_identical;
        Alcotest.test_case "setup loss exhausts and loses" `Quick test_setup_loss_exhausts_and_loses;
        Alcotest.test_case "ack loss fails setup" `Quick test_ack_loss_fails_setup;
        Alcotest.test_case "mild loss still admits" `Quick test_mild_loss_still_admits;
      ] );
  ]
