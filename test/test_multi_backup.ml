(* Multi-backup semantics: the paper's "one primary and one or more backup
   channels".  These tests exercise two backups end to end: routing,
   registration, activation priority, contention fallback to the second
   backup, promotion with surviving backups, and reconfiguration. *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module Resources = Drtp.Resources
module FE = Drtp.Failure_eval

(* The double ring has three edge-disjoint paths between opposite nodes, so
   a primary plus two mutually disjoint backups exist. *)
let ring_state ?(capacity = 10) () =
  let graph = Dr_topo.Gen.double_ring 8 in
  (graph, Net_state.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed)

let mesh_state ?(capacity = 10) () =
  let graph = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  (graph, Net_state.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed)

let path g nodes = Path.of_nodes g nodes
let edge g a b = Graph.edge_of_link (Option.get (Graph.find_link g ~src:a ~dst:b))

let check_inv st =
  match Net_state.check_invariants st with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant violated: %s" msg

let test_find_two_disjoint_backups () =
  let _, st = ring_state () in
  let g = Net_state.graph st in
  let primary = Option.get (Routing.find_primary st ~src:0 ~dst:4 ~bw:1) in
  let backups = Routing.find_backups Routing.Dlsr st ~primary ~bw:1 ~count:2 in
  Alcotest.(check int) "two backups found" 2 (List.length backups);
  match backups with
  | [ b1; b2 ] ->
      Alcotest.(check int) "b1 disjoint from primary" 0 (Path.edge_overlap b1 primary);
      Alcotest.(check int) "b2 disjoint from primary" 0 (Path.edge_overlap b2 primary);
      Alcotest.(check int) "b1 disjoint from b2" 0 (Path.edge_overlap b1 b2);
      Alcotest.(check bool) "all simple" true
        (Path.is_simple g b1 && Path.is_simple g b2)
  | _ -> Alcotest.fail "expected two"

let test_count_capped_by_topology () =
  (* A ring only has two edge-disjoint routes; the third request must come
     back empty-handed rather than overlap. *)
  let graph = Dr_topo.Gen.ring 6 in
  let st = Net_state.create ~graph ~capacity:10 ~spare_policy:Net_state.Multiplexed in
  let primary = Path.of_nodes graph [ 0; 1; 2; 3 ] in
  let backups = Routing.find_backups Routing.Dlsr st ~primary ~bw:1 ~count:3 in
  (* The second "backup" can only repeat one of the existing routes modulo
     Q-penalties; the dedup rule stops the enumeration. *)
  Alcotest.(check int) "only one extra disjoint route exists" 1 (List.length backups)

let test_admit_registers_both () =
  let _, st = ring_state () in
  let g = Net_state.graph st in
  let primary = path g [ 0; 1; 2; 3; 4 ] in
  let b1 = path g [ 0; 7; 6; 5; 4 ] in
  let b2 = path g [ 0; 4 ] in
  let conn = Net_state.admit st ~id:1 ~bw:1 ~primary ~backups:[ b1; b2 ] in
  Alcotest.(check int) "two backups stored" 2 (List.length conn.Net_state.backups);
  let r = Net_state.resources st in
  List.iter
    (fun b ->
      List.iter
        (fun l -> Alcotest.(check int) "spare on every backup link" 1 (Resources.spare_bw r l))
        (Path.links b))
    [ b1; b2 ];
  check_inv st;
  Net_state.release st ~id:1;
  Alcotest.(check int) "everything returned" 0 (Resources.total_spare r);
  check_inv st

let test_failure_eval_uses_second_backup () =
  let _, st = ring_state () in
  let g = Net_state.graph st in
  let primary = path g [ 0; 1; 2; 3; 4 ] in
  (* First backup deliberately overlaps the primary on edge (0,1); second is
     disjoint.  A failure of (0,1) must fall through to the second. *)
  let b1 = path g [ 0; 1; 5; 4 ] in
  let b2 = path g [ 0; 7; 6; 5; 4 ] in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary ~backups:[ b1; b2 ]);
  let o = FE.evaluate_edge st ~edge:(edge g 0 1) in
  Alcotest.(check int) "affected" 1 o.FE.affected;
  Alcotest.(check int) "activated via second backup" 1 o.FE.activated;
  (* Failure elsewhere on the primary: the first backup works. *)
  let o2 = FE.evaluate_edge st ~edge:(edge g 2 3) in
  Alcotest.(check int) "first backup suffices" 1 o2.FE.activated

let test_second_backup_rescues_contention () =
  (* Two connections whose primaries share edge (0,1) and whose first
     backups both need the starved link 3->4 (spare for one): on a failure
     of (0,1), connection 1 wins the spare, and connection 2 only survives
     through its second backup. *)
  let _, st = mesh_state ~capacity:2 () in
  let g = Net_state.graph st in
  ignore (Net_state.admit st ~id:10 ~bw:1 ~primary:(path g [ 3; 4 ]) ~backups:[]);
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  let with_second_backup = [ path g [ 0; 3; 4 ]; path g [ 0; 3; 6; 7; 4 ] ] in
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 1; 4 ])
       ~backups:with_second_backup);
  Alcotest.(check int) "3->4 spare is short by one"
    1 (Net_state.spare_deficit st ~link:(Option.get (Graph.find_link g ~src:3 ~dst:4)));
  let o = FE.evaluate_edge st ~edge:(edge g 0 1) in
  Alcotest.(check int) "both affected" 2 o.FE.affected;
  Alcotest.(check int) "both survive thanks to the second backup" 2 o.FE.activated;
  check_inv st;
  (* Counterfactual: without the second backup, one of them dies. *)
  Alcotest.(check int) "one backup kept" 1
    (List.length (Net_state.replace_backups_drop st ~id:2 ~backups:[ path g [ 0; 3; 4 ] ]));
  let o2 = FE.evaluate_edge st ~edge:(edge g 0 1) in
  Alcotest.(check int) "only one survives without it" 1 o2.FE.activated

let test_promote_keeps_surviving_backup () =
  let _, st = ring_state () in
  let g = Net_state.graph st in
  let primary = path g [ 0; 1; 2; 3; 4 ] in
  let b1 = path g [ 0; 7; 6; 5; 4 ] in
  let b2 = path g [ 0; 4 ] in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary ~backups:[ b1; b2 ]);
  Net_state.promote_backup st ~id:1 ~index:0 ();
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check (list int)) "b1 became primary" (Path.nodes g b1)
    (Path.nodes g conn.Net_state.primary);
  Alcotest.(check int) "b2 still protects" 1 (List.length conn.Net_state.backups);
  Alcotest.(check (list int)) "and it is b2" (Path.nodes g b2)
    (Path.nodes g (List.hd conn.Net_state.backups));
  check_inv st

let test_promote_second_backup_directly () =
  let _, st = ring_state () in
  let g = Net_state.graph st in
  let primary = path g [ 0; 1; 2; 3; 4 ] in
  let b1 = path g [ 0; 7; 6; 5; 4 ] in
  let b2 = path g [ 0; 4 ] in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary ~backups:[ b1; b2 ]);
  Alcotest.(check bool) "index 1 feasible" true
    (Net_state.activation_feasible st ~id:1 ~index:1 ());
  Net_state.promote_backup st ~id:1 ~index:1 ();
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check (list int)) "b2 became primary" (Path.nodes g b2)
    (Path.nodes g conn.Net_state.primary);
  Alcotest.(check (list int)) "b1 kept as backup" (Path.nodes g b1)
    (Path.nodes g (List.hd conn.Net_state.backups));
  check_inv st

let test_replace_backups_multi () =
  let _, st = ring_state () in
  let g = Net_state.graph st in
  let primary = path g [ 0; 1; 2; 3; 4 ] in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary ~backups:[ path g [ 0; 4 ] ]);
  Alcotest.(check int) "both kept" 2
    (List.length
       (Net_state.replace_backups_drop st ~id:1
          ~backups:[ path g [ 0; 7; 6; 5; 4 ]; path g [ 0; 4 ] ]));
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check int) "two backups now" 2 (List.length conn.Net_state.backups);
  check_inv st

let test_route_fn_backup_count () =
  let _, st = ring_state () in
  let fn = Routing.link_state_route_fn ~backup_count:2 Routing.Dlsr ~with_backup:true in
  match fn st ~src:0 ~dst:4 ~bw:1 with
  | Ok { Routing.backups; _ } -> Alcotest.(check int) "two backups" 2 (List.length backups)
  | Error _ -> Alcotest.fail "acceptance expected"

let test_drtp_recovery_with_two_backups () =
  let _, st = ring_state () in
  let g = Net_state.graph st in
  let primary = path g [ 0; 1; 2; 3; 4 ] in
  let b1 = path g [ 0; 7; 6; 5; 4 ] in
  let b2 = path g [ 0; 4 ] in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary ~backups:[ b1; b2 ]);
  let report =
    Drtp.Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~backup_count:2
      ~edge:(edge g 1 2) ()
  in
  (match report.Drtp.Recovery.outcomes with
  | [ (1, Drtp.Recovery.Switched { reprotected; _ }) ] ->
      Alcotest.(check bool) "still protected" true reprotected
  | _ -> Alcotest.fail "expected switch");
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check bool) "kept at least one backup" true
    (List.length conn.Net_state.backups >= 1);
  check_inv st

let test_dual_backup_ft_dominates_single () =
  (* Random workload on a well-connected graph: two backups can only help
     the snapshot fault-tolerance. *)
  let rng = Dr_rng.Splitmix64.create 11 in
  let graph = Dr_topo.Gen.waxman ~rng ~n:30 ~avg_degree:4.0 () in
  let run backup_count =
    let manager =
      Drtp.Manager.create ~graph ~capacity:30 ~spare_policy:Net_state.Multiplexed
        ~route:(Routing.link_state_route_fn ~backup_count Routing.Dlsr ~with_backup:true)
    in
    let spec =
      {
        Dr_sim.Workload.arrival_rate = 0.4;
        horizon = 800.0;
        lifetime_lo = 400.0;
        lifetime_hi = 900.0;
        bw = Dr_sim.Workload.constant_bw 1;
        pattern = Dr_sim.Workload.Uniform;
      }
    in
    let scenario = Dr_sim.Workload.generate (Dr_rng.Splitmix64.create 12) ~node_count:30 spec in
    let items = Dr_sim.Scenario.items scenario in
    Array.iter
      (fun item ->
        if item.Dr_sim.Scenario.time <= 800.0 then Drtp.Manager.apply manager item)
      items;
    let state = Drtp.Manager.state manager in
    (match Net_state.check_invariants state with
    | Ok () -> ()
    | Error m -> Alcotest.failf "invariants: %s" m);
    FE.fault_tolerance (FE.evaluate state)
  in
  let ft1 = run 1 and ft2 = run 2 in
  Alcotest.(check bool)
    (Printf.sprintf "ft with 2 backups (%.4f) >= ft with 1 (%.4f)" ft2 ft1)
    true
    (ft2 >= ft1 -. 0.005)

let suite =
  [
    ( "drtp.multi_backup",
      [
        Alcotest.test_case "find two disjoint backups" `Quick test_find_two_disjoint_backups;
        Alcotest.test_case "count capped by topology" `Quick test_count_capped_by_topology;
        Alcotest.test_case "admit registers both" `Quick test_admit_registers_both;
        Alcotest.test_case "failure eval falls through" `Quick test_failure_eval_uses_second_backup;
        Alcotest.test_case "second backup rescues contention" `Quick test_second_backup_rescues_contention;
        Alcotest.test_case "promotion keeps survivor" `Quick test_promote_keeps_surviving_backup;
        Alcotest.test_case "promote second backup" `Quick test_promote_second_backup_directly;
        Alcotest.test_case "replace with two" `Quick test_replace_backups_multi;
        Alcotest.test_case "route_fn backup_count" `Quick test_route_fn_backup_count;
        Alcotest.test_case "recovery with two backups" `Quick test_drtp_recovery_with_two_backups;
        Alcotest.test_case "dual-backup FT dominates" `Slow test_dual_backup_ft_dominates_single;
      ] );
  ]
