module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module Resources = Drtp.Resources

let mesh_state ?(capacity = 10) () =
  let graph = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  (graph, Net_state.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed)

let path g nodes = Path.of_nodes g nodes
let link g a b = Option.get (Graph.find_link g ~src:a ~dst:b)

let test_primary_min_hop () =
  let _, st = mesh_state () in
  match Routing.find_primary st ~src:0 ~dst:8 ~bw:1 with
  | None -> Alcotest.fail "path expected"
  | Some p -> Alcotest.(check int) "min hops" 4 (Path.hops p)

let test_primary_respects_free_bw () =
  let g, st = mesh_state ~capacity:2 () in
  (* Saturate the direct corridor 0-1. *)
  ignore (Net_state.admit st ~id:1 ~bw:2 ~primary:(path g [ 0; 1 ]) ~backups:[]);
  match Routing.find_primary st ~src:0 ~dst:1 ~bw:1 with
  | None -> Alcotest.fail "detour expected"
  | Some p ->
      Alcotest.(check bool) "avoids full link" false
        (Path.contains_link p (link g 0 1));
      Alcotest.(check int) "detour length" 3 (Path.hops p)

let test_primary_none_when_saturated () =
  let g, st = mesh_state ~capacity:1 () in
  (* Cut node 0 off by filling both its edges. *)
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1 ]) ~backups:[]);
  ignore (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 3 ]) ~backups:[]);
  Alcotest.(check bool) "no primary" true
    (Routing.find_primary st ~src:0 ~dst:8 ~bw:1 = None)

let test_backup_edge_disjoint_when_possible () =
  let _, st = mesh_state () in
  let g = Net_state.graph st in
  let primary = path g [ 0; 1; 2 ] in
  List.iter
    (fun scheme ->
      match Routing.find_backup scheme st ~primary ~bw:1 with
      | None -> Alcotest.fail "backup expected"
      | Some b ->
          Alcotest.(check int)
            (Routing.scheme_name scheme ^ " disjoint")
            0 (Path.edge_overlap b primary))
    [ Routing.Plsr; Routing.Dlsr; Routing.Spf ]

let test_backup_overlap_only_when_forced () =
  (* Pendant node: ring 0-1-2-3 plus node 4 hanging off 2.  Any connection
     from 4 must use edge (2,4) twice. *)
  let graph =
    Graph.create ~node_count:5 ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0); (2, 4) ]
  in
  let st = Net_state.create ~graph ~capacity:10 ~spare_policy:Net_state.Multiplexed in
  let primary = Path.of_nodes graph [ 4; 2; 1; 0 ] in
  match Routing.find_backup Routing.Dlsr st ~primary ~bw:1 with
  | None -> Alcotest.fail "backup expected despite forced overlap"
  | Some b ->
      Alcotest.(check int) "only the pendant edge shared" 1 (Path.edge_overlap b primary);
      (* After the pendant edge, it must take the other side of the ring. *)
      Alcotest.(check (list int)) "goes around" [ 4; 2; 3; 0 ] (Path.nodes graph b)

let test_plsr_avoids_loaded_links () =
  let g, st = mesh_state () in
  (* Register a backup through the bottom corridor; P-LSR should route the
     next backup elsewhere. *)
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2; 5; 8 ])
       ~backups:[ path g [ 0; 3; 6; 7; 8 ] ]);
  let primary = path g [ 3; 4; 5 ] in
  (match Routing.find_backup Routing.Plsr st ~primary ~bw:1 with
  | None -> Alcotest.fail "backup expected"
  | Some b ->
      (* P-LSR sees nonzero ||APLV|| on 0->3/3->6/6->7/7->8 and prefers the
         top corridor. *)
      Alcotest.(check bool) "avoids 6->7" false (Path.contains_link b (link g 6 7)));
  ()

let test_dlsr_distinguishes_conflicts () =
  let g, st = mesh_state () in
  (* Existing connection: primary on top corridor, backup through bottom. *)
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2; 5; 8 ])
       ~backups:[ path g [ 0; 3; 6; 7; 8 ] ]);
  (* New primary is disjoint from conn 1's primary, so sharing backup links
     with B1 creates NO conflict: D-LSR may take the short bottom route.  The
     link costs must reflect that. *)
  let primary = path g [ 3; 4; 5 ] in
  let cost = Routing.backup_cost_row Routing.Dlsr st ~primary ~bw:1 in
  Alcotest.(check (float 1e-6)) "no conflict on 6->7" Routing.epsilon cost.(link g 6 7);
  (* Whereas a primary overlapping conn 1's primary does conflict there. *)
  let overlapping = path g [ 0; 1; 2 ] in
  let cost2 = Routing.backup_cost_row Routing.Dlsr st ~primary:overlapping ~bw:1 in
  Alcotest.(check (float 1e-6)) "two shared failure domains on 6->7"
    (2.0 +. Routing.epsilon)
    cost2.(link g 6 7)

let test_plsr_cost_is_norm () =
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2; 5; 8 ])
       ~backups:[ path g [ 0; 3; 6; 7; 8 ] ]);
  let primary = path g [ 3; 4; 5 ] in
  let cost = Routing.backup_cost_row Routing.Plsr st ~primary ~bw:1 in
  (* P1 has 4 edges, all feeding APLV of 6->7: P-LSR cannot tell the
     conflicts are harmless. *)
  Alcotest.(check (float 1e-6)) "norm cost" (4.0 +. Routing.epsilon) cost.(link g 6 7)

let test_q_penalty_on_primary_edges () =
  let g, st = mesh_state () in
  let primary = path g [ 0; 1; 2 ] in
  let cost = Routing.backup_cost_row Routing.Dlsr st ~primary ~bw:1 in
  Alcotest.(check bool) "Q on the primary's own edge" true
    (cost.(link g 0 1) >= Routing.q_constant);
  Alcotest.(check bool) "Q on the reverse direction too" true
    (cost.(link g 1 0) >= Routing.q_constant)

let test_bandwidth_infeasible_excluded () =
  let g, st = mesh_state ~capacity:1 () in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 3; 4 ]) ~backups:[]);
  let primary = path g [ 0; 1; 2 ] in
  let cost = Routing.backup_cost_row Routing.Dlsr st ~primary ~bw:1 in
  Alcotest.(check (float 1e-6)) "full link infinite" infinity cost.(link g 3 4)

let test_route_fn_rejects () =
  let g, st = mesh_state ~capacity:1 () in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1 ]) ~backups:[]);
  ignore (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 3 ]) ~backups:[]);
  let fn = Routing.link_state_route_fn Routing.Dlsr ~with_backup:true in
  (match fn st ~src:0 ~dst:8 ~bw:1 with
  | Error Routing.No_primary -> ()
  | Error Routing.No_backup -> Alcotest.fail "expected No_primary"
  | Ok _ -> Alcotest.fail "expected rejection");
  (* A 0->1 connection in a saturated neighbourhood has a primary (the
     remaining path) but no backup bandwidth. *)
  ()

let test_route_fn_no_backup_mode () =
  let _, st = mesh_state () in
  let fn = Routing.link_state_route_fn Routing.Plsr ~with_backup:false in
  match fn st ~src:0 ~dst:8 ~bw:1 with
  | Ok { Routing.backups = []; _ } -> ()
  | Ok _ -> Alcotest.fail "no backup expected"
  | Error _ -> Alcotest.fail "acceptance expected"

let test_failed_edge_avoided () =
  let g, st = mesh_state () in
  Net_state.fail_edge st ~edge:(Graph.edge_of_link (link g 0 1));
  (match Routing.find_primary st ~src:0 ~dst:2 ~bw:1 with
  | None -> Alcotest.fail "detour expected"
  | Some p ->
      Alcotest.(check bool) "failed edge avoided" false
        (Path.contains_link p (link g 0 1)))

let test_scheme_names () =
  Alcotest.(check string) "dlsr" "D-LSR" (Routing.scheme_name Routing.Dlsr);
  Alcotest.(check bool) "parse p-lsr" true
    (Routing.scheme_of_string "p-lsr" = Ok Routing.Plsr);
  Alcotest.(check bool) "parse unknown" true
    (match Routing.scheme_of_string "bogus" with Error _ -> true | Ok _ -> false)

let suite =
  [
    ( "drtp.routing",
      [
        Alcotest.test_case "primary is min-hop" `Quick test_primary_min_hop;
        Alcotest.test_case "primary respects free bandwidth" `Quick test_primary_respects_free_bw;
        Alcotest.test_case "primary rejection" `Quick test_primary_none_when_saturated;
        Alcotest.test_case "backups edge-disjoint when possible" `Quick test_backup_edge_disjoint_when_possible;
        Alcotest.test_case "forced overlap is minimal" `Quick test_backup_overlap_only_when_forced;
        Alcotest.test_case "P-LSR avoids loaded links" `Quick test_plsr_avoids_loaded_links;
        Alcotest.test_case "D-LSR sees real conflicts only" `Quick test_dlsr_distinguishes_conflicts;
        Alcotest.test_case "P-LSR cost = ||APLV||" `Quick test_plsr_cost_is_norm;
        Alcotest.test_case "Q on primary edges" `Quick test_q_penalty_on_primary_edges;
        Alcotest.test_case "bandwidth-infeasible excluded" `Quick test_bandwidth_infeasible_excluded;
        Alcotest.test_case "route_fn rejection" `Quick test_route_fn_rejects;
        Alcotest.test_case "route_fn no-backup mode" `Quick test_route_fn_no_backup_mode;
        Alcotest.test_case "failed edges avoided" `Quick test_failed_edge_avoided;
        Alcotest.test_case "scheme names" `Quick test_scheme_names;
      ] );
  ]
