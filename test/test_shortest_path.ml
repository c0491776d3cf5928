module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module SP = Dr_topo.Shortest_path

let grid () = Dr_topo.Gen.mesh ~rows:3 ~cols:3

let test_bfs_hops () =
  let g = grid () in
  let d = SP.bfs_hops g ~src:0 in
  Alcotest.(check int) "self" 0 d.(0);
  Alcotest.(check int) "adjacent" 1 d.(1);
  Alcotest.(check int) "centre" 2 d.(4);
  Alcotest.(check int) "far corner" 4 d.(8)

let test_bfs_rev_symmetric () =
  let g = grid () in
  let fwd = SP.bfs_hops g ~src:2 in
  let rev = SP.bfs_hops_rev g ~dst:2 in
  Alcotest.(check (array int)) "symmetric graph: fwd = rev" fwd rev

let test_bfs_unreachable () =
  let g = Graph.create ~node_count:3 ~edges:[ (0, 1) ] in
  let d = SP.bfs_hops g ~src:0 in
  Alcotest.(check int) "unreachable sentinel" SP.unreachable d.(2)

let test_hop_matrix () =
  let g = grid () in
  let m = SP.hop_matrix g in
  for i = 0 to 8 do
    Alcotest.(check int) "diagonal" 0 m.(i).(i);
    for j = 0 to 8 do
      Alcotest.(check int) "symmetric" m.(i).(j) m.(j).(i)
    done
  done

let test_min_hop_path () =
  let g = grid () in
  match SP.min_hop_path g ~src:0 ~dst:8 () with
  | None -> Alcotest.fail "path expected"
  | Some p ->
      Alcotest.(check int) "4 hops" 4 (Path.hops p);
      Alcotest.(check int) "src" 0 (Path.src p);
      Alcotest.(check int) "dst" 8 (Path.dst p)

let test_min_hop_usable_filter () =
  let g = grid () in
  (* Forbid both directions of edge (0,1); the path must leave via node 3. *)
  let banned = Graph.find_link g ~src:0 ~dst:1 in
  let banned = Option.get banned in
  let usable l = l <> banned && l <> Graph.twin banned in
  match SP.min_hop_path g ~usable ~src:0 ~dst:2 () with
  | None -> Alcotest.fail "alternative path expected"
  | Some p ->
      Alcotest.(check bool) "avoids banned link" false (Path.contains_link p banned);
      Alcotest.(check int) "detour costs 4 hops" 4 (Path.hops p)

let test_min_hop_none () =
  let g = Graph.create ~node_count:3 ~edges:[ (0, 1) ] in
  Alcotest.(check bool) "unreachable" true (SP.min_hop_path g ~src:0 ~dst:2 () = None)

let test_dijkstra_uniform_matches_bfs () =
  let g = grid () in
  let r = SP.dijkstra g ~cost:(fun _ -> 1.0) ~src:0 in
  let bfs = SP.bfs_hops g ~src:0 in
  for v = 0 to 8 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "node %d" v)
      (float_of_int bfs.(v))
      r.SP.dist.(v)
  done

let test_dijkstra_weighted_detour () =
  let g = grid () in
  (* Make the direct edge 0-1 expensive: 0->2 should go 0-3-4-1-2 or stay on
     cheap links. *)
  let e01 = Option.get (Graph.find_link g ~src:0 ~dst:1) in
  let cost l = if l = e01 || l = Graph.twin e01 then 10.0 else 1.0 in
  match SP.dijkstra_path g ~cost:(Array.init (Graph.link_count g) cost) ~src:0 ~dst:2 with
  | None -> Alcotest.fail "path expected"
  | Some (c, p) ->
      Alcotest.(check bool) "avoids expensive link" false (Path.contains_link p e01);
      Alcotest.(check (float 1e-9)) "detour cost" 4.0 c

let test_dijkstra_infinite_excludes () =
  let g = Graph.create ~node_count:3 ~edges:[ (0, 1); (1, 2) ] in
  let e12 = Option.get (Graph.find_link g ~src:1 ~dst:2) in
  let cost l = if l = e12 then infinity else 1.0 in
  Alcotest.(check bool) "no path through infinite link" true
    (SP.dijkstra_path g ~cost:(Array.init (Graph.link_count g) cost) ~src:0 ~dst:2
    = None)

let test_dijkstra_negative_rejected () =
  let g = grid () in
  Alcotest.(check bool) "negative cost raises" true
    (try ignore (SP.dijkstra g ~cost:(fun _ -> -1.0) ~src:0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative row entry raises" true
    (try
       ignore
         (SP.dijkstra_path g ~cost:(Array.make (Graph.link_count g) (-1.0)) ~src:0
            ~dst:2);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "short row raises" true
    (try
       ignore
         (SP.dijkstra_path g ~cost:(Array.make (Graph.link_count g - 1) 1.0) ~src:0
            ~dst:2);
       false
     with Invalid_argument _ -> true)

let test_extract_path_at_source () =
  let g = grid () in
  let r = SP.dijkstra g ~cost:(fun _ -> 1.0) ~src:0 in
  Alcotest.(check bool) "no path to self" true (SP.extract_path g r ~dst:0 = None)

let test_bellman_ford_matches_dijkstra () =
  let g = grid () in
  let cost l = 1.0 +. (0.1 *. float_of_int (l mod 3)) in
  let d = SP.dijkstra g ~cost ~src:4 in
  match SP.bellman_ford g ~cost ~src:4 with
  | Error e -> Alcotest.fail e
  | Ok (dist, _) ->
      for v = 0 to 8 do
        Alcotest.(check (float 1e-9)) (Printf.sprintf "node %d" v) d.SP.dist.(v) dist.(v)
      done

let test_bellman_ford_infinite () =
  let g = Graph.create ~node_count:3 ~edges:[ (0, 1) ] in
  match SP.bellman_ford g ~cost:(fun _ -> 1.0) ~src:0 with
  | Error e -> Alcotest.fail e
  | Ok (dist, _) ->
      Alcotest.(check (float 1e-9)) "unreachable is infinite" infinity dist.(2)

let suite =
  [
    ( "topology.shortest_path",
      [
        Alcotest.test_case "bfs hop counts" `Quick test_bfs_hops;
        Alcotest.test_case "reverse bfs symmetric" `Quick test_bfs_rev_symmetric;
        Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
        Alcotest.test_case "hop matrix" `Quick test_hop_matrix;
        Alcotest.test_case "min-hop path" `Quick test_min_hop_path;
        Alcotest.test_case "min-hop with filter" `Quick test_min_hop_usable_filter;
        Alcotest.test_case "min-hop unreachable" `Quick test_min_hop_none;
        Alcotest.test_case "dijkstra = bfs on unit costs" `Quick test_dijkstra_uniform_matches_bfs;
        Alcotest.test_case "dijkstra weighted detour" `Quick test_dijkstra_weighted_detour;
        Alcotest.test_case "dijkstra infinite cost excludes" `Quick test_dijkstra_infinite_excludes;
        Alcotest.test_case "dijkstra rejects negative" `Quick test_dijkstra_negative_rejected;
        Alcotest.test_case "extract path at source" `Quick test_extract_path_at_source;
        Alcotest.test_case "bellman-ford agrees" `Quick test_bellman_ford_matches_dijkstra;
        Alcotest.test_case "bellman-ford unreachable" `Quick test_bellman_ford_infinite;
      ] );
  ]
