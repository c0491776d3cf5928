module Graph = Dr_topo.Graph
module Path = Dr_topo.Path

(* 0 - 1 - 2
   |   |   |
   3 - 4 - 5 *)
let grid () = Dr_topo.Gen.mesh ~rows:2 ~cols:3

let test_of_nodes () =
  let g = grid () in
  let p = Path.of_nodes g [ 0; 1; 2; 5 ] in
  Alcotest.(check int) "src" 0 (Path.src p);
  Alcotest.(check int) "dst" 5 (Path.dst p);
  Alcotest.(check int) "hops" 3 (Path.hops p);
  Alcotest.(check (list int)) "nodes round-trip" [ 0; 1; 2; 5 ] (Path.nodes g p)

let test_of_links_roundtrip () =
  let g = grid () in
  let p = Path.of_nodes g [ 3; 4; 1 ] in
  let p2 = Path.of_links g (Path.links p) in
  Alcotest.(check (list int)) "same links" (Path.links p) (Path.links p2);
  Alcotest.(check int) "same src" (Path.src p) (Path.src p2);
  Alcotest.(check int) "same dst" (Path.dst p) (Path.dst p2)

let test_invalid_paths () =
  let g = grid () in
  let invalid name f =
    Alcotest.(check bool) name true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  invalid "empty links" (fun () -> Path.of_links g []);
  invalid "single node" (fun () -> Path.of_nodes g [ 2 ]);
  invalid "non-adjacent nodes" (fun () -> Path.of_nodes g [ 0; 5 ]);
  invalid "non-contiguous links" (fun () ->
      let a = Path.of_nodes g [ 0; 1 ] and b = Path.of_nodes g [ 4; 5 ] in
      Path.of_links g (Path.links a @ Path.links b))

let test_lset_and_contains () =
  let g = grid () in
  let p = Path.of_nodes g [ 0; 1; 4 ] in
  let ls = Path.lset p in
  Alcotest.(check int) "lset size" 2 (Path.Link_set.cardinal ls);
  List.iter
    (fun l -> Alcotest.(check bool) "contains own link" true (Path.contains_link p l))
    (Path.links p);
  Alcotest.(check bool) "does not contain other" false (Path.contains_link p 11)

let test_edge_set_crosses () =
  let g = grid () in
  let p = Path.of_nodes g [ 0; 1; 4 ] in
  let edges = Path.edge_set p in
  Alcotest.(check int) "two edges" 2 (Path.Link_set.cardinal edges);
  Path.Link_set.iter
    (fun e -> Alcotest.(check bool) "crosses own edge" true (Path.crosses_edge p e))
    edges;
  (* The reverse path crosses the same edges. *)
  let rev = Path.of_nodes g [ 4; 1; 0 ] in
  Alcotest.(check bool) "reverse crosses same edges" true
    (Path.Link_set.equal edges (Path.edge_set rev));
  (* Any edge of a set: the same answer as crossing one of them. *)
  let all = List.init (Graph.edge_count g) Fun.id in
  List.iter
    (fun set ->
      Alcotest.(check bool) "crosses any = exists crosses"
        (List.exists (Path.crosses_edge p) set)
        (Path.crosses_any_edge p set))
    ([] :: all :: List.map (fun e -> [ e ]) all
    @ List.map (fun e -> [ e; (e + 1) mod Graph.edge_count g ]) all)

let test_overlap () =
  let g = grid () in
  let a = Path.of_nodes g [ 0; 1; 2 ] in
  let b = Path.of_nodes g [ 3; 4; 1; 2 ] in
  Alcotest.(check int) "link overlap" 1 (Path.link_overlap a b);
  Alcotest.(check int) "edge overlap" 1 (Path.edge_overlap a b);
  (* Opposite directions share edges but not links. *)
  let rev = Path.of_nodes g [ 2; 1; 0 ] in
  Alcotest.(check int) "no shared directed links" 0 (Path.link_overlap a rev);
  Alcotest.(check int) "shared edges" 2 (Path.edge_overlap a rev)

let test_is_simple () =
  let g = grid () in
  Alcotest.(check bool) "simple" true (Path.is_simple g (Path.of_nodes g [ 0; 1; 4 ]));
  let loopy = Path.of_nodes g [ 0; 1; 4; 3; 0; 3 ] in
  Alcotest.(check bool) "revisits node" false (Path.is_simple g loopy)

let suite =
  [
    ( "topology.path",
      [
        Alcotest.test_case "of_nodes" `Quick test_of_nodes;
        Alcotest.test_case "of_links round-trip" `Quick test_of_links_roundtrip;
        Alcotest.test_case "invalid paths rejected" `Quick test_invalid_paths;
        Alcotest.test_case "lset and membership" `Quick test_lset_and_contains;
        Alcotest.test_case "edge set and crossing" `Quick test_edge_set_crosses;
        Alcotest.test_case "overlap measures" `Quick test_overlap;
        Alcotest.test_case "simplicity check" `Quick test_is_simple;
      ] );
  ]
