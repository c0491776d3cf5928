(* Backup multiplexing on the paper's 3x3 mesh (in the spirit of
   Figures 1-3): three DR-connections whose backups share links, one pair
   safely (disjoint primaries) and one pair in conflict (overlapping
   primaries), and how D-LSR's Conflict Vector steers the third backup.

   Node layout:        0 - 1 - 2
                       |   |   |
                       3 - 4 - 5
                       |   |   |
                       6 - 7 - 8

   Run with: dune exec examples/mesh_multiplexing.exe *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
open Drtp

let print_link_state state graph label link =
  Format.printf "%s (link %d, %d->%d): APLV %a, spare required %d unit(s)@."
    label link (Graph.link_src graph link) (Graph.link_dst graph link) (Aplv.pp ~link)
    (Net_state.aplv state)
    (Net_state.spare_required state ~link)

let () =
  let graph = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  let state = Net_state.create ~graph ~capacity:10 ~spare_policy:Net_state.Multiplexed in
  let path nodes = Path.of_nodes graph nodes in
  let link a b =
    match Graph.find_link graph ~src:a ~dst:b with
    | Some l -> l
    | None -> assert false
  in

  (* D1: 0 -> 8, primary along the top and right, backup along the left and
     bottom. *)
  let _d1 =
    Net_state.admit state ~id:1 ~bw:1 ~primary:(path [ 0; 1; 2; 5; 8 ])
      ~backups:[ path [ 0; 3; 6; 7; 8 ] ]
  in
  (* D2: 3 -> 5, primary across the middle, backup along the bottom.  B1 and
     B2 share links 3->6, 6->7, 7->8, but P1 and P2 are edge-disjoint, so one
     spare unit on those links protects both (safe multiplexing, the L8 case
     of Fig. 1). *)
  let _d2 =
    Net_state.admit state ~id:2 ~bw:1 ~primary:(path [ 3; 4; 5 ])
      ~backups:[ path [ 3; 6; 7; 8; 5 ] ]
  in
  Format.printf "--- after D1 and D2 (disjoint primaries, shared backup links) ---@.";
  print_link_state state graph "shared backup link" (link 6 7);
  Format.printf
    "=> two backups, spare requirement still 1: multiplexing is free here.@.@.";

  (* D3: 0 -> 5.  Its primary overlaps P1 on edges (0,1), (1,2) and (2,5).
     Any backup must leave node 0 via 0->3 (0->1 is on its own primary),
     which B1 already uses — an unavoidable conflict, and exactly what the
     Conflict Vector records. *)
  let p3 = path [ 0; 1; 2; 5 ] in
  let p3_edges = Path.Link_set.elements (Path.edge_set p3) in
  let l03 = link 0 3 in
  Format.printf "--- choosing a backup for D3 (primary %a) ---@." Path.pp p3;
  Format.printf "conflict vector of link 0->3: %a@." Conflict_vector.pp
    (Net_state.conflict_vector state l03);
  Format.printf
    "D-LSR conflict count on 0->3 against D3's primary: %d (B1's primary P1 \
     shares failure domains with P3)@."
    (Aplv.conflict_count_with (Net_state.aplv state) ~link:l03 ~edge_lset:p3_edges);

  (match Routing.find_backup Routing.Dlsr state ~primary:p3 ~bw:1 with
  | None -> Format.printf "no backup found (unexpected)@."
  | Some b3 ->
      Format.printf "D-LSR picks backup %a@." Path.pp b3;
      let _d3 = Net_state.admit state ~id:3 ~bw:1 ~primary:p3 ~backups:[ b3 ] in
      print_link_state state graph "contended backup link" l03;
      Format.printf
        "=> the conflicting pair forces 2 spare units on 0->3 (the L7 case of \
         Fig. 1); D-LSR diverges from B1 right after it.@.@.");

  (* The failure analysis quantifies the result: every single-edge failure is
     survivable. *)
  let r = Failure_eval.evaluate state in
  Format.printf
    "single-edge failure analysis: %d/%d backup activations succeed \
     (P_act-bk = %.2f)@."
    r.Failure_eval.successes r.Failure_eval.attempts
    (Failure_eval.fault_tolerance r);
  match Net_state.check_invariants state with
  | Ok () -> Format.printf "state invariants hold@."
  | Error msg -> Format.printf "INVARIANT VIOLATION: %s@." msg
