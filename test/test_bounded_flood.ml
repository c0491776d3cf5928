module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module BF = Dr_flood.Bounded_flood
module Faults = Dr_faults.Faults
module J = Dr_obs.Journal

let mesh_state ?(capacity = 10) () =
  let graph = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  (graph, Net_state.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed)

let hop_matrix st = Dr_topo.Shortest_path.hop_matrix (Net_state.graph st)

let path g nodes = Path.of_nodes g nodes

let test_candidates_reach_destination () =
  let _, st = mesh_state () in
  let r = BF.discover BF.default_config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1 in
  Alcotest.(check bool) "found candidates" true (List.length r.BF.candidates > 0);
  Alcotest.(check bool) "messages counted" true (r.BF.messages > 0);
  Alcotest.(check bool) "not truncated" false r.BF.truncated;
  let g = Net_state.graph st in
  List.iter
    (fun c ->
      Alcotest.(check int) "src" 0 (Path.src c.BF.path);
      Alcotest.(check int) "dst" 8 (Path.dst c.BF.path);
      Alcotest.(check int) "hops consistent" (Path.hops c.BF.path) c.BF.hops;
      Alcotest.(check bool) "loop-free" true (Path.is_simple g c.BF.path))
    r.BF.candidates

let test_hop_limit_respected () =
  let _, st = mesh_state () in
  (* min-hop 0->8 is 4; with rho=1, beta0=2 no candidate may exceed 6. *)
  let r = BF.discover BF.default_config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1 in
  List.iter
    (fun c -> Alcotest.(check bool) "within hc_limit" true (c.BF.hops <= 6))
    r.BF.candidates

let test_tight_bound_shortest_only () =
  let _, st = mesh_state () in
  let config = { BF.default_config with beta0 = 0; beta1 = 0 } in
  let r = BF.discover config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1 in
  List.iter
    (fun c -> Alcotest.(check int) "only min-hop routes" 4 c.BF.hops)
    r.BF.candidates;
  (* The 3x3 mesh has exactly 6 monotone corner-to-corner routes. *)
  Alcotest.(check int) "all six shortest found" 6 (List.length r.BF.candidates)

let test_widening_monotone () =
  let _, st = mesh_state () in
  let count beta0 beta1 =
    let config = { BF.default_config with beta0; beta1 } in
    let r = BF.discover config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1 in
    (List.length r.BF.candidates, r.BF.messages)
  in
  let c0, m0 = count 0 0 in
  let c2, m2 = count 2 1 in
  Alcotest.(check bool) "wider flood, more candidates" true (c2 >= c0);
  Alcotest.(check bool) "wider flood, more messages" true (m2 > m0)

let test_bandwidth_test_prunes () =
  let g, st = mesh_state ~capacity:1 () in
  (* Saturate link 0->1 in the primary sense: prime = capacity. *)
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1 ]) ~backups:[]);
  let r = BF.discover BF.default_config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:2 ~bw:1 in
  let l01 = Option.get (Graph.find_link g ~src:0 ~dst:1) in
  List.iter
    (fun c ->
      Alcotest.(check bool) "full link never crossed" false
        (Path.contains_link c.BF.path l01))
    r.BF.candidates

let test_primary_flag_tracks_free_bw () =
  let g, st = mesh_state ~capacity:2 () in
  (* Spare consumes 0->1's last free unit: still backup-feasible, not
     primary-feasible. *)
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 3; 4; 5 ])
       ~backups:[ path g [ 3; 0; 1; 2; 5 ] ]);
  ignore (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 1 ]) ~backups:[]);
  let r = BF.discover BF.default_config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:2 ~bw:1 in
  let l01 = Option.get (Graph.find_link g ~src:0 ~dst:1) in
  let through, around =
    List.partition (fun c -> Path.contains_link c.BF.path l01) r.BF.candidates
  in
  Alcotest.(check bool) "some route still crosses 0->1" true (through <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "flag cleared through loaded link" false c.BF.primary_ok)
    through;
  Alcotest.(check bool) "alternatives keep the flag" true
    (List.exists (fun c -> c.BF.primary_ok) around)

let test_rho_widens_limit () =
  let _, st = mesh_state () in
  (* 0->8 min-hop 4; rho=1.5 allows 6-hop routes even with beta0=0. *)
  let config = { BF.default_config with rho = 1.5; beta0 = 0; beta1 = 2 } in
  let r = BF.discover config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1 in
  Alcotest.(check bool) "some longer-than-min routes found" true
    (List.exists (fun c -> c.BF.hops > 4) r.BF.candidates);
  List.iter
    (fun c -> Alcotest.(check bool) "within 1.5*D" true (c.BF.hops <= 6))
    r.BF.candidates

let test_alpha_loosens_detours () =
  let _, st = mesh_state () in
  let count alpha =
    let config = { BF.default_config with alpha; beta0 = 2; beta1 = 0 } in
    (BF.discover config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1).BF.messages
  in
  Alcotest.(check bool) "alpha=1.5 forwards at least as much as alpha=1" true
    (count 1.5 >= count 1.0)

let test_crt_cap_limits_candidates () =
  let _, st = mesh_state () in
  let config = { BF.default_config with crt_cap = 3 } in
  let r = BF.discover config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1 in
  Alcotest.(check int) "CRT capped" 3 (List.length r.BF.candidates)

let test_select_shortest_primary () =
  let _, st = mesh_state () in
  let r = BF.discover BF.default_config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1 in
  match BF.select st ~bw:1 r.BF.candidates with
  | Error _ -> Alcotest.fail "selection expected"
  | Ok { Routing.primary; backups } ->
      Alcotest.(check int) "primary is min-hop" 4 (Path.hops primary);
      let b = List.hd backups in
      Alcotest.(check int) "backup disjoint (overlap 0)" 0 (Path.edge_overlap b primary)

let test_select_no_candidates () =
  let _, st = mesh_state () in
  match BF.select st ~bw:1 [] with
  | Error Routing.No_primary -> ()
  | _ -> Alcotest.fail "expected No_primary"

let test_select_single_candidate_no_backup () =
  let g, st = mesh_state () in
  let cand = { BF.path = path g [ 0; 1; 2 ]; primary_ok = true; hops = 2 } in
  (match BF.select ~allow_unprotected:false st ~bw:1 [ cand ] with
  | Error Routing.No_backup -> ()
  | _ -> Alcotest.fail "expected No_backup");
  (* The default destination policy establishes it unprotected instead. *)
  match BF.select st ~bw:1 [ cand ] with
  | Ok { Routing.backups = []; _ } -> ()
  | _ -> Alcotest.fail "expected unprotected acceptance"

let test_select_without_backup_mode () =
  let g, st = mesh_state () in
  let cand = { BF.path = path g [ 0; 1; 2 ]; primary_ok = true; hops = 2 } in
  match BF.select ~with_backup:false st ~bw:1 [ cand ] with
  | Ok { Routing.backups = []; _ } -> ()
  | _ -> Alcotest.fail "expected primary-only acceptance"

let test_select_prefers_low_overlap_over_short () =
  let g, st = mesh_state () in
  let mk nodes flag = { BF.path = path g nodes; primary_ok = flag; hops = List.length nodes - 1 } in
  let primary = mk [ 0; 1; 2 ] true in
  (* Short backup overlapping the primary vs longer disjoint one. *)
  let overlapping = mk [ 0; 1; 4; 5; 2 ] false in
  let disjoint = mk [ 0; 3; 4; 5; 2 ] false in
  match BF.select st ~bw:1 [ primary; overlapping; disjoint ] with
  | Ok { Routing.backups = [ b ]; _ } ->
      Alcotest.(check (list int)) "disjoint wins" [ 0; 3; 4; 5; 2 ] (Path.nodes g b)
  | _ -> Alcotest.fail "selection expected"

let test_select_two_backups () =
  let _, st = mesh_state () in
  let r = BF.discover BF.default_config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1 in
  match BF.select ~backup_count:2 st ~bw:1 r.BF.candidates with
  | Ok { Routing.primary; backups = [ b1; b2 ] } ->
      Alcotest.(check int) "b1 disjoint from primary" 0 (Path.edge_overlap b1 primary);
      Alcotest.(check bool) "b2 is a distinct route" true
        (Path.links b1 <> Path.links b2)
  | Ok { Routing.backups; _ } ->
      Alcotest.failf "expected two backups, got %d" (List.length backups)
  | Error _ -> Alcotest.fail "selection expected"

let test_route_fn_end_to_end () =
  let _, st = mesh_state () in
  let stats = BF.fresh_stats () in
  let fn = BF.route_fn ~stats ~hop_matrix:(hop_matrix st) () in
  (match fn st ~src:0 ~dst:8 ~bw:1 with
  | Ok { Routing.primary; backups = [ b ] } ->
      Alcotest.(check int) "primary min-hop" 4 (Path.hops primary);
      Alcotest.(check bool) "backup present" true (Path.hops b >= 4)
  | Ok _ -> Alcotest.fail "backup expected"
  | Error _ -> Alcotest.fail "acceptance expected");
  Alcotest.(check int) "flood counted" 1 stats.BF.floods;
  Alcotest.(check bool) "messages counted" true (stats.BF.total_messages > 0)

let test_cdp_cap_truncates () =
  let _, st = mesh_state () in
  let config = { BF.default_config with cdp_cap = 5 } in
  let r = BF.discover config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1 in
  Alcotest.(check bool) "truncated" true r.BF.truncated;
  Alcotest.(check bool) "message cap respected" true (r.BF.messages <= 5)

let test_truncation_surfaced () =
  (* Truncation used to be a silent flag on the result; it must now reach
     both the [on_truncated] hook (the CLI's stderr warning) and the
     journal as a [flood-truncated] event. *)
  let _, st = mesh_state () in
  let config = { BF.default_config with cdp_cap = 5 } in
  let calls = ref [] in
  let old_hook = !BF.on_truncated in
  BF.on_truncated :=
    (fun ~src ~dst ~messages -> calls := (src, dst, messages) :: !calls);
  let was_on = J.enabled () in
  J.set_enabled true;
  let r, captured =
    J.capture (fun () ->
        BF.discover config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1)
  in
  let entries = J.captured_entries captured in
  J.set_enabled was_on;
  BF.on_truncated := old_hook;
  Alcotest.(check bool) "truncated" true r.BF.truncated;
  Alcotest.(check (list (triple int int int))) "hook fired once"
    [ (0, 8, r.BF.messages) ] !calls;
  let truncation_events =
    List.filter_map
      (fun (e : J.entry) ->
        match e.J.event with
        | J.Flood_truncated { src; dst; messages } -> Some (src, dst, messages)
        | _ -> None)
      entries
  in
  Alcotest.(check (list (triple int int int))) "journalled once"
    [ (0, 8, r.BF.messages) ] truncation_events

let test_untruncated_flood_no_hook () =
  let _, st = mesh_state () in
  let calls = ref 0 in
  let old_hook = !BF.on_truncated in
  BF.on_truncated := (fun ~src:_ ~dst:_ ~messages:_ -> incr calls);
  let r = BF.discover BF.default_config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:8 ~bw:1 in
  BF.on_truncated := old_hook;
  Alcotest.(check bool) "not truncated" false r.BF.truncated;
  Alcotest.(check int) "hook never fired" 0 !calls

let test_cdp_loss_thins_candidates () =
  let _, st = mesh_state () in
  let hm = hop_matrix st in
  let clean = BF.discover BF.default_config st ~hop_matrix:hm ~src:0 ~dst:8 ~bw:1 in
  (* Zero-probability plan: observationally identical to no plan. *)
  let zero = Faults.create ~seed:3 Faults.zero_spec in
  let with_zero =
    BF.discover ~faults:zero BF.default_config st ~hop_matrix:hm ~src:0 ~dst:8 ~bw:1
  in
  Alcotest.(check bool) "zero-spec flood identical" true (clean = with_zero);
  (* Certain loss: every forwarded copy still costs a message but nothing
     survives to the destination. *)
  let all_lost = Faults.create ~seed:3 { Faults.zero_spec with Faults.p_cdp = 1.0 } in
  let r =
    BF.discover ~faults:all_lost BF.default_config st ~hop_matrix:hm ~src:0 ~dst:8 ~bw:1
  in
  Alcotest.(check int) "no candidates survive" 0 (List.length r.BF.candidates);
  Alcotest.(check bool) "losses still cost messages" true (r.BF.messages > 0);
  (* Partial loss thins but need not empty the candidate set. *)
  let lossy = Faults.create ~seed:3 { Faults.zero_spec with Faults.p_cdp = 0.5 } in
  let r2 =
    BF.discover ~faults:lossy BF.default_config st ~hop_matrix:hm ~src:0 ~dst:8 ~bw:1
  in
  Alcotest.(check bool) "no more candidates than lossless" true
    (List.length r2.BF.candidates <= List.length clean.BF.candidates)

let test_unreachable_destination () =
  let graph = Graph.create ~node_count:3 ~edges:[ (0, 1) ] in
  let st = Net_state.create ~graph ~capacity:5 ~spare_policy:Net_state.Multiplexed in
  let hm = Dr_topo.Shortest_path.hop_matrix graph in
  let r = BF.discover BF.default_config st ~hop_matrix:hm ~src:0 ~dst:2 ~bw:1 in
  Alcotest.(check int) "no candidates" 0 (List.length r.BF.candidates);
  Alcotest.(check int) "no messages" 0 r.BF.messages

let test_failed_edge_not_flooded () =
  let g, st = mesh_state () in
  let e01 = Graph.edge_of_link (Option.get (Graph.find_link g ~src:0 ~dst:1)) in
  Net_state.fail_edge st ~edge:e01;
  let r = BF.discover BF.default_config st ~hop_matrix:(hop_matrix st) ~src:0 ~dst:2 ~bw:1 in
  List.iter
    (fun c ->
      Alcotest.(check bool) "failed edge avoided" false (Path.crosses_edge c.BF.path e01))
    r.BF.candidates

let suite =
  [
    ( "flooding.bounded_flood",
      [
        Alcotest.test_case "candidates reach destination" `Quick test_candidates_reach_destination;
        Alcotest.test_case "hop limit respected" `Quick test_hop_limit_respected;
        Alcotest.test_case "tight bound = shortest only" `Quick test_tight_bound_shortest_only;
        Alcotest.test_case "widening is monotone" `Quick test_widening_monotone;
        Alcotest.test_case "bandwidth test prunes" `Quick test_bandwidth_test_prunes;
        Alcotest.test_case "primary flag tracks free bw" `Quick test_primary_flag_tracks_free_bw;
        Alcotest.test_case "select shortest primary" `Quick test_select_shortest_primary;
        Alcotest.test_case "select with no candidates" `Quick test_select_no_candidates;
        Alcotest.test_case "single candidate -> no backup" `Quick test_select_single_candidate_no_backup;
        Alcotest.test_case "select without backup" `Quick test_select_without_backup_mode;
        Alcotest.test_case "overlap beats length" `Quick test_select_prefers_low_overlap_over_short;
        Alcotest.test_case "two backups from the CRT" `Quick test_select_two_backups;
        Alcotest.test_case "rho widens the hop limit" `Quick test_rho_widens_limit;
        Alcotest.test_case "alpha loosens the detour test" `Quick test_alpha_loosens_detours;
        Alcotest.test_case "crt cap" `Quick test_crt_cap_limits_candidates;
        Alcotest.test_case "route_fn end-to-end" `Quick test_route_fn_end_to_end;
        Alcotest.test_case "cdp cap truncates" `Quick test_cdp_cap_truncates;
        Alcotest.test_case "truncation surfaced" `Quick test_truncation_surfaced;
        Alcotest.test_case "no hook without truncation" `Quick test_untruncated_flood_no_hook;
        Alcotest.test_case "cdp loss thins candidates" `Quick test_cdp_loss_thins_candidates;
        Alcotest.test_case "unreachable destination" `Quick test_unreachable_destination;
        Alcotest.test_case "failed edges not flooded" `Quick test_failed_edge_not_flooded;
      ] );
  ]
