(* Property-based tests (qcheck) on the core data structures and the
   simulation invariants. *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module SP = Dr_topo.Shortest_path
module Net_state = Drtp.Net_state
module Aplv = Drtp.Aplv
module Resources = Drtp.Resources
module Pqueue = Dr_pqueue.Pqueue
module Rng = Dr_rng.Splitmix64

let property ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* --- generators --------------------------------------------------------- *)

let seed_gen = QCheck.int_range 0 1_000_000

let random_graph seed =
  let rng = Rng.create seed in
  let n = 6 + Rng.int rng 15 in
  let avg_degree = 2.2 +. Rng.float rng 1.5 in
  Dr_topo.Gen.erdos_renyi ~rng ~n ~avg_degree

let random_pair rng n =
  let a = Rng.int rng n in
  let b = Rng.int rng (n - 1) in
  (a, if b >= a then b + 1 else b)

(* --- pqueue ------------------------------------------------------------- *)

let prop_pqueue_sorts =
  property "pqueue drains in sorted order"
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun keys ->
      let q = Pqueue.create () in
      List.iteri (fun i k -> Pqueue.add q ~key:k i) keys;
      let drained = List.map fst (Pqueue.to_sorted_list q) in
      drained = List.sort compare keys)

(* --- shortest paths ----------------------------------------------------- *)

let prop_dijkstra_equals_bellman_ford =
  property ~count:50 "dijkstra = bellman-ford on random weighted graphs" seed_gen
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 1) in
      let costs =
        Array.init (Graph.link_count g) (fun _ -> 0.1 +. Rng.float rng 5.0)
      in
      let cost l = costs.(l) in
      let src = Rng.int rng (Graph.node_count g) in
      let d = SP.dijkstra g ~cost ~src in
      match SP.bellman_ford g ~cost ~src with
      | Error _ -> false
      | Ok (dist, _) ->
          Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) d.SP.dist dist)

let prop_dijkstra_unit_equals_bfs =
  property ~count:50 "dijkstra with unit costs = bfs" seed_gen (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 2) in
      let src = Rng.int rng (Graph.node_count g) in
      let d = SP.dijkstra g ~cost:(fun _ -> 1.0) ~src in
      let b = SP.bfs_hops g ~src in
      Array.for_all2
        (fun df bh ->
          if bh = SP.unreachable then df = infinity else df = float_of_int bh)
        d.SP.dist b)

let prop_extracted_path_cost_matches =
  property ~count:50 "extracted path recomputes to its distance" seed_gen
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 3) in
      let costs = Array.init (Graph.link_count g) (fun _ -> 0.1 +. Rng.float rng 3.0) in
      let cost l = costs.(l) in
      let src, dst = random_pair rng (Graph.node_count g) in
      match SP.dijkstra_path g ~cost:costs ~src ~dst with
      | None -> true
      | Some (c, p) ->
          let recomputed =
            List.fold_left (fun acc l -> acc +. cost l) 0.0 (Path.links p)
          in
          Float.abs (c -. recomputed) < 1e-9
          && Path.src p = src && Path.dst p = dst)

(* Link costs drawn from {0, 1, 2, infinity}: many exact ties and
   zero-cost links, so which of several equal-cost paths comes back is
   decided by the frontier's tie-break.  The single-pair search (indexed
   heap) must settle nodes exactly as the single-source one (lazy
   {!Pqueue}) does, so it returns the same cost and the same links to
   every destination. *)
let prop_dijkstra_path_tie_order =
  property ~count:200 "dijkstra_path = extract_path (dijkstra) under cost ties"
    seed_gen (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 6) in
      let choices = [| 0.0; 1.0; 2.0; infinity |] in
      let costs =
        Array.init (Graph.link_count g) (fun _ -> choices.(Rng.int rng 4))
      in
      let src = Rng.int rng (Graph.node_count g) in
      let full = SP.dijkstra g ~cost:(fun l -> costs.(l)) ~src in
      List.for_all
        (fun dst ->
          match
            (SP.dijkstra_path g ~cost:costs ~src ~dst, SP.extract_path g full ~dst)
          with
          | None, None -> true
          | Some (c, p), Some p' ->
              Int64.equal (Int64.bits_of_float c)
                (Int64.bits_of_float full.SP.dist.(dst))
              && Path.links p = Path.links p'
          | _ -> false)
        (List.init (Graph.node_count g) Fun.id))

let prop_yen_first_is_optimal =
  property ~count:30 "yen's first path equals dijkstra's" seed_gen (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 4) in
      let src, dst = random_pair rng (Graph.node_count g) in
      let cost _ = 1.0 in
      match
        ( Dr_topo.Yen.k_shortest g ~cost ~src ~dst ~k:3,
          SP.dijkstra_path g ~cost:(Array.make (Graph.link_count g) 1.0) ~src ~dst )
      with
      | [], None -> true
      | (c1, _) :: _, Some (c2, _) -> Float.abs (c1 -. c2) < 1e-9
      | _, _ -> false)

(* --- flows vs connectivity ---------------------------------------------- *)

let prop_flow_bounded_by_degree =
  property ~count:50 "disjoint path count <= min endpoint degree" seed_gen
    (fun seed ->
      let g = random_graph seed in
      let rng = Rng.create (seed + 5) in
      let src, dst = random_pair rng (Graph.node_count g) in
      let n, _ = Dr_topo.Flow.max_disjoint_paths g ~src ~dst () in
      n <= min (Graph.degree g src) (Graph.degree g dst) && n >= 1)

let prop_bridgeless_implies_two_paths =
  property ~count:30 "2-edge-connected graphs give 2 edge-disjoint paths"
    seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Dr_topo.Gen.waxman ~rng ~n:20 ~avg_degree:3.0 () in
      let src, dst = random_pair rng 20 in
      Dr_topo.Flow.edge_disjoint_paths g ~src ~dst >= 2)

(* --- aplv ---------------------------------------------------------------- *)

let lset_gen = QCheck.(list_of_size (Gen.int_range 1 6) (int_range 0 10))

let dedup l = List.sort_uniq compare l

let prop_aplv_register_unregister_cancels =
  property "aplv: register then unregister is identity"
    QCheck.(pair lset_gen lset_gen)
    (fun (l1, l2) ->
      let l1 = dedup l1 and l2 = dedup l2 in
      QCheck.assume (l1 <> [] && l2 <> []);
      let a = Aplv.create ~links:1 ~edges:11 and link = 0 in
      Aplv.register a ~link ~edge_lset:l1;
      let norm_before = Aplv.norm1 a ~link and support_before = Aplv.support a ~link in
      Aplv.register a ~link ~edge_lset:l2;
      Aplv.unregister a ~link ~edge_lset:l2;
      Aplv.norm1 a ~link = norm_before && Aplv.support a ~link = support_before)

let prop_aplv_norm_is_sum =
  property "aplv: norm1 = sum over support"
    QCheck.(list_of_size (Gen.int_range 0 8) lset_gen)
    (fun lsets ->
      let lsets = List.filter (fun l -> l <> []) (List.map dedup lsets) in
      let a = Aplv.create ~links:1 ~edges:11 and link = 0 in
      List.iter (fun l -> Aplv.register a ~link ~edge_lset:l) lsets;
      let sum =
        List.fold_left (fun acc j -> acc + Aplv.get a ~link j) 0 (Aplv.support a ~link)
      in
      Aplv.norm1 a ~link = sum
      && Aplv.max_element a ~link
         = List.fold_left
             (fun acc j -> max acc (Aplv.get a ~link j))
             0 (Aplv.support a ~link)
      && Aplv.backup_count a ~link = List.length lsets)

(* The column scan D-LSR's search prices every link with, against the
   per-link count, after a random walk of registrations and releases over
   several links, and again after [clear]. *)
let prop_aplv_conflict_counts =
  property "aplv: conflict_counts = conflict_count_with on every link" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let links = 1 + Rng.int rng 8 and edges = 1 + Rng.int rng 12 in
      let a = Aplv.create ~links ~edges in
      let random_lset () =
        dedup (List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng edges))
      in
      let registered = ref [] in
      for _ = 1 to 60 do
        match !registered with
        | (link, lset) :: rest when Rng.int rng 3 = 0 ->
            Aplv.unregister a ~link ~edge_lset:lset;
            registered := rest
        | _ ->
            let link = Rng.int rng links and lset = random_lset () in
            Aplv.register a ~link ~edge_lset:lset;
            registered := (link, lset) :: !registered
      done;
      let into = Array.make links (-1) in
      let agrees () =
        List.for_all
          (fun _ ->
            let query = Array.init (Rng.int rng 6) (fun _ -> Rng.int rng edges) in
            let n = Rng.int rng (Array.length query + 1) in
            let lset = Array.to_list (Array.sub query 0 n) in
            Aplv.conflict_counts a ~edges:query ~n ~into;
            List.for_all
              (fun link -> into.(link) = Aplv.conflict_count_with a ~link ~edge_lset:lset)
              (List.init links Fun.id))
          (List.init 8 Fun.id)
      in
      let walked = agrees () in
      Aplv.clear a;
      walked && agrees ()
      && List.for_all
           (fun link -> Aplv.norm1 a ~link = 0 && Aplv.backup_count a ~link = 0)
           (List.init links Fun.id))

(* --- scenario round-trip -------------------------------------------------- *)

let prop_scenario_roundtrip =
  property ~count:50 "scenario text round-trip" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let spec =
        {
          Dr_sim.Workload.arrival_rate = 0.05 +. Rng.float rng 0.2;
          horizon = 500.0;
          lifetime_lo = 10.0;
          lifetime_hi = 50.0;
          bw = Dr_sim.Workload.constant_bw (1 + Rng.int rng 3);
          pattern = Dr_sim.Workload.Uniform;
        }
      in
      let s = Dr_sim.Workload.generate rng ~node_count:12 spec in
      match Dr_sim.Scenario.of_string (Dr_sim.Scenario.to_string s) with
      | Error _ -> false
      | Ok s2 -> Dr_sim.Scenario.to_string s = Dr_sim.Scenario.to_string s2)

(* --- generators keep their promises -------------------------------------- *)

let prop_waxman_shape =
  property ~count:20 "waxman: connected, exact size, bridge-free" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let n = 20 + Rng.int rng 30 in
      let avg_degree = 3.0 +. Rng.float rng 1.0 in
      let g = Dr_topo.Gen.waxman ~rng ~n ~avg_degree () in
      Graph.node_count g = n
      && Graph.edge_count g
         = int_of_float (Float.round (float_of_int n *. avg_degree /. 2.0))
      && Dr_topo.Connectivity.is_two_edge_connected g)

(* --- summary ------------------------------------------------------------- *)

let prop_summary_matches_direct =
  property "summary mean/variance match direct computation"
    QCheck.(list_of_size (Gen.int_range 2 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let s = Dr_stats.Summary.create () in
      List.iter (Dr_stats.Summary.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0)
      in
      Float.abs (Dr_stats.Summary.mean s -. mean) < 1e-6
      && Float.abs (Dr_stats.Summary.variance s -. var) < 1e-6)

(* --- end-to-end state invariants ------------------------------------------ *)

(* Replay a random workload through the manager, checking the deep state
   invariants as we go and that a fully drained network returns to zero. *)
let prop_manager_invariants scheme_name route =
  property ~count:15 ("manager preserves invariants (" ^ scheme_name ^ ")")
    seed_gen (fun seed ->
      let rng = Rng.create seed in
      let graph = Dr_topo.Gen.waxman ~rng ~n:20 ~avg_degree:3.2 () in
      let manager =
        Drtp.Manager.create ~graph ~capacity:6
          ~spare_policy:Net_state.Multiplexed ~route:(route graph)
      in
      let spec =
        {
          Dr_sim.Workload.arrival_rate = 0.5;
          horizon = 400.0;
          lifetime_lo = 50.0;
          lifetime_hi = 150.0;
          bw = Dr_sim.Workload.constant_bw 1;
          pattern = Dr_sim.Workload.Uniform;
        }
      in
      let scenario = Dr_sim.Workload.generate rng ~node_count:20 spec in
      let ok = ref true in
      let steps = ref 0 in
      Dr_sim.Scenario.iter scenario (fun item ->
          Drtp.Manager.apply manager item;
          incr steps;
          if !steps mod 50 = 0 then
            match Net_state.check_invariants (Drtp.Manager.state manager) with
            | Ok () -> ()
            | Error _ -> ok := false);
      let state = Drtp.Manager.state manager in
      !ok
      && Net_state.check_invariants state = Ok ()
      && Net_state.active_count state = 0
      && Resources.total_prime (Net_state.resources state) = 0
      && Resources.total_spare (Net_state.resources state) = 0)

let prop_manager_invariants_dlsr =
  prop_manager_invariants "D-LSR" (fun _ ->
      Drtp.Routing.link_state_route_fn Drtp.Routing.Dlsr ~with_backup:true)

let prop_manager_invariants_bf =
  prop_manager_invariants "BF" (fun graph ->
      Dr_flood.Bounded_flood.route_fn
        ~hop_matrix:(SP.hop_matrix graph) ())

let prop_no_deficit_means_full_fault_tolerance =
  property ~count:15 "zero deficit + disjoint backups => P_act-bk = 1" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let graph = Dr_topo.Gen.waxman ~rng ~n:20 ~avg_degree:3.5 () in
      (* Generous capacity: spare reservations always succeed. *)
      let manager =
        Drtp.Manager.create ~graph ~capacity:200
          ~spare_policy:Net_state.Multiplexed
          ~route:(Drtp.Routing.link_state_route_fn Drtp.Routing.Dlsr ~with_backup:true)
      in
      let spec =
        {
          Dr_sim.Workload.arrival_rate = 0.3;
          horizon = 300.0;
          lifetime_lo = 200.0;
          lifetime_hi = 400.0;
          bw = Dr_sim.Workload.constant_bw 1;
          pattern = Dr_sim.Workload.Uniform;
        }
      in
      let scenario = Dr_sim.Workload.generate rng ~node_count:20 spec in
      (* Stop before releases so the network is loaded. *)
      let items = Dr_sim.Scenario.items scenario in
      Array.iter
        (fun item ->
          if item.Dr_sim.Scenario.time <= 300.0 then Drtp.Manager.apply manager item)
        items;
      let state = Drtp.Manager.state manager in
      let all_disjoint = ref true in
      Net_state.iter_conns state (fun c ->
          match c.Net_state.backups with
          | b :: _ ->
              if Path.edge_overlap b c.Net_state.primary > 0 then all_disjoint := false
          | [] -> all_disjoint := false);
      if Net_state.total_spare_deficit state = 0 && !all_disjoint then
        Drtp.Failure_eval.fault_tolerance (Drtp.Failure_eval.evaluate state) = 1.0
      else true)

let prop_flood_candidates_valid =
  property ~count:30 "flood candidates are loop-free, bounded and feasible"
    seed_gen (fun seed ->
      let rng = Rng.create seed in
      let graph = Dr_topo.Gen.waxman ~rng ~n:20 ~avg_degree:3.2 () in
      let state = Net_state.create ~graph ~capacity:5 ~spare_policy:Net_state.Multiplexed in
      let hop_matrix = SP.hop_matrix graph in
      let src, dst = random_pair rng 20 in
      let config = Dr_flood.Bounded_flood.default_config in
      let r = Dr_flood.Bounded_flood.discover config state ~hop_matrix ~src ~dst ~bw:1 in
      let limit = hop_matrix.(src).(dst) + config.Dr_flood.Bounded_flood.beta0 in
      List.for_all
        (fun c ->
          let p = c.Dr_flood.Bounded_flood.path in
          Path.is_simple graph p
          && Path.hops p <= limit
          && Path.src p = src && Path.dst p = dst)
        r.Dr_flood.Bounded_flood.candidates)

(* --- the SRLG oracle ---------------------------------------------------- *)

(* On Waxman graphs under random partition and overlay SRLG models, with
   random admissions, releases and edge failures in between: every entry
   of the cost row the backup search runs on equals the total of the
   reference's SRLG-aware verdict bit for bit, with no earlier backup and
   with one, and the fast path's verdicts are the reference's
   decompositions. *)
let prop_cost_row_matches_srlg_oracle =
  property ~count:25 "cost row and verdicts = SRLG-aware oracle" seed_gen
    (fun seed ->
      let module R = Drtp.Routing in
      let module Ref = Drtp.Routing_reference in
      let module Srlg = Dr_resilience.Srlg in
      let rng = Rng.create seed in
      let n = 20 in
      let graph = Dr_topo.Gen.waxman ~rng ~n ~avg_degree:3.2 () in
      let edge_count = Graph.edge_count graph in
      let srlg =
        if Rng.int rng 2 = 0 then
          Srlg.random_partition ~seed ~edge_count ~mean_size:(2 + Rng.int rng 3)
        else
          Srlg.random_overlay ~seed ~edge_count ~extra:(1 + Rng.int rng 6)
            ~size:(2 + Rng.int rng 3)
      in
      let state =
        Net_state.create_srlg ~srlg ~graph ~capacity:6
          ~spare_policy:Net_state.Multiplexed
      in
      let bits = Int64.bits_of_float in
      let same_verdict a b =
        match (a, b) with
        | R.Dead, R.Dead -> true
        | R.No_bandwidth { required = x }, R.No_bandwidth { required = y } -> x = y
        | R.Cost p, R.Cost p' ->
            bits p.R.q = bits p'.R.q
            && bits p.R.conflict = bits p'.R.conflict
            && bits p.R.eps = bits p'.R.eps
        | _ -> false
      in
      let check scheme ~primary ~earlier_backups ~bw =
        let row = R.backup_cost_row ~earlier_backups scheme state ~primary ~bw
        and fast = R.backup_verdicts ~earlier_backups scheme state ~primary ~bw
        and oracle = Ref.backup_link_verdict ~earlier_backups scheme state ~primary ~bw in
        Graph.iter_links graph (fun l ->
            let v = oracle l in
            let total =
              match v with R.Cost p -> R.parts_total p | R.Dead | R.No_bandwidth _ -> infinity
            in
            if bits row.(l) <> bits total || not (same_verdict fast.(l) v) then
              QCheck.Test.fail_reportf "%s link %d (%d earlier): row %h, oracle total %h"
                (R.scheme_name scheme) l (List.length earlier_backups) row.(l) total)
      in
      let active = ref [] in
      for step = 1 to 40 do
        let src, dst = random_pair rng n in
        let bw = 1 + Rng.int rng 2 in
        let scheme = List.nth [ R.Plsr; R.Dlsr; R.Spf ] (Rng.int rng 3) in
        (match R.find_primary state ~src ~dst ~bw with
        | None -> ()
        | Some primary -> (
            check scheme ~primary ~earlier_backups:[] ~bw;
            match R.find_backups scheme state ~primary ~bw ~count:2 with
            | [] -> ()
            | first :: _ as backups ->
                check scheme ~primary ~earlier_backups:[ first ] ~bw;
                ignore (Net_state.admit state ~id:step ~bw ~primary ~backups : Net_state.conn);
                active := step :: !active));
        (match !active with
        | id :: rest when Rng.int rng 4 = 0 ->
            Net_state.release state ~id;
            active := rest
        | _ -> ());
        if step mod 10 = 0 then begin
          let e = Rng.int rng edge_count in
          if Net_state.edge_failed state ~edge:e then Net_state.restore_edge state ~edge:e
          else Net_state.fail_edge state ~edge:e
        end
      done;
      true)

let suite =
  [
    ( "properties",
      [
        prop_pqueue_sorts;
        prop_dijkstra_equals_bellman_ford;
        prop_dijkstra_unit_equals_bfs;
        prop_extracted_path_cost_matches;
        prop_dijkstra_path_tie_order;
        prop_yen_first_is_optimal;
        prop_flow_bounded_by_degree;
        prop_bridgeless_implies_two_paths;
        prop_aplv_register_unregister_cancels;
        prop_aplv_norm_is_sum;
        prop_aplv_conflict_counts;
        prop_scenario_roundtrip;
        prop_waxman_shape;
        prop_summary_matches_direct;
        prop_manager_invariants_dlsr;
        prop_manager_invariants_bf;
        prop_no_deficit_means_full_fault_tolerance;
        prop_flood_candidates_valid;
        prop_cost_row_matches_srlg_oracle;
      ] );
  ]
