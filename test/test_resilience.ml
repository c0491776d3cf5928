(* Tests for the dr_resilience subsystem: the SRLG model and its
   generators, correlated-failure schedules, the generalised spare rule,
   k-resilient backup chains and the group-failure recovery path.

   The load-bearing properties are the identity gates: under the
   singleton model every SRLG-generalised computation must equal the
   paper's per-edge behaviour exactly (spare sizing, chain routing,
   fault-tolerance evaluation), and spare requirements must be monotone
   under SRLG coarsening — the generalised §5 multiplexing rule. *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Srlg = Dr_resilience.Srlg
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module Recovery = Drtp.Recovery
module Failure_eval = Drtp.Failure_eval
module Rng = Dr_rng.Splitmix64

let property ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

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

(* Admit a batch of randomly routed DR connections (bw 1, two backups)
   into [state]; returns the admissions so they can be replayed into a
   second state for comparison tests. *)
let warm ?(m = 25) ~seed state =
  let g = Net_state.graph state in
  let n = Graph.node_count g in
  let rng = Rng.create seed in
  let route = Routing.link_state_route_fn ~backup_count:2 Routing.Plsr ~with_backup:true in
  let admitted = ref [] in
  for id = 0 to m - 1 do
    let src, dst = random_pair rng n in
    match route state ~src ~dst ~bw:1 with
    | Error _ -> ()
    | Ok { Routing.primary; backups } ->
        ignore (Net_state.admit state ~id ~bw:1 ~primary ~backups);
        admitted := (id, primary, backups) :: !admitted
  done;
  List.rev !admitted

(* --- SRLG model construction and accessors ------------------------------ *)

let test_create_dedup_and_singletons () =
  let s = Srlg.create ~edge_count:5 ~groups:[ ("duct", [ 2; 0; 2 ]) ] in
  Alcotest.(check int) "explicit + 3 implicit" 4 (Srlg.group_count s);
  Alcotest.(check (list int)) "deduped, sorted members" [ 0; 2 ] (Srlg.edges_of_group s 0);
  Alcotest.(check string) "explicit name" "duct" (Srlg.group_name s 0);
  Alcotest.(check string) "implicit singleton name" "edge-1" (Srlg.group_name s 1);
  Alcotest.(check (list int)) "edge 2 in the duct only" [ 0 ] (Srlg.groups_of_edge s 2);
  Alcotest.(check (list int)) "edge 3's singleton" [ 2 ] (Srlg.groups_of_edge s 3);
  Alcotest.(check bool) "not singleton" false (Srlg.is_singleton s)

let test_create_validation () =
  (try
     ignore (Srlg.create ~edge_count:3 ~groups:[ ("empty", []) ]);
     Alcotest.fail "empty group accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Srlg.create ~edge_count:3 ~groups:[ ("oob", [ 3 ]) ]);
     Alcotest.fail "out-of-range edge accepted"
   with Invalid_argument _ -> ())

let test_singletons_identity () =
  let s = Srlg.singletons ~edge_count:7 in
  Alcotest.(check bool) "is_singleton" true (Srlg.is_singleton s);
  Alcotest.(check int) "one group per edge" 7 (Srlg.group_count s);
  Alcotest.(check (float 1e-9)) "mean size 1" 1.0 (Srlg.mean_group_size s);
  (* groups_of_edges must return a sorted edge LSET verbatim: the property
     that keeps singleton states bit-identical to per-edge bookkeeping. *)
  Alcotest.(check (list int)) "groups_of_edges = identity" [ 0; 2; 5 ]
    (Srlg.groups_of_edges s [ 0; 2; 5 ])

let test_random_partition () =
  let s1 = Srlg.random_partition ~seed:11 ~edge_count:20 ~mean_size:1 in
  Alcotest.(check bool) "mean_size 1 is the singleton model" true (Srlg.is_singleton s1);
  let s = Srlg.random_partition ~seed:11 ~edge_count:20 ~mean_size:4 in
  Alcotest.(check bool) "mean_size 4 is coarser" true (Srlg.group_count s < 20);
  (* A partition: every edge in exactly one group. *)
  for e = 0 to 19 do
    Alcotest.(check int)
      (Printf.sprintf "edge %d covered once" e)
      1
      (List.length (Srlg.groups_of_edge s e))
  done;
  let s' = Srlg.random_partition ~seed:11 ~edge_count:20 ~mean_size:4 in
  Alcotest.(check int) "deterministic in seed" (Srlg.group_count s) (Srlg.group_count s')

let test_random_overlay () =
  let s = Srlg.random_overlay ~seed:3 ~edge_count:12 ~extra:3 ~size:4 in
  Alcotest.(check int) "singletons plus extras" (12 + 3) (Srlg.group_count s);
  Alcotest.(check bool) "overlapping model" false (Srlg.is_singleton s);
  (* Overlay groups hold [size] distinct edges. *)
  for gid = 12 to 14 do
    let members = Srlg.edges_of_group s gid in
    Alcotest.(check int) "overlay size" 4 (List.length members);
    Alcotest.(check (list int)) "distinct members" members (List.sort_uniq compare members)
  done

let test_regional_grid () =
  let g = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  let coords =
    Array.init 9 (fun v -> (float_of_int (v mod 3) /. 2.0, float_of_int (v / 3) /. 2.0))
  in
  let g = Graph.with_coords g coords in
  let s = Srlg.regional_grid ~graph:g ~cells:2 in
  Alcotest.(check bool) "at most cells^2 groups" true (Srlg.group_count s <= 4);
  for e = 0 to Graph.edge_count g - 1 do
    Alcotest.(check int) "every edge in exactly one tile" 1
      (List.length (Srlg.groups_of_edge s e))
  done;
  let bare = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  (try
     ignore (Srlg.regional_grid ~graph:bare ~cells:2);
     Alcotest.fail "accepted a graph without coordinates"
   with Invalid_argument _ -> ())

let test_merge_groups () =
  let s = Srlg.create ~edge_count:6 ~groups:[ ("a", [ 0; 1 ]); ("b", [ 2; 3 ]) ] in
  let before = Srlg.group_count s in
  let merged = Srlg.merge_groups s 0 1 in
  Alcotest.(check int) "one fewer group" (before - 1) (Srlg.group_count merged);
  Alcotest.(check (list int)) "b's edges joined a" [ 0; 1; 2; 3 ]
    (Srlg.edges_of_group merged 0);
  (try
     ignore (Srlg.merge_groups s 1 1);
     Alcotest.fail "merged a group with itself"
   with Invalid_argument _ -> ());
  (try
     ignore (Srlg.merge_groups s 0 99);
     Alcotest.fail "merged an out-of-range group"
   with Invalid_argument _ -> ())

(* --- correlated-failure schedules --------------------------------------- *)

let mesh_srlg () =
  let g = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  (g, Srlg.random_partition ~seed:5 ~edge_count:(Graph.edge_count g) ~mean_size:3)

let test_group_schedule_deterministic () =
  let _, s = mesh_srlg () in
  let sched seed = Srlg.group_schedule ~seed s ~mtbf:40.0 ~mttr:15.0 ~horizon:2000.0 () in
  Alcotest.(check bool) "non-empty" true (sched 9 <> []);
  Alcotest.(check bool) "same seed, same schedule" true (sched 9 = sched 9);
  Alcotest.(check bool) "different seed, different schedule" true (sched 9 <> sched 10)

let test_group_schedule_well_formed () =
  let _, s = mesh_srlg () in
  let bursts = Srlg.group_schedule ~seed:9 s ~mtbf:40.0 ~mttr:15.0 ~horizon:2000.0 () in
  let last = ref neg_infinity in
  (* An edge is "down" until this time; bursts must never re-fail it. *)
  let down_until = Hashtbl.create 16 in
  List.iter
    (fun (b : Srlg.burst) ->
      Alcotest.(check bool) "sorted by fail_at" true (b.fail_at >= !last);
      last := b.fail_at;
      Alcotest.(check bool) "repairs after failing" true (b.repair_at > b.fail_at);
      (match b.group with
      | None -> Alcotest.fail "group schedule produced a regional burst"
      | Some g ->
          Alcotest.(check (list int)) "burst fails the whole group"
            (Srlg.edges_of_group s g) b.edges);
      List.iter
        (fun e ->
          let d = Option.value ~default:neg_infinity (Hashtbl.find_opt down_until e) in
          Alcotest.(check bool) "no overlap on an edge" true (d <= b.fail_at);
          Hashtbl.replace down_until e b.repair_at)
        b.edges)
    bursts

let test_merge_schedules_drop_rule () =
  let b ~fail_at ~edges ~repair_at =
    { Srlg.fail_at; group = Some 0; edges; repair_at }
  in
  let a = [ b ~fail_at:1.0 ~edges:[ 0; 1 ] ~repair_at:5.0 ] in
  let c =
    [
      b ~fail_at:2.0 ~edges:[ 1 ] ~repair_at:3.0 (* edge 1 still down: dropped *);
      b ~fail_at:6.0 ~edges:[ 1 ] ~repair_at:7.0 (* edge 1 repaired: kept *);
    ]
  in
  let merged = Srlg.merge_schedules ~edge_count:3 a c in
  Alcotest.(check int) "overlapping burst dropped" 2 (List.length merged);
  Alcotest.(check (list (float 1e-9))) "kept bursts in order" [ 1.0; 6.0 ]
    (List.map (fun (x : Srlg.burst) -> x.fail_at) merged)

(* --- generalised spare rule --------------------------------------------- *)

(* Oracle for the generalised §5 rule: spare on directed link l is the
   worst single-group activation burst, max_g Σ bw over (connection, backup)
   pairs whose backup crosses l and whose primary crosses an edge of group
   g.  Under the singleton model that is the worst single-edge burst. *)
let spare_oracle state =
  let g = Net_state.graph state and srlg = Net_state.srlg state in
  let links = Graph.link_count g and groups = Srlg.group_count srlg in
  let w = Array.make_matrix links groups 0 in
  Net_state.iter_conns state (fun c ->
      let pedges = Path.edge_set c.Net_state.primary in
      let hit =
        List.filter
          (fun grp ->
            List.exists
              (fun e -> Path.Link_set.mem e pedges)
              (Srlg.edges_of_group srlg grp))
          (List.init groups Fun.id)
      in
      List.iter
        (fun b ->
          List.iter
            (fun l -> List.iter (fun grp -> w.(l).(grp) <- w.(l).(grp) + c.Net_state.bw) hit)
            (Path.links b))
        c.Net_state.backups);
  Array.init links (fun l -> Array.fold_left max 0 w.(l))

(* [spare_required] equals the oracle on every link, and the deep audit
   (which compares each weight and the cached maximum) passes. *)
let spare_matches_oracle state =
  let oracle = spare_oracle state in
  let ok = ref (Net_state.check_invariants state = Ok ()) in
  Array.iteri
    (fun l want -> if Net_state.spare_required state ~link:l <> want then ok := false)
    oracle;
  !ok

let prop_singleton_spare_equals_worst_edge =
  property ~count:40 "singleton SRLG spare = worst single-edge burst" seed_gen
    (fun seed ->
      let g = random_graph seed in
      let state = Net_state.create ~graph:g ~capacity:6 ~spare_policy:Net_state.Multiplexed in
      ignore (warm ~seed:(seed + 1) state);
      spare_matches_oracle state)

(* A random walk of admissions (bw 1..4, two backups) and releases of live
   connections, ids from [first]; returns the ids still live. *)
let churn ~rng ~first ~steps state live =
  let n = Graph.node_count (Net_state.graph state) in
  let route = Routing.link_state_route_fn ~backup_count:2 Routing.Plsr ~with_backup:true in
  let live = ref live in
  for id = first to first + steps - 1 do
    match !live with
    | _ :: _ when Rng.int rng 3 = 0 ->
        let victim = List.nth !live (Rng.int rng (List.length !live)) in
        Net_state.release state ~id:victim;
        live := List.filter (( <> ) victim) !live
    | _ -> (
        let src, dst = random_pair rng n in
        let bw = 1 + Rng.int rng 4 in
        match route state ~src ~dst ~bw with
        | Ok { Routing.primary; backups }
          when Net_state.admissible state ~bw ~primary ~backups ->
            ignore (Net_state.admit state ~id ~bw ~primary ~backups);
            live := id :: !live
        | _ -> ())
  done;
  !live

(* Under churn — releases lower weights, so the cached maximum must be
   rescanned — the requirement equals the oracle under both the singleton
   and a random-partition model: after the walk, inside and after a
   speculation that admits and releases, and on a fresh state restored
   from a dump. *)
let prop_spare_equals_worst_group_under_churn =
  property ~count:30 "SRLG spare = worst single-group burst under churn" seed_gen
    (fun seed ->
      let g = random_graph seed in
      let edge_count = Graph.edge_count g in
      List.for_all
        (fun srlg ->
          let mk () =
            Net_state.create_srlg ~srlg ~graph:g ~capacity:12
              ~spare_policy:Net_state.Multiplexed
          in
          let state = mk () in
          let rng = Rng.create (seed + 3) in
          let live = churn ~rng ~first:0 ~steps:80 state [] in
          let walked = spare_matches_oracle state in
          let inside =
            Net_state.speculate state (fun () ->
                ignore (churn ~rng ~first:1000 ~steps:30 state live);
                spare_matches_oracle state)
          in
          let after = spare_matches_oracle state in
          let fresh = mk () in
          Net_state.Serial.restore fresh (Net_state.Serial.dump state);
          walked && inside && after && spare_matches_oracle fresh)
        [
          Srlg.singletons ~edge_count;
          Srlg.random_partition ~seed:(seed + 7) ~edge_count ~mean_size:3;
        ])

let prop_spare_monotone_under_coarsening =
  property ~count:40 "spare_required monotone under merge_groups" seed_gen
    (fun seed ->
      let g = random_graph seed in
      let edge_count = Graph.edge_count g in
      let fine = Srlg.random_partition ~seed:(seed + 7) ~edge_count ~mean_size:3 in
      if Srlg.group_count fine < 2 then true
      else begin
        let coarse = Srlg.merge_groups fine 0 1 in
        (* Generous capacity: coarser models reserve more spare, which eats
           free bandwidth — at tight capacity the replayed admissions could
           legitimately fail in the coarse state. The property under test is
           the spare bookkeeping, not admission pressure. *)
        let mk srlg =
          Net_state.create_srlg ~srlg ~graph:g ~capacity:100
            ~spare_policy:Net_state.Multiplexed
        in
        let st_fine = mk fine and st_coarse = mk coarse in
        (* Identical admissions into both states: hosting feasibility does
           not depend on the SRLG model, only the spare sizing does. *)
        List.iter
          (fun (id, primary, backups) ->
            ignore (Net_state.admit st_coarse ~id ~bw:1 ~primary ~backups))
          (warm ~seed:(seed + 1) st_fine);
        let ok = ref true in
        for l = 0 to Graph.link_count g - 1 do
          if
            Net_state.spare_required st_coarse ~link:l
            < Net_state.spare_required st_fine ~link:l
          then ok := false
        done;
        !ok
      end)

(* --- k-resilient chains -------------------------------------------------- *)

let links_of_pair { Routing.primary; backups } =
  (Path.links primary, List.map Path.links backups)

let prop_chain_equals_link_state_under_singletons =
  property ~count:40 "singleton chain = link-state backups, path for path" seed_gen
    (fun seed ->
      let g = random_graph seed in
      let state = Net_state.create ~graph:g ~capacity:6 ~spare_policy:Net_state.Multiplexed in
      ignore (warm ~seed:(seed + 1) state);
      let rng = Rng.create (seed + 2) in
      let n = Graph.node_count g in
      let ok = ref true in
      List.iter
        (fun scheme ->
          for _ = 1 to 5 do
            let src, dst = random_pair rng n in
            List.iter
              (fun k ->
                let chain = Routing.chain_route_fn ~k scheme state ~src ~dst ~bw:1 in
                let flat =
                  Routing.link_state_route_fn ~backup_count:k scheme ~with_backup:true
                    state ~src ~dst ~bw:1
                in
                let same =
                  match (chain, flat) with
                  | Ok a, Ok b -> links_of_pair a = links_of_pair b
                  | Error a, Error b -> a = b
                  | _ -> false
                in
                if not same then ok := false)
              [ 1; 2 ]
          done)
        [ Routing.Plsr; Routing.Dlsr; Routing.Spf ];
      !ok)

let test_chain_ranks_and_disjointness () =
  let g = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  let state = Net_state.create ~graph:g ~capacity:20 ~spare_policy:Net_state.Multiplexed in
  match Routing.find_primary state ~src:0 ~dst:8 ~bw:1 with
  | None -> Alcotest.fail "no primary in a 3x3 mesh"
  | Some primary ->
      let chain = Routing.find_backup_chain Routing.Plsr state ~primary ~bw:1 ~k:3 in
      Alcotest.(check bool) "found members" true (chain <> []);
      List.iteri
        (fun i m ->
          Alcotest.(check int) "ranks are the failover order" i m.Routing.cm_rank)
        chain;
      let seen = List.map (fun m -> Path.links m.Routing.cm_path) chain in
      Alcotest.(check int) "members distinct" (List.length seen)
        (List.length (List.sort_uniq compare seen))

let test_chain_soft_fallback_shares_risk () =
  (* Ring of 6: the only backup for a 0->3 primary is the other arc.  A
     group tying one edge of each arc together makes SRLG-disjointness
     impossible; the chain must still return the member, flagged as
     sharing risk, rather than coming back empty. *)
  let g = Dr_topo.Gen.ring 6 in
  let srlg = Srlg.create ~edge_count:6 ~groups:[ ("duct", [ 0; 5 ]) ] in
  let state =
    Net_state.create_srlg ~srlg ~graph:g ~capacity:10 ~spare_policy:Net_state.Multiplexed
  in
  match Routing.find_primary state ~src:0 ~dst:3 ~bw:1 with
  | None -> Alcotest.fail "no primary in a ring"
  | Some primary -> (
      match Routing.find_backup_chain Routing.Plsr state ~primary ~bw:1 ~k:1 with
      | [ m ] ->
          Alcotest.(check bool) "soft fallback member shares risk" false
            m.Routing.cm_disjoint
      | other -> Alcotest.failf "expected one member, got %d" (List.length other))

(* --- group failures: recovery and evaluation ----------------------------- *)

let test_group_failover_recovers () =
  let g = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  let srlg = Srlg.random_partition ~seed:5 ~edge_count:(Graph.edge_count g) ~mean_size:3 in
  let state =
    Net_state.create_srlg ~srlg ~graph:g ~capacity:20 ~spare_policy:Net_state.Multiplexed
  in
  let route = Routing.chain_route_fn ~k:2 Routing.Plsr in
  (match route state ~src:0 ~dst:8 ~bw:1 with
  | Error _ -> Alcotest.fail "chain routing failed on an idle mesh"
  | Ok { Routing.primary; backups } ->
      ignore (Net_state.admit state ~id:0 ~bw:1 ~primary ~backups));
  let victim_group =
    match Net_state.find state 0 with
    | None -> Alcotest.fail "connection vanished"
    | Some c ->
        List.hd
          (Srlg.groups_of_edges srlg (Path.Link_set.elements (Path.edge_set c.primary)))
  in
  let report =
    Recovery.fail_group_drtp state ~scheme:Routing.Plsr ~backup_count:2
      ~group:victim_group ()
  in
  Alcotest.(check (list int)) "the whole group failed"
    (Srlg.edges_of_group srlg victim_group) report.Recovery.failed_edges;
  Alcotest.(check (float 1e-9)) "victim switched to a surviving member" 1.0
    (Recovery.recovered_fraction report)

let test_partitioning_group_is_lost_not_raise () =
  (* Two triangles joined by bridge edge 3 = (2,3): failing the group that
     owns the bridge partitions the topology, so the 0->4 victim's whole
     chain dies with its primary.  That must surface as a Lost outcome,
     never an exception. *)
  let g =
    Graph.create ~node_count:6
      ~edges:[ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 5); (5, 3) ]
  in
  let srlg = Srlg.create ~edge_count:7 ~groups:[ ("bridge", [ 3 ]) ] in
  let state =
    Net_state.create_srlg ~srlg ~graph:g ~capacity:10 ~spare_policy:Net_state.Multiplexed
  in
  (match Routing.chain_route_fn ~k:2 Routing.Plsr state ~src:0 ~dst:4 ~bw:1 with
  | Error _ -> Alcotest.fail "no route across the barbell"
  | Ok { Routing.primary; backups } ->
      ignore (Net_state.admit state ~id:0 ~bw:1 ~primary ~backups));
  let report = Recovery.fail_group_drtp state ~scheme:Routing.Plsr ~group:0 () in
  (match report.Recovery.outcomes with
  | [ (0, Recovery.Lost _) ] -> ()
  | other -> Alcotest.failf "expected conn 0 Lost, got %d outcomes" (List.length other));
  Alcotest.(check (float 1e-9)) "nothing recovered" 0.0
    (Recovery.recovered_fraction report)

let prop_evaluate_srlg_equals_evaluate_under_singletons =
  property ~count:30 "singleton evaluate_srlg = evaluate" seed_gen (fun seed ->
      let g = random_graph seed in
      let state = Net_state.create ~graph:g ~capacity:6 ~spare_policy:Net_state.Multiplexed in
      ignore (warm ~seed:(seed + 1) state);
      let a = Failure_eval.evaluate state in
      let b = Failure_eval.evaluate_srlg state in
      a.Failure_eval.attempts = b.Failure_eval.attempts
      && a.Failure_eval.successes = b.Failure_eval.successes)

let suite =
  [
    ( "resilience.srlg",
      [
        Alcotest.test_case "create dedups and fills singletons" `Quick
          test_create_dedup_and_singletons;
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "singleton model identity" `Quick test_singletons_identity;
        Alcotest.test_case "random partition" `Quick test_random_partition;
        Alcotest.test_case "random overlay" `Quick test_random_overlay;
        Alcotest.test_case "regional grid" `Quick test_regional_grid;
        Alcotest.test_case "merge_groups" `Quick test_merge_groups;
        Alcotest.test_case "group schedule deterministic" `Quick
          test_group_schedule_deterministic;
        Alcotest.test_case "group schedule well-formed" `Quick
          test_group_schedule_well_formed;
        Alcotest.test_case "merge_schedules drop rule" `Quick
          test_merge_schedules_drop_rule;
      ] );
    ( "resilience.chains",
      [
        Alcotest.test_case "chain ranks and distinctness" `Quick
          test_chain_ranks_and_disjointness;
        Alcotest.test_case "soft fallback shares risk" `Quick
          test_chain_soft_fallback_shares_risk;
        Alcotest.test_case "group failover recovers" `Quick test_group_failover_recovers;
        Alcotest.test_case "partitioning group -> Lost, no raise" `Quick
          test_partitioning_group_is_lost_not_raise;
        prop_singleton_spare_equals_worst_edge;
        prop_spare_equals_worst_group_under_churn;
        prop_spare_monotone_under_coarsening;
        prop_chain_equals_link_state_under_singletons;
        prop_evaluate_srlg_equals_evaluate_under_singletons;
      ] );
  ]
