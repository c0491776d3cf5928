module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Net_state = Drtp.Net_state
module FE = Drtp.Failure_eval

let mesh_state ?(capacity = 10) () =
  let graph = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  (graph, Net_state.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed)

let path g nodes = Path.of_nodes g nodes
let edge g a b = Graph.edge_of_link (Option.get (Graph.find_link g ~src:a ~dst:b))

let test_empty_network () =
  let _, st = mesh_state () in
  let r = FE.evaluate st in
  Alcotest.(check int) "no attempts" 0 r.FE.attempts;
  Alcotest.(check int) "no edges evaluated" 0 r.FE.edges_evaluated;
  Alcotest.(check (float 1e-9)) "vacuous ft" 1.0 (FE.fault_tolerance r)

let test_protected_connection_survives () =
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  let r = FE.evaluate st in
  Alcotest.(check int) "2 primary edges at risk" 2 r.FE.attempts;
  Alcotest.(check int) "both survivable" 2 r.FE.successes;
  Alcotest.(check (float 1e-9)) "ft = 1" 1.0 (FE.fault_tolerance r)

let test_unprotected_connection_fails () =
  let g, st = mesh_state () in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ]) ~backups:[]);
  let r = FE.evaluate st in
  Alcotest.(check int) "attempts" 2 r.FE.attempts;
  Alcotest.(check int) "no successes" 0 r.FE.successes

let test_backup_crossing_failed_edge () =
  let g, st = mesh_state () in
  (* Backup overlaps the primary on edge (0,1): failure of that edge is
     unrecoverable, failure of (1,2) is fine. *)
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 1; 4; 5; 2 ] ]);
  let o_shared = FE.evaluate_edge st ~edge:(edge g 0 1) in
  Alcotest.(check int) "shared edge kills both" 0 o_shared.FE.activated;
  let o_other = FE.evaluate_edge st ~edge:(edge g 1 2) in
  Alcotest.(check int) "disjoint edge recoverable" 1 o_other.FE.activated

let test_spare_contention () =
  let g, st = mesh_state ~capacity:2 () in
  (* Fill 0->3 so only 1 spare unit fits there; two conflicting backups
     multiplex onto it. *)
  ignore (Net_state.admit st ~id:10 ~bw:1 ~primary:(path g [ 0; 3 ]) ~backups:[]);
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 1; 4 ])
       ~backups:[ path g [ 0; 3; 4 ] ]);
  (* Edge (0,1) failure hits both conns; only one can win the single spare
     unit on 0->3. *)
  let o = FE.evaluate_edge st ~edge:(edge g 0 1) in
  Alcotest.(check int) "both affected" 2 o.FE.affected;
  Alcotest.(check int) "one activates" 1 o.FE.activated

let test_greedy_order_is_conn_id () =
  let g, st = mesh_state ~capacity:2 () in
  ignore (Net_state.admit st ~id:10 ~bw:1 ~primary:(path g [ 0; 3 ]) ~backups:[]);
  (* Register higher id first: the evaluator must still grant id 1 first. *)
  ignore
    (Net_state.admit st ~id:5 ~bw:1 ~primary:(path g [ 0; 1; 4 ])
       ~backups:[ path g [ 0; 3; 4 ] ]);
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  let o = FE.evaluate_edge st ~edge:(edge g 0 1) in
  Alcotest.(check int) "one winner" 1 o.FE.activated

let test_spare_only_vs_free () =
  let g, st = mesh_state ~capacity:3 () in
  ignore (Net_state.admit st ~id:10 ~bw:1 ~primary:(path g [ 0; 3 ]) ~backups:[]);
  (* One spare unit reserved on 0->3 (deficit 1), free = 1 there. *)
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 1; 4 ])
       ~backups:[ path g [ 0; 3; 4 ] ]);
  (* capacity 3: prime 1 + spare 2 -> both fit via spare alone. *)
  let strict = FE.evaluate_edge st ~edge:(edge g 0 1) in
  Alcotest.(check int) "spare covers both" 2 strict.FE.activated;
  (* Under capacity 2 the spare pool is 1; free-bw mode cannot help since
     free is 0, but with capacity 3 both modes agree. *)
  let loose = FE.evaluate_edge ~spare_only:false st ~edge:(edge g 0 1) in
  Alcotest.(check int) "free mode agrees here" 2 loose.FE.activated

let test_aggregation () =
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 6; 7; 8 ])
       ~backups:[ path g [ 6; 3; 4; 5; 8 ] ]);
  let r = FE.evaluate st in
  Alcotest.(check int) "4 edges evaluated" 4 r.FE.edges_evaluated;
  Alcotest.(check int) "per-edge records" 4 (List.length r.FE.per_edge);
  let sum_affected =
    List.fold_left (fun acc (o : FE.edge_outcome) -> acc + o.FE.affected) 0 r.FE.per_edge
  in
  Alcotest.(check int) "per-edge sums to attempts" r.FE.attempts sum_affected

let test_does_not_mutate () =
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  let before = Drtp.Resources.total_spare (Net_state.resources st) in
  ignore (FE.evaluate st);
  ignore (FE.evaluate st);
  Alcotest.(check int) "state untouched" before
    (Drtp.Resources.total_spare (Net_state.resources st));
  Alcotest.(check bool) "invariants hold" true (Net_state.check_invariants st = Ok ())

let test_pair_loses_backup_too () =
  let g, st = mesh_state () in
  (* Primary 0-1-2, backup 0-3-4-5-2.  Failing (0,1) alone is survivable;
     failing (0,1) together with a backup edge is not. *)
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  let e_prim = edge g 0 1 and e_back = edge g 3 4 and e_other = edge g 6 7 in
  let o_both = FE.evaluate_edge_pair st ~edges:(e_prim, e_back) in
  Alcotest.(check int) "affected" 1 o_both.FE.affected;
  Alcotest.(check int) "backup died too" 0 o_both.FE.activated;
  let o_ok = FE.evaluate_edge_pair st ~edges:(e_prim, e_other) in
  Alcotest.(check int) "unrelated second failure harmless" 1 o_ok.FE.activated

let test_pair_contention_beyond_single_sizing () =
  let g, st = mesh_state ~capacity:2 () in
  (* Disjoint primaries -> multiplexing reserves ONE unit on the shared
     backup corridor (correct for single failures).  Failing both primaries
     at once overloads it. *)
  ignore (Net_state.admit st ~id:10 ~bw:1 ~primary:(path g [ 3; 6 ]) ~backups:[]);
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 6; 7; 8 ])
       ~backups:[ path g [ 6; 3; 4; 5; 8 ] ]);
  (* Both backups share links 3->4 and 4->5; primaries are disjoint, so the
     spare requirement there is 1 unit.  Starve link 3->4 so it cannot hold
     more than 1: capacity 2, prime 0... grow is capped by requirement
     anyway. *)
  let o = FE.evaluate_edge_pair st ~edges:(edge g 0 1, edge g 7 8) in
  Alcotest.(check int) "both victims" 2 o.FE.affected;
  Alcotest.(check int) "single-failure sizing admits one" 1 o.FE.activated;
  (* Each failure alone is fully survivable. *)
  Alcotest.(check int) "alone ok" 1 (FE.evaluate_edge st ~edge:(edge g 0 1)).FE.activated;
  Alcotest.(check int) "alone ok" 1 (FE.evaluate_edge st ~edge:(edge g 7 8)).FE.activated

let test_double_monte_carlo () =
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  let r = FE.evaluate_double ~samples:50 st in
  Alcotest.(check bool) "ft in [0,1]" true
    (FE.fault_tolerance r >= 0.0 && FE.fault_tolerance r <= 1.0);
  (* Deterministic under a fixed seed. *)
  let r2 = FE.evaluate_double ~samples:50 st in
  Alcotest.(check int) "deterministic" r.FE.successes r2.FE.successes;
  (* Double-failure tolerance cannot beat single-failure tolerance here. *)
  let single = FE.fault_tolerance (FE.evaluate st) in
  Alcotest.(check bool) "double <= single" true
    (FE.fault_tolerance r <= single +. 1e-9)

(* ---- differential check against the oracle ------------------------------ *)

module Rng = Dr_rng.Splitmix64
module Srlg = Dr_resilience.Srlg
module Routing = Drtp.Routing
module O = Failure_eval_oracle

(* [b] with a detour over its first link and back in front: the result
   still joins the same endpoints, but crosses that link twice. *)
let looped g b =
  match Path.links b with
  | l :: _ as links -> Path.of_links g (l :: Graph.twin l :: links)
  | [] -> b

(* A random loaded state: a Waxman graph with a random SRLG model, then
   admissions (k = 2 link-state, k = 2 chains, bounded flooding or min-hop
   SPF routes; now and then a first backup looped over a link twice),
   releases and edge failures.  Capacities are small, so backups contend
   for spare. *)
let random_state seed =
  let rng = Rng.create seed in
  let graph =
    Dr_topo.Gen.waxman ~rng ~n:(8 + Rng.int rng 10) ~avg_degree:(3.0 +. Rng.float rng 1.0) ()
  in
  let n = Graph.node_count graph and edge_count = Graph.edge_count graph in
  let srlg =
    match Rng.int rng 3 with
    | 0 -> Srlg.singletons ~edge_count
    | 1 -> Srlg.random_partition ~seed ~edge_count ~mean_size:3
    | _ -> Srlg.random_overlay ~seed ~edge_count ~extra:4 ~size:3
  in
  let st =
    Net_state.create_srlg ~srlg ~graph ~capacity:(3 + Rng.int rng 4)
      ~spare_policy:Net_state.Multiplexed
  in
  let route : Routing.route_fn =
    match Rng.int rng 4 with
    | 0 -> Routing.link_state_route_fn ~backup_count:2 Routing.Dlsr ~with_backup:true
    | 1 -> Routing.chain_route_fn ~k:2 Routing.Plsr
    | 2 ->
        Dr_flood.Bounded_flood.route_fn
          ~hop_matrix:(Dr_topo.Shortest_path.hop_matrix graph) ()
    | _ -> Routing.link_state_route_fn Routing.Spf ~with_backup:true
  in
  (* Connection ids for the index's radix sort: one byte, several bytes,
     or both signs spanning more than [max_int]. *)
  let id_of =
    match Rng.int rng 3 with
    | 0 -> Fun.id
    | 1 -> fun i -> (i * 7_919_113) - 300_000_000
    | _ -> fun i -> if i mod 2 = 0 then min_int + (i * 1_000_003) else max_int - (i * 977)
  in
  let live = ref [] in
  for i = 0 to 30 + Rng.int rng 50 do
    let id = id_of i in
    match Rng.int rng 12 with
    | 0 when !live <> [] ->
        let victim = List.nth !live (Rng.int rng (List.length !live)) in
        Net_state.release st ~id:victim;
        live := List.filter (( <> ) victim) !live
    | 1 -> Net_state.fail_edge st ~edge:(Rng.int rng edge_count)
    | _ -> (
        let src = Rng.int rng n in
        let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
        let bw = 1 + Rng.int rng 2 in
        match route st ~src ~dst ~bw with
        | Error _ -> ()
        | Ok { Routing.primary; backups } ->
            let backups =
              match backups with
              | b :: rest when Rng.int rng 4 = 0 ->
                  let loop = looped graph b :: rest in
                  if Net_state.admissible st ~bw ~primary ~backups:loop then loop
                  else backups
              | _ -> backups
            in
            ignore (Net_state.admit st ~id ~bw ~primary ~backups);
            live := id :: !live)
  done;
  st

(* Every entry point against the oracle, field by field ([per_edge] in
   order); [Error] names the first that differs. *)
let compare_with_oracle ~spare_only st =
  let g = Net_state.graph st in
  let seed = Graph.edge_count g in
  let check name a b = if a = b then Ok () else Error name in
  let ( let* ) = Result.bind in
  let all n f = List.fold_left (fun acc i -> Result.bind acc (fun () -> f i)) (Ok ()) (List.init n Fun.id) in
  let* () = check "evaluate" (FE.evaluate ~spare_only st) (O.evaluate ~spare_only st) in
  let* () = check "evaluate_nodes" (FE.evaluate_nodes ~spare_only st) (O.evaluate_nodes ~spare_only st) in
  let* () =
    check "evaluate_double"
      (FE.evaluate_double ~spare_only ~samples:60 ~seed st)
      (O.evaluate_double ~spare_only ~samples:60 ~seed st)
  in
  let* () = check "evaluate_srlg" (FE.evaluate_srlg ~spare_only st) (O.evaluate_srlg ~spare_only st) in
  let* () =
    all (Srlg.group_count (Net_state.srlg st)) (fun group ->
        check "evaluate_group" (FE.evaluate_group ~spare_only st ~group)
          (O.evaluate_group ~spare_only st ~group))
  in
  let* () =
    all (Graph.node_count g) (fun node ->
        check "evaluate_node" (FE.evaluate_node ~spare_only st ~node)
          (O.evaluate_node ~spare_only st ~node))
  in
  all (Graph.edge_count g) (fun e1 ->
      let e2 = (e1 * 7 + 1) mod Graph.edge_count g in
      let* () =
        check "evaluate_edge" (FE.evaluate_edge ~spare_only st ~edge:e1)
          (O.evaluate_edge ~spare_only st ~edge:e1)
      in
      let* () =
        check "evaluate_edges"
          (FE.evaluate_edges ~spare_only st ~edges:[ e2; e1; e2 ])
          (O.evaluate_edges ~spare_only st ~edges:[ e2; e1; e2 ])
      in
      if e1 = e2 then Ok ()
      else
        check "evaluate_edge_pair"
          (FE.evaluate_edge_pair ~spare_only st ~edges:(e1, e2))
          (O.evaluate_edge_pair ~spare_only st ~edges:(e1, e2)))

let prop_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"every entry point = oracle"
       (QCheck.int_range 0 1_000_000) (fun seed ->
         let st = random_state seed in
         (match Net_state.check_invariants st with
         | Ok () -> ()
         | Error m -> QCheck.Test.fail_reportf "invariants: %s" m);
         List.for_all
           (fun spare_only ->
             match compare_with_oracle ~spare_only st with
             | Ok () -> true
             | Error name ->
                 QCheck.Test.fail_reportf "%s differs (spare_only = %b)" name spare_only)
           [ true; false ]))

let suite =
  [
    ( "drtp.failure_eval",
      [
        Alcotest.test_case "empty network" `Quick test_empty_network;
        Alcotest.test_case "protected connection survives" `Quick test_protected_connection_survives;
        Alcotest.test_case "unprotected fails" `Quick test_unprotected_connection_fails;
        Alcotest.test_case "backup crossing failed edge" `Quick test_backup_crossing_failed_edge;
        Alcotest.test_case "spare contention" `Quick test_spare_contention;
        Alcotest.test_case "greedy grant order" `Quick test_greedy_order_is_conn_id;
        Alcotest.test_case "spare-only vs free mode" `Quick test_spare_only_vs_free;
        Alcotest.test_case "aggregation" `Quick test_aggregation;
        Alcotest.test_case "evaluation is pure" `Quick test_does_not_mutate;
        Alcotest.test_case "pair kills backup too" `Quick test_pair_loses_backup_too;
        Alcotest.test_case "pair overloads single sizing" `Quick test_pair_contention_beyond_single_sizing;
        Alcotest.test_case "double-failure monte carlo" `Quick test_double_monte_carlo;
        prop_matches_oracle;
      ] );
  ]
