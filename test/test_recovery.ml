module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Net_state = Drtp.Net_state
module Recovery = Drtp.Recovery
module Routing = Drtp.Routing
module Faults = Dr_faults.Faults
module Rng = Dr_rng.Splitmix64
module J = Dr_obs.Journal

let mesh_state ?(capacity = 10) () =
  let graph = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  (graph, Net_state.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed)

let path g nodes = Path.of_nodes g nodes
let edge g a b = Graph.edge_of_link (Option.get (Graph.find_link g ~src:a ~dst:b))

let first_backup (conn : Net_state.conn) = List.hd conn.Net_state.backups

let test_drtp_switchover () =
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  let report = Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~edge:(edge g 0 1) () in
  (match report.Recovery.outcomes with
  | [ (1, Recovery.Switched { latency; reprotected }) ] ->
      Alcotest.(check bool) "positive latency" true (latency > 0.0);
      Alcotest.(check bool) "reprotected" true reprotected
  | _ -> Alcotest.fail "expected one switched outcome");
  Alcotest.(check (float 1e-9)) "all recovered" 1.0 (Recovery.recovered_fraction report);
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check (list int)) "runs on the old backup" [ 0; 3; 4; 5; 2 ]
    (Path.nodes g conn.Net_state.primary);
  Alcotest.(check bool) "has a fresh backup" true (conn.Net_state.backups <> []);
  Alcotest.(check bool) "fresh backup avoids failed edge" true
    (not (Path.crosses_edge (first_backup conn) (edge g 0 1)));
  Alcotest.(check bool) "invariants hold" true (Net_state.check_invariants st = Ok ())

let test_drtp_unprotected_lost () =
  let g, st = mesh_state () in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ]) ~backups:[]);
  let report = Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~edge:(edge g 0 1) () in
  (match report.Recovery.outcomes with
  | [ (1, Recovery.Lost _) ] -> ()
  | _ -> Alcotest.fail "expected a loss");
  Alcotest.(check int) "dropped from the network" 0 (Net_state.active_count st)

let test_drtp_latency_model () =
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  let timing =
    { Recovery.default_timing with Recovery.detection_delay = 0.1; link_delay = 0.01 }
  in
  (* Failure on the second primary hop: report travels 1 hop, activation 4
     hops -> 0.1 + 0.01 + 0.04. *)
  let report =
    Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~timing ~edge:(edge g 1 2) ()
  in
  match report.Recovery.outcomes with
  | [ (_, Recovery.Switched { latency; _ }) ] ->
      Alcotest.(check (float 1e-9)) "latency decomposition" 0.15 latency
  | _ -> Alcotest.fail "expected switch"

let test_drtp_broken_backup_rerouted () =
  let g, st = mesh_state () in
  (* Connection whose backup (not primary) crosses the failing edge. *)
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 6; 7; 8 ])
       ~backups:[ path g [ 6; 3; 4; 5; 8 ] ]);
  let report = Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~edge:(edge g 3 4) () in
  Alcotest.(check int) "no primaries affected" 0 (List.length report.Recovery.outcomes);
  Alcotest.(check int) "backup re-routed (step 4)" 1 report.Recovery.backups_rerouted;
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check bool) "new backup avoids failed edge" true
    (not (Path.crosses_edge (first_backup conn) (edge g 3 4)));
  Alcotest.(check bool) "invariants hold" true (Net_state.check_invariants st = Ok ())

let test_drtp_contention_loss () =
  let g, st = mesh_state ~capacity:2 () in
  (* One spare unit on 0->3 shared by two conflicting backups: a failure of
     edge (0,1) can only switch one of them. *)
  ignore (Net_state.admit st ~id:10 ~bw:1 ~primary:(path g [ 0; 3 ]) ~backups:[]);
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 1; 4 ])
       ~backups:[ path g [ 0; 3; 4 ] ]);
  let report =
    Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~reconfigure:false
      ~edge:(edge g 0 1) ()
  in
  let switched, lost =
    List.partition (fun (_, o) -> Recovery.outcome_is_recovered o) report.Recovery.outcomes
  in
  Alcotest.(check int) "one switched" 1 (List.length switched);
  Alcotest.(check int) "one lost" 1 (List.length lost);
  Alcotest.(check bool) "invariants hold" true (Net_state.check_invariants st = Ok ())

let test_reactive_reroute () =
  let g, st = mesh_state () in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ]) ~backups:[]);
  let report = Recovery.fail_edge_reactive st ~edge:(edge g 0 1) () in
  (match report.Recovery.outcomes with
  | [ (1, Recovery.Rerouted { latency; retries }) ] ->
      Alcotest.(check int) "first try" 0 retries;
      Alcotest.(check bool) "positive latency" true (latency > 0.0)
  | _ -> Alcotest.fail "expected a reroute");
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check bool) "new primary avoids failed edge" true
    (not (Path.crosses_edge conn.Net_state.primary (edge g 0 1)))

let test_reactive_loss_on_shortage () =
  (* A two-path topology where the alternative is saturated: reactive
     recovery must fail after retries. *)
  let graph = Dr_topo.Gen.ring 4 in
  let st = Net_state.create ~graph ~capacity:1 ~spare_policy:Net_state.Multiplexed in
  let p_main = Path.of_nodes graph [ 0; 1 ] in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:p_main ~backups:[]);
  (* Saturate the detour 0-3. *)
  ignore (Net_state.admit st ~id:2 ~bw:1 ~primary:(Path.of_nodes graph [ 0; 3 ]) ~backups:[]);
  let e01 = Graph.edge_of_link (Option.get (Graph.find_link graph ~src:0 ~dst:1)) in
  let report = Recovery.fail_edge_reactive st ~edge:e01 () in
  (match report.Recovery.outcomes with
  | [ (1, Recovery.Lost { latency }) ] ->
      (* Retried max_retries times with exponential backoff. *)
      Alcotest.(check bool) "backoff accumulated" true
        (latency > Recovery.default_timing.Recovery.retry_backoff *. 6.9)
  | _ -> Alcotest.fail "expected a loss");
  Alcotest.(check (float 1e-9)) "recovered fraction 0" 0.0
    (Recovery.recovered_fraction report)

let test_reactive_faster_than_nothing_but_slower_than_drtp () =
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  let drtp_report = Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~edge:(edge g 0 1) () in
  Net_state.restore_edge st ~edge:(edge g 0 1);
  let g2, st2 = mesh_state () in
  ignore (Net_state.admit st2 ~id:1 ~bw:1 ~primary:(path g2 [ 0; 1; 2 ]) ~backups:[]);
  let reactive_report = Recovery.fail_edge_reactive st2 ~edge:(edge g2 0 1) () in
  let latency_of r =
    match r.Recovery.outcomes with
    | [ (_, Recovery.Switched { latency; _ }) ] | [ (_, Recovery.Rerouted { latency; _ }) ] ->
        latency
    | _ -> Alcotest.fail "expected recovery"
  in
  Alcotest.(check bool) "DRTP switch beats reactive reroute" true
    (latency_of drtp_report < latency_of reactive_report)

let test_local_detour_splices () =
  let g, st = mesh_state () in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ]) ~backups:[]);
  let report = Recovery.fail_edge_local_detour st ~edge:(edge g 0 1) () in
  (match report.Recovery.outcomes with
  | [ (1, Recovery.Rerouted { latency; retries = 0 }) ] ->
      Alcotest.(check bool) "fast local repair" true (latency < 0.05)
  | _ -> Alcotest.fail "expected a local reroute");
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check bool) "new primary avoids the failed edge" true
    (not (Path.crosses_edge conn.Net_state.primary (edge g 0 1)));
  Alcotest.(check int) "endpoints preserved" 0 (Path.src conn.Net_state.primary);
  Alcotest.(check int) "endpoints preserved" 2 (Path.dst conn.Net_state.primary);
  Alcotest.(check bool) "no loops" true (Path.is_simple g conn.Net_state.primary);
  Alcotest.(check bool) "invariants hold" true (Net_state.check_invariants st = Ok ())

let test_local_detour_mid_path () =
  let g, st = mesh_state () in
  (* Fail the middle hop of 0-1-2-5-8: prefix and suffix are kept. *)
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2; 5; 8 ]) ~backups:[]);
  let report = Recovery.fail_edge_local_detour st ~edge:(edge g 1 2) () in
  (match report.Recovery.outcomes with
  | [ (1, Recovery.Rerouted _) ] -> ()
  | _ -> Alcotest.fail "reroute expected");
  let conn = Option.get (Net_state.find st 1) in
  let nodes = Path.nodes g conn.Net_state.primary in
  Alcotest.(check bool) "still starts 0,1" true
    (match nodes with 0 :: 1 :: _ -> true | _ -> false);
  Alcotest.(check bool) "avoids failed edge" true
    (not (Path.crosses_edge conn.Net_state.primary (edge g 1 2)));
  Alcotest.(check bool) "simple after splice" true
    (Path.is_simple g conn.Net_state.primary);
  Alcotest.(check bool) "invariants hold" true (Net_state.check_invariants st = Ok ())

let test_local_detour_needs_free_bw () =
  (* Ring of 4, capacity 1: the only detour is saturated -> loss. *)
  let graph = Dr_topo.Gen.ring 4 in
  let st = Net_state.create ~graph ~capacity:1 ~spare_policy:Net_state.Multiplexed in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(Path.of_nodes graph [ 0; 1 ]) ~backups:[]);
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(Path.of_nodes graph [ 3; 2 ]) ~backups:[]);
  let e01 = Graph.edge_of_link (Option.get (Graph.find_link graph ~src:0 ~dst:1)) in
  let report = Recovery.fail_edge_local_detour st ~edge:e01 () in
  (match report.Recovery.outcomes with
  | [ (1, Recovery.Lost _) ] -> ()
  | _ -> Alcotest.fail "expected loss (detour saturated)");
  Alcotest.(check int) "victim dropped" 1 (Net_state.active_count st)

let test_reroute_primary_moves_backups () =
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  (* Move the primary to the top-right corner route; the backup must be
     re-registered against the new LSET. *)
  Net_state.reroute_primary st ~id:1 ~primary:(path g [ 0; 1; 4; 5; 2 ]);
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check (list int)) "new primary" [ 0; 1; 4; 5; 2 ]
    (Path.nodes g conn.Net_state.primary);
  Alcotest.(check bool) "invariants hold" true (Net_state.check_invariants st = Ok ());
  (* The backup shares links 4->5 with the new primary? 0-3-4-5-2 uses
     4->5; the new primary also uses 4->5: the backup survives only if the
     link can host both.  At capacity 10 it can. *)
  Alcotest.(check int) "backup kept" 1 (List.length conn.Net_state.backups)

let test_reroute_primary_rolls_back () =
  let g, st = mesh_state ~capacity:1 () in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1 ]) ~backups:[]);
  ignore (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 3 ]) ~backups:[]);
  (* Rerouting conn 1 over the saturated 0-3 corridor must fail and leave
     everything as it was. *)
  Alcotest.(check bool) "raises" true
    (try
       Net_state.reroute_primary st ~id:1 ~primary:(path g [ 0; 3; 4; 1 ]);
       false
     with Invalid_argument _ -> true);
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check (list int)) "old primary intact" [ 0; 1 ]
    (Path.nodes g conn.Net_state.primary);
  Alcotest.(check bool) "invariants hold" true (Net_state.check_invariants st = Ok ())

let test_recovered_fraction_empty () =
  let g, st = mesh_state () in
  let report = Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~edge:(edge g 0 1) () in
  Alcotest.(check (float 1e-9)) "vacuous 1.0" 1.0 (Recovery.recovered_fraction report)

(* ---- step-4 bookkeeping pinned on hand-built topologies ----------------- *)

let test_step4_counters_reroute_success () =
  (* Mesh: conn 1's backup dies but a replacement exists.  Pins the exact
     counter split: one backup rerouted, none unprotected, nobody joins the
     reprotection candidates. *)
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 6; 7; 8 ])
       ~backups:[ path g [ 6; 3; 4; 5; 8 ] ]);
  let report = Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~edge:(edge g 3 4) () in
  Alcotest.(check int) "backups_rerouted" 1 report.Recovery.backups_rerouted;
  Alcotest.(check int) "backups_unprotected" 0 report.Recovery.backups_unprotected;
  Alcotest.(check (list int)) "nothing left unprotected" []
    report.Recovery.unprotected_ids

let test_step4_counters_no_spare_route () =
  (* Ring of 4: conn 1's backup 0-3-2-1 crosses the failing edge (3,2) and
     the only replacement route IS that broken detour — step 4 must record
     it unprotected and hand it to the reprotection queue. *)
  let graph = Dr_topo.Gen.ring 4 in
  let st = Net_state.create ~graph ~capacity:10 ~spare_policy:Net_state.Multiplexed in
  ignore
    (Net_state.admit st ~id:1 ~bw:1
       ~primary:(Path.of_nodes graph [ 0; 1 ])
       ~backups:[ Path.of_nodes graph [ 0; 3; 2; 1 ] ]);
  let e32 = Graph.edge_of_link (Option.get (Graph.find_link graph ~src:3 ~dst:2)) in
  let report = Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~edge:e32 () in
  Alcotest.(check int) "no primary affected" 0 (List.length report.Recovery.outcomes);
  Alcotest.(check int) "backups_rerouted" 0 report.Recovery.backups_rerouted;
  Alcotest.(check int) "backups_unprotected" 1 report.Recovery.backups_unprotected;
  Alcotest.(check (list int)) "queued for reprotection" [ 1 ]
    report.Recovery.unprotected_ids;
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check int) "backup really gone" 0 (List.length conn.Net_state.backups)

let test_step4_promoted_without_fresh_backup () =
  (* Ring of 4: the primary 0-1 fails, the connection switches to 0-3-2-1,
     and no fresh backup exists for the promoted route.  The promoted side
     joins [unprotected_ids] but deliberately does NOT bump
     [backups_unprotected] (that counter tracks broken-backup survivors
     only, as before the fault-injection change). *)
  let graph = Dr_topo.Gen.ring 4 in
  let st = Net_state.create ~graph ~capacity:10 ~spare_policy:Net_state.Multiplexed in
  ignore
    (Net_state.admit st ~id:1 ~bw:1
       ~primary:(Path.of_nodes graph [ 0; 1 ])
       ~backups:[ Path.of_nodes graph [ 0; 3; 2; 1 ] ]);
  let e01 = Graph.edge_of_link (Option.get (Graph.find_link graph ~src:0 ~dst:1)) in
  let report = Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~edge:e01 () in
  (match report.Recovery.outcomes with
  | [ (1, Recovery.Switched { reprotected; _ }) ] ->
      Alcotest.(check bool) "no fresh backup available" false reprotected
  | _ -> Alcotest.fail "expected a switch");
  Alcotest.(check int) "counter untouched for promoted conns" 0
    report.Recovery.backups_unprotected;
  Alcotest.(check (list int)) "promoted conn still queued" [ 1 ]
    report.Recovery.unprotected_ids

let test_step4_drops_backup_that_no_longer_fits () =
  (* a=0 b=1 x=2 y=3 c=4 d=5, capacity 1.  Edge a-b carries connection 1's
     primary and connection 2's first backup.  Connection 1 switches onto
     a-x-y-b, which turns the spare on x->y into prime, so connection 2's
     surviving backup c-x-y-d no longer fits: step 4 must drop it and queue
     connection 2 for reprotection, through either entry point. *)
  let graph =
    Graph.create ~node_count:6
      ~edges:[ (0, 1); (0, 2); (2, 3); (3, 1); (4, 5); (4, 1); (0, 5); (4, 2); (3, 5) ]
  in
  let run name fail =
    let st = Net_state.create ~graph ~capacity:1 ~spare_policy:Net_state.Multiplexed in
    ignore
      (Net_state.admit st ~id:1 ~bw:1 ~primary:(path graph [ 0; 1 ])
         ~backups:[ path graph [ 0; 2; 3; 1 ] ]);
    ignore
      (Net_state.admit st ~id:2 ~bw:1 ~primary:(path graph [ 4; 5 ])
         ~backups:[ path graph [ 4; 1; 0; 5 ]; path graph [ 4; 2; 3; 5 ] ]);
    let report = fail st (edge graph 0 1) in
    (match report.Recovery.outcomes with
    | [ (1, Recovery.Switched _) ] -> ()
    | _ -> Alcotest.failf "%s: expected connection 1 to switch" name);
    Alcotest.(check (list int)) (name ^ ": connection 2 unprotected") [ 2 ]
      report.Recovery.unprotected_ids;
    Alcotest.(check int) (name ^ ": its backup was dropped") 0
      (List.length (Option.get (Net_state.find st 2)).Net_state.backups);
    Alcotest.(check bool) (name ^ ": invariants hold") true
      (Net_state.check_invariants st = Ok ())
  in
  run "fail_edge_drtp" (fun st edge ->
      Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~edge ());
  run "fail_edges_drtp" (fun st e ->
      Recovery.fail_edges_drtp st ~scheme:Routing.Dlsr ~edges:[ e ] ())

(* ---- which entry point journals what ------------------------------------ *)

(* Edge 1-2 of the mesh fails under two primaries.  Connection 1 (k = 2)
   has a first backup that crosses the edge, so it activates its second
   (depth 1); connection 2's only backup crosses the edge as well. *)
let failover_events fail =
  let g, st = mesh_state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 1; 2 ]; path g [ 0; 3; 6; 7; 8; 5; 2 ] ]);
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 4; 1; 2 ])
       ~backups:[ path g [ 4; 3; 0; 1; 2 ] ]);
  let e = edge g 1 2 in
  let was_on = J.enabled () in
  J.set_enabled true;
  let report, captured =
    Fun.protect
      ~finally:(fun () -> J.set_enabled was_on)
      (fun () -> J.capture (fun () -> fail st e))
  in
  (match report.Recovery.outcomes with
  | [ (1, Recovery.Switched _); (2, Recovery.Lost _) ] -> ()
  | _ -> Alcotest.fail "expected connection 1 to switch and 2 to be lost");
  (e, List.map (fun (x : J.entry) -> x.J.event) (J.captured_entries captured))

let count_kind kind events =
  List.length (List.filter (fun ev -> J.kind_name ev = kind) events)

let test_single_edge_journal () =
  let e, events =
    failover_events (fun st edge ->
        Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~backup_count:2 ~edge ())
  in
  Alcotest.(check bool) "failure-detected names the edge" true
    (List.mem (J.Failure_detected { edge = e; victims = 2 }) events);
  Alcotest.(check bool) "second backup activated" true
    (List.exists
       (function J.Backup_activated { conn = 1; index = 1; _ } -> true | _ -> false)
       events);
  List.iter
    (fun kind -> Alcotest.(check int) ("no " ^ kind) 0 (count_kind kind events))
    [ "group-failed"; "chain-failover"; "chain-exhausted" ]

let test_edge_set_journal () =
  let check name group fail =
    let _, events = failover_events fail in
    Alcotest.(check int) (name ^ ": no failure-detected") 0
      (count_kind "failure-detected" events);
    Alcotest.(check bool) (name ^ ": group-failed") true
      (List.mem (J.Group_failed { group; edges = 1; victims = 2 }) events);
    Alcotest.(check (list int)) (name ^ ": chain-failover at depth 1") [ 1 ]
      (List.filter_map
         (function J.Chain_failover { conn = 1; depth; _ } -> Some depth | _ -> None)
         events);
    Alcotest.(check bool) (name ^ ": chain-exhausted for connection 2") true
      (List.mem (J.Chain_exhausted { conn = 2 }) events);
    Alcotest.(check int) (name ^ ": one chain-exhausted") 1
      (count_kind "chain-exhausted" events)
  in
  let g, _ = mesh_state () in
  let e = edge g 1 2 in
  check "fail_edges_drtp" (-1) (fun st edge ->
      Recovery.fail_edges_drtp st ~scheme:Routing.Dlsr ~backup_count:2
        ~edges:[ edge ] ());
  (* Singleton model: the edge is its own group. *)
  check "fail_group_drtp" e (fun st edge ->
      Recovery.fail_group_drtp st ~scheme:Routing.Dlsr ~backup_count:2 ~group:edge ())

(* ---- recovered_fraction property ---------------------------------------- *)

let property ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let prop_recovered_fraction_bounded =
  property ~count:60 "recovered_fraction in [0,1]; 1.0 when unaffected"
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let graph =
        Dr_topo.Gen.erdos_renyi ~rng ~n:(6 + Rng.int rng 10)
          ~avg_degree:(2.5 +. Rng.float rng 1.0)
      in
      let st =
        Net_state.create ~graph ~capacity:(2 + Rng.int rng 4)
          ~spare_policy:Net_state.Multiplexed
      in
      let n = Graph.node_count graph in
      let route = Routing.link_state_route_fn Routing.Dlsr ~with_backup:true in
      for id = 1 to 8 do
        let src = Rng.int rng n in
        let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
        match route st ~src ~dst ~bw:1 with
        | Ok { Routing.primary; backups } ->
            ignore (Net_state.admit st ~id ~bw:1 ~primary ~backups)
        | Error _ -> ()
      done;
      let edge = Rng.int rng (Graph.edge_count graph) in
      let faults =
        if Rng.int rng 2 = 0 then None
        else Some (Faults.create ~seed (Faults.uniform_spec (Rng.float rng 0.5)))
      in
      let report = Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ?faults ~edge () in
      let f = Recovery.recovered_fraction report in
      (f >= 0.0 && f <= 1.0)
      && (report.Recovery.outcomes <> [] || f = 1.0)
      && Net_state.check_invariants st = Ok ())

let suite =
  [
    ( "drtp.recovery",
      [
        Alcotest.test_case "DRTP switchover" `Quick test_drtp_switchover;
        Alcotest.test_case "unprotected connection lost" `Quick test_drtp_unprotected_lost;
        Alcotest.test_case "latency decomposition" `Quick test_drtp_latency_model;
        Alcotest.test_case "broken backup re-routed" `Quick test_drtp_broken_backup_rerouted;
        Alcotest.test_case "spare contention loses one" `Quick test_drtp_contention_loss;
        Alcotest.test_case "reactive reroute" `Quick test_reactive_reroute;
        Alcotest.test_case "reactive loss on shortage" `Quick test_reactive_loss_on_shortage;
        Alcotest.test_case "DRTP faster than reactive" `Quick test_reactive_faster_than_nothing_but_slower_than_drtp;
        Alcotest.test_case "local detour splices" `Quick test_local_detour_splices;
        Alcotest.test_case "local detour mid-path" `Quick test_local_detour_mid_path;
        Alcotest.test_case "local detour needs free bw" `Quick test_local_detour_needs_free_bw;
        Alcotest.test_case "reroute_primary moves backups" `Quick test_reroute_primary_moves_backups;
        Alcotest.test_case "reroute_primary rolls back" `Quick test_reroute_primary_rolls_back;
        Alcotest.test_case "recovered fraction, no victims" `Quick test_recovered_fraction_empty;
        Alcotest.test_case "step 4: reroute success pinned" `Quick test_step4_counters_reroute_success;
        Alcotest.test_case "step 4: no spare route pinned" `Quick test_step4_counters_no_spare_route;
        Alcotest.test_case "step 4: promoted without fresh backup" `Quick test_step4_promoted_without_fresh_backup;
        Alcotest.test_case "step 4 drops a backup that no longer fits" `Quick test_step4_drops_backup_that_no_longer_fits;
        Alcotest.test_case "single edge: failure-detected, no chain events" `Quick test_single_edge_journal;
        Alcotest.test_case "edge set: group-failed and chain events" `Quick test_edge_set_journal;
        prop_recovered_fraction_bounded;
      ] );
  ]
