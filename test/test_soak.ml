(* Randomized invariant soak: a long random walk over the whole Net_state
   mutation surface — admit, release, fail/restore edge and node, backup
   promotion, backup replacement, primary reroute — asserting the deep
   invariant check (which rebuilds every APLV count from the connection
   table) after every single step.  This is the test that catches a count
   delta wired into only {e most} of the mutation paths. *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module Rng = Dr_rng.Splitmix64
module Dist = Dr_rng.Dist

let check step state =
  match Net_state.check_invariants state with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "step %d: invariant violated: %s" step msg

let active_ids state =
  let ids = ref [] in
  Net_state.iter_conns state (fun c -> ids := c.Net_state.id :: !ids);
  List.sort compare !ids

let pick_active rng state =
  match active_ids state with
  | [] -> None
  | ids -> Some (List.nth ids (Dist.uniform_int rng ~lo:0 ~hi:(List.length ids - 1)))

let failed_edges state graph =
  let es = ref [] in
  Graph.iter_edges graph (fun e ->
      if Net_state.edge_failed state ~edge:e then es := e :: !es);
  !es

(* One soak walk on one topology/scheme. *)
let soak ~steps ~seed ~scheme graph =
  let state =
    Net_state.create ~graph ~capacity:50 ~spare_policy:Net_state.Multiplexed
  in
  let rng = Rng.create seed in
  let n = Graph.node_count graph in
  let next_id = ref 0 in
  let walk_step step =
    (match Dist.uniform_int rng ~lo:0 ~hi:9 with
    | 0 | 1 | 2 | 3 -> (
        (* admit *)
        let src, dst = Dist.pick_distinct_pair rng n in
        let bw = Dist.uniform_int rng ~lo:1 ~hi:4 in
        match Routing.find_primary state ~src ~dst ~bw with
        | None -> ()
        | Some primary -> (
            match
              Routing.find_backups scheme state ~primary ~bw ~count:2
            with
            | [] -> ()
            | backups ->
                let id = !next_id in
                incr next_id;
                ignore
                  (Net_state.admit state ~id ~bw ~primary ~backups
                    : Net_state.conn)))
    | 4 -> (
        (* release *)
        match pick_active rng state with
        | Some id -> Net_state.release state ~id
        | None -> ())
    | 5 -> (
        (* fail an edge *)
        let e = Dist.uniform_int rng ~lo:0 ~hi:(Graph.edge_count graph - 1) in
        if not (Net_state.edge_failed state ~edge:e) then
          Net_state.fail_edge state ~edge:e)
    | 6 -> (
        (* restore an edge *)
        match failed_edges state graph with
        | [] -> ()
        | es ->
            let e =
              List.nth es (Dist.uniform_int rng ~lo:0 ~hi:(List.length es - 1))
            in
            Net_state.restore_edge state ~edge:e)
    | 7 -> (
        (* fail or restore a node *)
        let v = Dist.uniform_int rng ~lo:0 ~hi:(n - 1) in
        if Dist.uniform_int rng ~lo:0 ~hi:1 = 0 then
          Net_state.fail_node state ~node:v
        else Net_state.restore_node state ~node:v)
    | 8 -> (
        (* promote a backup (failure recovery, step 3) *)
        match pick_active rng state with
        | None -> ()
        | Some id -> (
            match Net_state.find state id with
            | Some c
              when c.Net_state.backups <> []
                   && Net_state.activation_feasible state ~id () ->
                Net_state.promote_backup state ~id ()
            | _ -> ()))
    | _ -> (
        (* replace backups / reroute primary (reconfiguration, step 4) *)
        match pick_active rng state with
        | None -> ()
        | Some id -> (
            match Net_state.find state id with
            | None -> ()
            | Some c ->
                let bw = c.Net_state.bw and primary = c.Net_state.primary in
                if Dist.uniform_int rng ~lo:0 ~hi:1 = 0 then begin
                  let backups =
                    Routing.find_backups scheme state ~primary ~bw ~count:2
                  in
                  let kept = Net_state.replace_backups_drop state ~id ~backups in
                  (* Freshly routed members fit: none may be dropped. *)
                  if List.length kept <> List.length backups then
                    Alcotest.failf "connection %d: a freshly routed backup was dropped" id
                end
                else
                  (* Reroute: nudge the search away from the current route by
                     failing its first edge, then restore it. *)
                  let e = Graph.edge_of_link (List.hd (Path.links primary)) in
                  let was_failed = Net_state.edge_failed state ~edge:e in
                  if not was_failed then Net_state.fail_edge state ~edge:e;
                  (match
                     Routing.find_primary state ~src:c.Net_state.src
                       ~dst:c.Net_state.dst ~bw
                   with
                  | Some p when Path.links p <> Path.links primary ->
                      Net_state.reroute_primary state ~id ~primary:p
                  | _ -> ());
                  if not was_failed then Net_state.restore_edge state ~edge:e)));
    check step state
  in
  (* Interleaved speculations: after every 50th step, the next 25 steps
     run inside {!Net_state.speculate}.  The undone state must be
     bit-identical (full accessor digest, including every APLV count and
     cached norm) and pass the deep invariant check — this is the soak-side
     witness that what-if speculation can never corrupt the truth. *)
  let step = ref 0 in
  while !step < steps do
    incr step;
    walk_step !step;
    if !step mod 50 = 0 && !step + 25 <= steps then begin
      let before = Test_service.digest graph state in
      let last = !step + 25 in
      Net_state.speculate state (fun () ->
          while !step < last do
            incr step;
            walk_step !step
          done);
      if Test_service.digest graph state <> before then
        Alcotest.failf "step %d: state digest changed across speculation" !step;
      check !step state
    end
  done;
  (* Tear everything down: the cache must return to all-zeros. *)
  List.iter (fun id -> Net_state.release state ~id) (active_ids state);
  check (steps + 1) state;
  let graph_links = Graph.link_count graph in
  for l = 0 to graph_links - 1 do
    if Net_state.aplv_norm state l <> 0 then
      Alcotest.failf "link %d: aplv_norm %d after full teardown" l
        (Net_state.aplv_norm state l)
  done

let waxman seed =
  let rng = Rng.create seed in
  Dr_topo.Gen.waxman ~rng ~n:20 ~avg_degree:4.0 ()

let test_soak_plsr () = soak ~steps:300 ~seed:11 ~scheme:Routing.Plsr (waxman 1)
let test_soak_dlsr () = soak ~steps:300 ~seed:22 ~scheme:Routing.Dlsr (waxman 2)
let test_soak_spf () = soak ~steps:300 ~seed:33 ~scheme:Routing.Spf (waxman 3)

let test_soak_mesh () =
  soak ~steps:200 ~seed:44 ~scheme:Routing.Plsr (Dr_topo.Gen.mesh ~rows:4 ~cols:4)

let suite =
  [
    ( "soak",
      [
        Alcotest.test_case "plsr random walk, invariants every step" `Slow
          test_soak_plsr;
        Alcotest.test_case "dlsr random walk, invariants every step" `Slow
          test_soak_dlsr;
        Alcotest.test_case "spf random walk, invariants every step" `Slow
          test_soak_spf;
        Alcotest.test_case "mesh random walk" `Quick test_soak_mesh;
      ] );
  ]
