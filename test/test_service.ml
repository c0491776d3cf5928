(* Admission-control service layer: speculation bit-identity under a
   random mutation walk (also when the speculation raises), what-if
   side-effect freedom, what-if verdicts against a replay on a restored
   copy, the batched-vs-sequential admission differential (including
   bounded flooding under a message-loss plan), and the serve loop's
   what-if transparency and smoke checks. *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Gen = Dr_topo.Gen
module Net_state = Drtp.Net_state
module Resources = Drtp.Resources
module Aplv = Drtp.Aplv
module Routing = Drtp.Routing
module Routing_reference = Drtp.Routing_reference
module Manager = Drtp.Manager
module Bounded_flood = Dr_flood.Bounded_flood
module Faults = Dr_faults.Faults
module Scenario = Dr_sim.Scenario
module Workload = Dr_sim.Workload
module Srlg = Dr_resilience.Srlg
module Rng = Dr_rng.Splitmix64
module Dist = Dr_rng.Dist
module Service = Dr_service.Service
module Batch = Dr_service.Batch
module Serve = Dr_service.Serve
module J = Dr_obs.Journal
module Trace = Dr_trace.Trace

let property ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let seed_gen = QCheck.int_range 0 1_000_000

(* --- full observable digest of a network state --------------------------- *)

(* The digest used below as the bit-identity witness for speculation
   originated here and now lives in {!Dr_persist.State_digest}, where the
   crash-recovery machinery uses the same serialisation as its equivalence
   witness.  Delegate so test and production can never drift apart. *)
let digest = Dr_persist.State_digest.digest
let manager_digest = Dr_persist.State_digest.manager_digest

(* --- shared setup --------------------------------------------------------- *)

let small_scenario ~seed ~rate ~horizon n =
  let rng = Rng.create seed in
  Workload.generate rng ~node_count:n
    {
      Workload.arrival_rate = rate;
      horizon;
      lifetime_lo = 10.0;
      lifetime_hi = 40.0;
      bw = Workload.Constant 1;
      pattern = Workload.Uniform;
    }

let dlsr_route () = Routing.link_state_route_fn Routing.Dlsr ~with_backup:true

let make_service ?(capacity = 12) graph route =
  Service.create
    (Manager.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed ~route)

(* Admit a handful of connections so speculations start from a
   non-trivial state. *)
let preload svc rng graph ~count =
  let n = Graph.node_count graph in
  for conn = 0 to count - 1 do
    let src, dst = Dist.pick_distinct_pair rng n in
    ignore
      (Service.admit_now svc ~now:0.0 ~conn ~src ~dst ~bw:1 : Service.verdict)
  done

(* --- random mutation walk over the whole Net_state surface ---------------- *)

(* Every mutator of the state, plus the manager's reprotection queue: the
   speculation tests below run this walk inside a speculation and check
   that the undo log puts everything back. *)
let mutation_walk ~steps ~scheme rng graph m next_id =
  let state = Manager.state m in
  let n = Graph.node_count graph in
  let active () =
    let ids = ref [] in
    Net_state.iter_conns state (fun c -> ids := c.Net_state.id :: !ids);
    List.sort compare !ids
  in
  let pick_conn () =
    match active () with
    | [] -> None
    | ids ->
        Net_state.find state
          (List.nth ids (Dist.uniform_int rng ~lo:0 ~hi:(List.length ids - 1)))
  in
  for step = 1 to steps do
    let now = float_of_int step in
    match Dist.uniform_int rng ~lo:0 ~hi:12 with
    | 0 | 1 | 2 -> (
        let src, dst = Dist.pick_distinct_pair rng n in
        let bw = Dist.uniform_int rng ~lo:1 ~hi:3 in
        match Routing.find_primary state ~src ~dst ~bw with
        | None -> ()
        | Some primary -> (
            match Routing.find_backups scheme state ~primary ~bw ~count:2 with
            | [] -> ()
            | backups ->
                let id = !next_id in
                incr next_id;
                ignore (Net_state.admit state ~id ~bw ~primary ~backups : Net_state.conn)))
    | 3 -> (
        match pick_conn () with
        | Some c -> Net_state.release state ~id:c.Net_state.id
        | None -> ())
    | 4 ->
        let e = Dist.uniform_int rng ~lo:0 ~hi:(Graph.edge_count graph - 1) in
        if not (Net_state.edge_failed state ~edge:e) then
          Net_state.fail_edge state ~edge:e
    | 5 ->
        let e = Dist.uniform_int rng ~lo:0 ~hi:(Graph.edge_count graph - 1) in
        if Net_state.edge_failed state ~edge:e then
          Net_state.restore_edge state ~edge:e
    | 6 -> (
        match pick_conn () with
        | Some c
          when c.Net_state.backups <> []
               && Net_state.activation_feasible state ~id:c.Net_state.id () ->
            Net_state.promote_backup state ~id:c.Net_state.id ()
        | _ -> ())
    | 7 ->
        let v = Dist.uniform_int rng ~lo:0 ~hi:(n - 1) in
        if Dist.uniform_int rng ~lo:0 ~hi:1 = 0 then Net_state.fail_node state ~node:v
        else Net_state.restore_node state ~node:v
    | 8 -> (
        (* Reroute: steer the search off the current route by failing its
           first edge, then restore it. *)
        match pick_conn () with
        | None -> ()
        | Some c ->
            let primary = c.Net_state.primary in
            let e = Graph.edge_of_link (List.hd (Path.links primary)) in
            let was_failed = Net_state.edge_failed state ~edge:e in
            if not was_failed then Net_state.fail_edge state ~edge:e;
            (match
               Routing.find_primary state ~src:c.Net_state.src
                 ~dst:c.Net_state.dst ~bw:c.Net_state.bw
             with
            | Some p when Path.links p <> Path.links primary ->
                Net_state.reroute_primary state ~id:c.Net_state.id ~primary:p
            | _ -> ());
            if not was_failed then Net_state.restore_edge state ~edge:e)
    | 9 -> (
        match pick_conn () with
        | None -> ()
        | Some c ->
            let backups =
              Routing.find_backups scheme state ~primary:c.Net_state.primary
                ~bw:c.Net_state.bw ~count:2
            in
            (* Freshly routed members fit, so on half the draws insist
               that every one is kept. *)
            let strict = Dist.uniform_int rng ~lo:0 ~hi:1 = 0 in
            let kept =
              Net_state.replace_backups_drop state ~id:c.Net_state.id ~backups
            in
            if strict && List.length kept <> List.length backups then
              Alcotest.failf "connection %d: a freshly routed backup was dropped"
                c.Net_state.id)
    | 10 ->
        let srlg = Net_state.srlg state in
        let g = Dist.uniform_int rng ~lo:0 ~hi:(Srlg.group_count srlg - 1) in
        if Dist.uniform_int rng ~lo:0 ~hi:1 = 0 then Net_state.fail_group state ~group:g
        else Net_state.restore_group state ~group:g
    | 11 -> (
        (* Strip a connection's backups and queue it for reprotection. *)
        match pick_conn () with
        | None -> ()
        | Some c ->
            let id = c.Net_state.id in
            ignore (Net_state.replace_backups_drop state ~id ~backups:[] : Path.t list);
            Manager.queue_reprotect m ~id ~scheme ~now ())
    | _ -> ignore (Manager.drain_reprotect m ~now : int)
  done

(* A manager over a Waxman graph; every third seed installs a random SRLG
   partition, so group failures hit several edges at once. *)
let walk_setup ?(n = 16) seed =
  let rng = Rng.create ((seed * 7) + 1) in
  let graph = Gen.waxman ~rng ~n ~avg_degree:4.0 () in
  let scheme = if seed mod 2 = 0 then Routing.Dlsr else Routing.Plsr in
  let srlg =
    if seed mod 3 = 0 then
      Srlg.random_partition ~seed ~edge_count:(Graph.edge_count graph) ~mean_size:3
    else Srlg.singletons ~edge_count:(Graph.edge_count graph)
  in
  let make () =
    Manager.create_srlg ~srlg ~graph ~capacity:12
      ~spare_policy:Net_state.Multiplexed
      ~route:(Routing.link_state_route_fn scheme ~with_backup:true)
  in
  (rng, graph, scheme, make)

(* --- property: speculate(random walk) is bit-identical --------------------- *)

let prop_speculate_bit_identity =
  property ~count:40 "speculate -> random walk -> undo is bit-identical"
    seed_gen
    (fun seed ->
      let rng, graph, scheme, make = walk_setup seed in
      let m = make () in
      let svc = Service.create m in
      let state = Manager.state m in
      preload svc rng graph ~count:8;
      let next_id = ref 10_000 in
      mutation_walk ~steps:10 ~scheme rng graph m next_id;
      let before = manager_digest graph m in
      Manager.speculate m (fun () ->
          mutation_walk ~steps:40 ~scheme rng graph m next_id);
      (match Net_state.check_invariants state with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "invariants after undo: %s" msg);
      (match Net_state.check_routing_caches state with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "caches after undo: %s" msg);
      (* The fast routing path must still agree with the reference oracle on
         the restored state (both read the APLV rows that the invariant
         check above compared with the connection table), under the
         singleton model and the SRLG partitions alike. *)
      let n = Graph.node_count graph in
      for _ = 1 to 4 do
        let src, dst = Dist.pick_distinct_pair rng n in
        let bw = Dist.uniform_int rng ~lo:1 ~hi:2 in
        let fast = Routing.find_primary state ~src ~dst ~bw in
        let oracle = Routing_reference.find_primary state ~src ~dst ~bw in
        let links = Option.map Path.links in
        if links fast <> links oracle then
          QCheck.Test.fail_reportf "primary fast<>oracle after undo";
        match fast with
        | None -> ()
        | Some primary ->
            let fb = Routing.find_backups scheme state ~primary ~bw ~count:2 in
            let ob =
              Routing_reference.find_backups scheme state ~primary ~bw ~count:2
            in
            if List.map Path.links fb <> List.map Path.links ob then
              QCheck.Test.fail_reportf "backups fast<>oracle after undo"
      done;
      let after = manager_digest graph m in
      if before <> after then
        QCheck.Test.fail_reportf "state digest changed across speculation";
      true)

(* Speculations one after another, with real mutations in between, and one
   nested inside another: each must undo exactly its own changes. *)
let test_repeated_speculation () =
  let rng, graph, scheme, make = walk_setup ~n:14 3 in
  let m = make () in
  preload (Service.create m) rng graph ~count:6;
  let next_id = ref 20_000 in
  for round = 1 to 5 do
    let before = manager_digest graph m in
    Manager.speculate m (fun () ->
        mutation_walk ~steps:8 ~scheme rng graph m next_id;
        let inner = manager_digest graph m in
        Manager.speculate m (fun () ->
            mutation_walk ~steps:8 ~scheme rng graph m next_id);
        Alcotest.(check string)
          (Printf.sprintf "round %d: nested speculation is undone" round)
          inner (manager_digest graph m);
        mutation_walk ~steps:8 ~scheme rng graph m next_id);
    Alcotest.(check string)
      (Printf.sprintf "round %d: speculation is undone bit-identically" round)
      before (manager_digest graph m);
    mutation_walk ~steps:5 ~scheme rng graph m next_id
  done;
  Alcotest.(check bool) "invariants hold" true
    (Net_state.check_invariants (Manager.state m) = Ok ())

(* --- a speculation that raises leaves no trace ----------------------------- *)

let test_speculation_raises () =
  let rng = Rng.create 8 in
  let graph = Gen.waxman ~rng ~n:16 ~avg_degree:4.0 () in
  let svc = make_service graph (dlsr_route ()) in
  let m = Service.manager svc in
  preload svc rng graph ~count:6;
  (* A pair that a fresh id would get admitted on. *)
  let rec admissible () =
    let src, dst = Dist.pick_distinct_pair rng (Graph.node_count graph) in
    match Service.what_if_admit svc ~conn:500 ~now:1.0 ~src ~dst ~bw:1 with
    | Service.Accepted _ -> (src, dst)
    | Service.Rejected _ -> admissible ()
  in
  let src, dst = admissible () in
  (match Service.admit_now svc ~now:1.0 ~conn:501 ~src ~dst ~bw:1 with
  | Service.Accepted _ -> ()
  | Service.Rejected _ -> Alcotest.fail "connection 501 was not admitted");
  let in_use = Invalid_argument "Net_state.admit: connection id in use" in
  let before = manager_digest graph m in
  let requests = (Manager.stats m).Manager.requests in
  Alcotest.check_raises "colliding conn propagates" in_use (fun () ->
      ignore (Service.what_if_admit svc ~conn:501 ~now:2.0 ~src ~dst ~bw:1));
  Alcotest.(check int) "request count unchanged" requests
    (Manager.stats m).Manager.requests;
  Alcotest.(check string) "digest unchanged after a raising what-if" before
    (manager_digest graph m);
  (* The set's first request (conn 500) is admitted speculatively; the
     second collides with 501.  Both must be undone. *)
  Alcotest.(check bool) "the set's first request is admissible" true
    (match Service.what_if_admit svc ~conn:500 ~now:2.0 ~src ~dst ~bw:1 with
    | Service.Accepted _ -> true
    | Service.Rejected _ -> false);
  Alcotest.check_raises "collision on the second request propagates" in_use
    (fun () ->
      ignore
        (Service.what_if_admit_set ~first_conn:500 svc ~now:2.0
           [ (src, dst, 1); (src, dst, 1) ]));
  Alcotest.(check bool) "first speculative admission undone" true
    (Net_state.find (Manager.state m) 500 = None);
  Alcotest.(check string) "digest unchanged after a raising what-if set" before
    (manager_digest graph m)

(* --- what-if verdicts == admissions on a restored copy --------------------- *)

(* An oracle that shares no code with the undo log: the verdicts of a
   speculative set must equal real admissions on a fresh manager restored
   from a checkpoint dump of the live one. *)
let prop_what_if_set_matches_restored_replay =
  property ~count:25 "what-if set == admissions on a restored copy" seed_gen
    (fun seed ->
      let rng, graph, scheme, make = walk_setup seed in
      let m = make () in
      let svc = Service.create m in
      preload svc rng graph ~count:8;
      mutation_walk ~steps:20 ~scheme rng graph m (ref 10_000);
      let n = Graph.node_count graph in
      let reqs =
        List.init (Dist.uniform_int rng ~lo:1 ~hi:6) (fun _ ->
            let src, dst = Dist.pick_distinct_pair rng n in
            (src, dst, Dist.uniform_int rng ~lo:1 ~hi:2))
      in
      let first_conn = 900_000 in
      let before = manager_digest graph m in
      let verdicts = Service.what_if_admit_set ~first_conn svc ~now:30.0 reqs in
      if manager_digest graph m <> before then
        QCheck.Test.fail_reportf "what-if set changed the live state";
      let copy = make () in
      Manager.Serial.restore copy (Manager.Serial.dump m);
      let copy_svc = Service.create copy in
      let replayed =
        List.mapi
          (fun i (src, dst, bw) ->
            Service.admit_now copy_svc ~now:30.0 ~conn:(first_conn + i) ~src
              ~dst ~bw)
          reqs
      in
      if not (List.for_all2 Service.equal_verdict verdicts replayed) then
        QCheck.Test.fail_reportf "what-if [%s] <> replay [%s]"
          (String.concat "; " (List.map Service.verdict_name verdicts))
          (String.concat "; " (List.map Service.verdict_name replayed));
      true)

(* --- what-if queries leave no trace --------------------------------------- *)

let test_what_if_side_effect_free () =
  let rng = Rng.create 5 in
  let graph = Gen.waxman ~rng ~n:16 ~avg_degree:4.0 () in
  let svc = make_service graph (dlsr_route ()) in
  let m = Service.manager svc in
  preload svc rng graph ~count:10;
  let n = Graph.node_count graph in
  let before = manager_digest graph m in
  let src, dst = Dist.pick_distinct_pair rng n in
  let v1 = Service.what_if_admit svc ~now:1.0 ~src ~dst ~bw:1 in
  let src2, dst2 = Dist.pick_distinct_pair rng n in
  let _set =
    Service.what_if_admit_set svc ~now:1.0 [ (src2, dst2, 1); (dst2, src2, 1) ]
  in
  let _probe = Service.what_if_fail_edge svc ~edge:0 in
  Alcotest.(check string) "what-ifs leave the truth bit-identical" before
    (manager_digest graph m);
  (* The speculative verdict is truthful: committing the same request now
     yields the same verdict. *)
  let v2 = Service.admit_now svc ~now:1.0 ~conn:777 ~src ~dst ~bw:1 in
  Alcotest.(check bool) "what-if verdict matches the real admission" true
    (Service.equal_verdict v1 v2)

let test_what_if_journal_silent () =
  let rng = Rng.create 6 in
  let graph = Gen.waxman ~rng ~n:14 ~avg_degree:4.0 () in
  J.set_enabled true;
  Fun.protect ~finally:(fun () -> J.set_enabled false) @@ fun () ->
  let buf = J.create () in
  let kinds =
    J.with_buffer buf (fun () ->
        let svc = make_service graph (dlsr_route ()) in
        preload svc rng graph ~count:4;
        let n = Graph.node_count graph in
        let src, dst = Dist.pick_distinct_pair rng n in
        let recorded0 = J.recorded buf in
        let _v = Service.what_if_admit svc ~now:2.0 ~src ~dst ~bw:1 in
        let entries = J.entries buf in
        let fresh = List.filteri (fun i _ -> i >= recorded0) entries in
        List.map (fun (e : J.entry) -> J.kind_name e.J.event) fresh)
  in
  (* Exactly one event escapes a speculative admission: the what-if record
     itself.  Everything the speculation journalled internally (request,
     admitted, spare changes, spans) was captured and discarded. *)
  Alcotest.(check (list string)) "one what-if event, nothing else"
    [ "what-if" ] kinds

(* --- batched admissions == sequential admissions --------------------------- *)

let requests_of_scenario scenario =
  Scenario.items scenario |> Array.to_list
  |> List.filter_map (fun (it : Scenario.item) ->
         match it.Scenario.event with
         | Scenario.Request { conn; src; dst; bw; duration = _ } ->
             Some
               {
                 Batch.rq_conn = conn;
                 rq_time = it.Scenario.time;
                 rq_src = src;
                 rq_dst = dst;
                 rq_bw = bw;
               }
         | Scenario.Release _ -> None)
  |> Array.of_list

let batch_vs_sequential ~label mk_route =
  let rng = Rng.create 91 in
  let graph = Gen.waxman ~rng ~n:18 ~avg_degree:4.0 () in
  let scenario = small_scenario ~seed:404 ~rate:1.0 ~horizon:150.0 18 in
  let reqs = requests_of_scenario scenario in
  Alcotest.(check bool) (label ^ ": scenario is non-trivial") true
    (Array.length reqs > 20);
  let svc_batch = make_service graph (mk_route ()) in
  let svc_seq = make_service graph (mk_route ()) in
  let batch_verdicts = Batch.admit svc_batch reqs in
  let seq_verdicts =
    Array.map
      (fun r ->
        Service.admit_now svc_seq ~now:r.Batch.rq_time ~conn:r.Batch.rq_conn
          ~src:r.Batch.rq_src ~dst:r.Batch.rq_dst ~bw:r.Batch.rq_bw)
      reqs
  in
  Array.iteri
    (fun i bv ->
      if not (Service.equal_verdict bv seq_verdicts.(i)) then
        Alcotest.failf "%s: request %d: batch %s <> sequential %s" label i
          (Service.verdict_name bv)
          (Service.verdict_name seq_verdicts.(i)))
    batch_verdicts;
  Alcotest.(check string)
    (label ^ ": end state is bit-identical")
    (manager_digest graph (Service.manager svc_seq))
    (manager_digest graph (Service.manager svc_batch))

let test_batch_differential_dlsr () =
  batch_vs_sequential ~label:"d-lsr" dlsr_route

let test_batch_differential_bf_faults () =
  (* Bounded flooding with a message-loss plan: admissions consult the
     fault injector's RNG, so identical call order (which the default
     batch preserves) must yield identical drops, verdicts and state. *)
  let rng = Rng.create 92 in
  let graph = Gen.waxman ~rng ~n:18 ~avg_degree:4.0 () in
  let hop_matrix = Dr_topo.Shortest_path.hop_matrix graph in
  let mk_route () =
    let faults = Faults.create ~seed:5 (Faults.uniform_spec 0.2) in
    Bounded_flood.route_fn ~stats:(Bounded_flood.fresh_stats ()) ~faults
      ~hop_matrix ()
  in
  let scenario = small_scenario ~seed:405 ~rate:1.0 ~horizon:120.0 18 in
  let reqs = requests_of_scenario scenario in
  let svc_batch = make_service graph (mk_route ()) in
  let svc_seq = make_service graph (mk_route ()) in
  let batch_verdicts = Batch.admit svc_batch reqs in
  let seq_verdicts =
    Array.map
      (fun r ->
        Service.admit_now svc_seq ~now:r.Batch.rq_time ~conn:r.Batch.rq_conn
          ~src:r.Batch.rq_src ~dst:r.Batch.rq_dst ~bw:r.Batch.rq_bw)
      reqs
  in
  Array.iteri
    (fun i bv ->
      if not (Service.equal_verdict bv seq_verdicts.(i)) then
        Alcotest.failf "bf+faults: request %d: batch %s <> sequential %s" i
          (Service.verdict_name bv)
          (Service.verdict_name seq_verdicts.(i)))
    batch_verdicts;
  Alcotest.(check string) "bf+faults: end state is bit-identical"
    (manager_digest graph (Service.manager svc_seq))
    (manager_digest graph (Service.manager svc_batch))

let test_batch_reorder_verdict_positions () =
  (* Reordering is a policy change, but verdicts must still come back at
     the original indices: every accepted verdict corresponds to a request
     that is actually active afterwards, under its own connection id. *)
  let rng = Rng.create 93 in
  let graph = Gen.waxman ~rng ~n:16 ~avg_degree:4.0 () in
  let scenario = small_scenario ~seed:406 ~rate:0.8 ~horizon:100.0 16 in
  let reqs = requests_of_scenario scenario in
  let svc = make_service graph (dlsr_route ()) in
  let verdicts = Batch.admit ~reorder:true svc reqs in
  let state = Manager.state (Service.manager svc) in
  Array.iteri
    (fun i v ->
      let active = Net_state.find state reqs.(i).Batch.rq_conn <> None in
      match v with
      | Service.Accepted _ ->
          if not active then
            Alcotest.failf "request %d reported accepted but is not active" i
      | Service.Rejected _ ->
          if active then
            Alcotest.failf "request %d reported rejected but is active" i)
    verdicts;
  (* And the permutation itself is deterministic and a real permutation. *)
  let order = Batch.locality_order reqs in
  let seen = Array.make (Array.length reqs) false in
  Array.iter (fun i -> seen.(i) <- true) order;
  Alcotest.(check bool) "locality order is a permutation" true
    (Array.for_all Fun.id seen)

(* --- serve loop ------------------------------------------------------------ *)

let serve_config =
  {
    Serve.default with
    Serve.sv_batch = 16;
    sv_what_if_every = 2;
    sv_what_if_burst = 6;
    sv_probe_every = 3;
    sv_check_every = 4;
    sv_seed = 42;
  }

let serve_once ~what_if_every =
  let rng = Rng.create 7 in
  let graph = Gen.waxman ~rng ~n:20 ~avg_degree:4.0 () in
  let scenario = small_scenario ~seed:42 ~rate:2.0 ~horizon:120.0 20 in
  J.set_enabled true;
  Fun.protect ~finally:(fun () -> J.set_enabled false) @@ fun () ->
  let buf = J.create () in
  J.with_buffer buf (fun () ->
      J.Causal.reset ~seed:9;
      let report =
        Serve.run
          { serve_config with Serve.sv_what_if_every = what_if_every }
          ~graph ~capacity:12 ~spare_policy:Net_state.Multiplexed
          ~route:(dlsr_route ()) ~scenario
      in
      (report, buf))

(* What-ifs must be invisible to everything but their own journal events:
   the same end state, verdict counts and journal with them on and off. *)
let test_serve_what_ifs_transparent () =
  let r_on, j_on = serve_once ~what_if_every:2 in
  let r_off, j_off = serve_once ~what_if_every:0 in
  Alcotest.(check bool) "what-ifs actually ran" true (r_on.Serve.rp_what_ifs > 0);
  Alcotest.(check int) "none without them" 0 r_off.Serve.rp_what_ifs;
  Alcotest.(check string) "same digest" r_off.Serve.rp_digest r_on.Serve.rp_digest;
  let counts r =
    Serve.
      [
        r.rp_requests;
        r.rp_accepted;
        r.rp_rejected_no_primary;
        r.rp_rejected_no_backup;
        r.rp_releases;
      ]
  in
  Alcotest.(check (list int)) "same request, verdict and release counts"
    (counts r_off) (counts r_on);
  let without_what_ifs buf =
    J.entries buf
    |> List.filter (fun (e : J.entry) -> J.kind_name e.J.event <> "what-if")
    |> List.map (fun (e : J.entry) -> J.entry_to_json { e with J.seq = 0 })
  in
  let kept = without_what_ifs j_on in
  Alcotest.(check bool) "journal is non-trivial" true (List.length kept > 100);
  Alcotest.(check (list string)) "same journal apart from what-if events"
    (without_what_ifs j_off) kept

let test_serve_smoke () =
  (* The tier-1 smoke: a fixed-seed serve run must admit something, violate
     no invariant, and emit a journal the trace checker accepts. *)
  let report, buf = serve_once ~what_if_every:2 in
  let journal = J.to_jsonl_string buf in
  Alcotest.(check bool) "admissions happened" true (report.Serve.rp_accepted > 0);
  Alcotest.(check int) "zero invariant violations" 0
    report.Serve.rp_invariant_failures;
  Alcotest.(check bool) "invariants were audited" true
    (report.Serve.rp_invariant_checks > 1);
  Alcotest.(check bool) "throughput is positive" true
    (report.Serve.rp_requests_per_sec > 0.0);
  let tr = Trace.of_string journal in
  let errors = List.filter Trace.is_error (Trace.check tr) in
  if errors <> [] then
    Alcotest.failf "trace check reported errors: %s" (String.concat "; " errors)

let suite =
  [
    ( "service",
      [
        prop_speculate_bit_identity;
        Alcotest.test_case "repeated and nested speculations undo bit-identically"
          `Quick test_repeated_speculation;
        Alcotest.test_case "a raising speculation is undone and re-raised"
          `Quick test_speculation_raises;
        prop_what_if_set_matches_restored_replay;
        Alcotest.test_case "what-if queries leave no trace on the truth" `Quick
          test_what_if_side_effect_free;
        Alcotest.test_case "what-if records one journal event, discards the rest"
          `Quick test_what_if_journal_silent;
        Alcotest.test_case "batch == sequential (d-lsr)" `Quick
          test_batch_differential_dlsr;
        Alcotest.test_case "batch == sequential (bf + loss plan)" `Quick
          test_batch_differential_bf_faults;
        Alcotest.test_case "reordered batch keeps verdict positions" `Quick
          test_batch_reorder_verdict_positions;
        Alcotest.test_case "serve report and journal unchanged by what-ifs"
          `Quick test_serve_what_ifs_transparent;
        Alcotest.test_case "serve smoke: admissions, invariants, trace check"
          `Quick test_serve_smoke;
      ] );
  ]
