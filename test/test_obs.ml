(* The flight-recorder journal: ring-buffer semantics, the disabled no-op
   guarantee, JSONL round-tripping through the built-in reader, the
   bit-exact cost decomposition behind [drtp_sim explain], exact per-kind
   totals that agree with the simulator's own counters however the ring
   is sized, observer neutrality, and — the property the per-domain
   buffers exist for — journal output that is byte-identical across
   [--jobs] counts. *)

module J = Dr_obs.Journal
module Pool = Dr_parallel.Pool
module Config = Dr_exp.Config
module Runner = Dr_exp.Runner
module Routing = Drtp.Routing
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Recovery = Drtp.Recovery
module Bounded_flood = Dr_flood.Bounded_flood
module Scenario = Dr_sim.Scenario
module Serve = Dr_service.Serve

(* Every test leaves the journal global state as it found it: disabled,
   with the calling domain's buffer empty. *)
let scoped f =
  J.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      J.set_enabled false;
      J.clear (J.current ()))

let test_ring_bounds () =
  scoped @@ fun () ->
  let t = J.create ~capacity:4 () in
  Alcotest.(check int) "capacity" 4 (J.capacity t);
  J.with_buffer t (fun () ->
      for i = 1 to 6 do
        J.set_now (float_of_int i);
        J.record (J.Teardown { conn = i })
      done);
  Alcotest.(check int) "length capped" 4 (J.length t);
  Alcotest.(check int) "recorded counts everything" 6 (J.recorded t);
  Alcotest.(check int) "dropped = overflow" 2 (J.dropped t);
  Alcotest.(check int) "totals count overwritten entries" 6
    (List.assoc "teardown" (J.totals t));
  let es = J.entries t in
  Alcotest.(check (list int)) "oldest entries evicted, order kept"
    [ 2; 3; 4; 5 ]
    (List.map (fun (e : J.entry) -> e.J.seq) es);
  List.iter
    (fun (e : J.entry) ->
      match e.J.event with
      | J.Teardown { conn } ->
          Alcotest.(check int) "seq tracks insert order" (conn - 1) e.J.seq;
          Alcotest.(check (float 0.0)) "sim time stamped" (float_of_int conn)
            e.J.time
      | _ -> Alcotest.fail "unexpected event")
    es;
  J.clear t;
  Alcotest.(check int) "clear empties" 0 (J.length t);
  Alcotest.(check int) "clear resets counter" 0 (J.recorded t);
  Alcotest.(check int) "clear resets totals" 0
    (List.assoc "teardown" (J.totals t))

let test_disabled_noop () =
  J.set_enabled false;
  let t = J.create ~capacity:8 () in
  J.with_buffer t (fun () -> J.record (J.Teardown { conn = 1 }));
  Alcotest.(check int) "nothing recorded while disabled" 0 (J.recorded t)

let test_capture_isolates () =
  scoped @@ fun () ->
  let outer = J.current () in
  J.set_now 123.0;
  J.record (J.Teardown { conn = 7 });
  let (), inner =
    J.capture (fun () ->
        Alcotest.(check (float 0.0)) "capture restarts sim clock" 0.0 (J.now ());
        J.set_now 5.0;
        J.record (J.Teardown { conn = 8 });
        ())
  in
  Alcotest.(check int) "captured exactly the inner entries" 1
    (List.length (J.captured_entries inner));
  Alcotest.(check (float 0.0)) "outer sim clock restored" 123.0 (J.now ());
  Alcotest.(check int) "outer buffer untouched by capture" 1 (J.recorded outer);
  J.merge outer inner;
  Alcotest.(check int) "merge adds the capture's totals" 2
    (List.assoc "teardown" (J.totals outer));
  match J.entries outer with
  | [ a; b ] ->
      Alcotest.(check int) "re-appended entry re-sequenced" (a.J.seq + 1) b.J.seq;
      Alcotest.(check (float 0.0)) "re-appended entry keeps its time" 5.0 b.J.time
  | _ -> Alcotest.fail "expected two entries"

(* One instance of every event constructor: the round-trip test feeds each
   through the writer and the reader, so a new kind cannot be added without
   serialisation, a kind name and reader acceptance. *)
let one_of_each =
  [
    J.Request { conn = 1; src = 2; dst = 3; bw = 1 };
    J.Admitted { conn = 1; backups = 2; degraded = false };
    J.Rejected { conn = 4; reason = "no-backup" };
    J.Primary_chosen { src = 2; dst = 3; bw = 1; links = [ 0; 5; 9 ] };
    J.Backup_chosen
      {
        src = 2;
        dst = 3;
        bw = 1;
        scheme = "D-LSR";
        rank = 0;
        links =
          [
            { J.lc_link = 7; lc_q = 0.0; lc_conflict = 2.0; lc_eps = 1e-3 };
            { J.lc_link = 8; lc_q = 1e6; lc_conflict = 0.0; lc_eps = 1e-3 };
          ];
      };
    J.Spare_change { link = 7; before = 3; after = 4 };
    J.Flood_done { src = 2; dst = 3; messages = 41; candidates = 5; truncated = true };
    J.Cdp_sent { node = 9; hc = 2 };
    J.Cdp_dropped { node = 9; reason = "ttl" };
    J.Cdp_candidate { hops = 4; primary_ok = true };
    J.Failure_detected { edge = 12; victims = 3 };
    J.Report_hop { conn = 1; hops = 2; detection = 0.01; report = 0.002 };
    J.Backup_activated
      { conn = 1; index = 0; detection = 0.01; report = 0.002; activation = 0.004 };
    J.Backup_contended { conn = 1 };
    J.Connection_lost { conn = 1; latency = 0.012 };
    J.Rerouted { conn = 1; latency = 0.02; retries = 1 };
    J.Reprotected { conn = 1; fresh = 1 };
    J.Teardown { conn = 1 };
    J.Message_dropped { cls = "report"; id = 1 };
    J.Retransmit { cls = "activation"; conn = 1; attempt = 2 };
    J.Flood_truncated { src = 2; dst = 3; messages = 20000 };
    J.Reprotect_queued { conn = 1; pending = 4 };
    J.Group_failed { group = 2; edges = 3; victims = 5 };
    J.Chain_built { src = 0; dst = 4; members = 3; disjoint = 2 };
    J.Chain_failover { conn = 1; depth = 1; remaining = 1 };
    J.Chain_exhausted { conn = 1 };
    J.Lsa_originated { shard = 0; link = 14; lsa_seq = 3 };
    J.Lsa_delivered { shard = 1; link = 14; lsa_seq = 3; lag = 0.05 };
    J.Shard_setup { conn = 1; shards = 2; attempt = 0 };
    J.Shard_crankback { conn = 1; attempt = 1; reason = "stale-reject" };
    J.Stale_decision { conn = 1; age = 1.5; divergent = true };
    J.What_if { conn = 900001; src = 2; dst = 3; verdict = "accepted" };
    J.Batch_done { size = 32; accepted = 29 };
    J.Span_open
      {
        trace = 0x123456789ab;
        span = 4;
        parent = 3;
        cause = -1;
        phase = "activate";
        conn = 17;
        t0 = 1.25;
      };
    J.Span_close { trace = 0x123456789ab; span = 4; dur = 0.012 };
    J.Ring_dropped { count = 42 };
    J.Checkpoint_written { seq = 448; conns = 37; bytes = 20912 };
    J.Wal_appended { seq = 449; op = "request" };
    J.Crash_injected { at_batch = 15; wal_seq = 480 };
    J.Recovery_replayed { checkpoint_seq = 448; replayed = 32; conns = 37 };
    J.Request_shed { conn = 900017; reason = "queue-full"; queued = 24 };
  ]

let test_jsonl_round_trip () =
  scoped @@ fun () ->
  Alcotest.(check int) "one_of_each covers every documented kind"
    (List.length J.all_kinds)
    (List.length (List.sort_uniq compare (List.map J.kind_name one_of_each)));
  (* [one_of_each] lists the constructors in declaration order, so this
     pins each constructor to its own name (and totals slot). *)
  Alcotest.(check (list string)) "kind names in schema order" J.all_kinds
    (List.map J.kind_name one_of_each);
  let t = J.create () in
  J.with_buffer t (fun () ->
      List.iteri
        (fun i ev ->
          J.set_now (0.5 *. float_of_int i);
          J.record ev)
        one_of_each);
  let lines =
    String.split_on_char '\n' (String.trim (J.to_jsonl_string t))
  in
  Alcotest.(check int) "one line per event" (List.length one_of_each)
    (List.length lines);
  List.iteri
    (fun i line ->
      match J.parse_line line with
      | Error msg -> Alcotest.failf "line %d rejected: %s (%s)" i msg line
      | Ok p ->
          Alcotest.(check int) "seq round-trips" i p.J.p_seq;
          Alcotest.(check (float 1e-12)) "time round-trips"
            (0.5 *. float_of_int i) p.J.p_time;
          Alcotest.(check string) "kind round-trips"
            (J.kind_name (List.nth one_of_each i))
            p.J.p_kind)
    lines;
  (* A malformed line and an undocumented kind must both be rejected. *)
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (J.parse_line "{not json"));
  Alcotest.(check bool) "unknown kind rejected" true
    (Result.is_error (J.parse_line {|{"seq":0,"t":0,"kind":"mystery"}|}))

(* ---- bit-exact cost decomposition --------------------------------------- *)

let small_cfg =
  {
    Config.default with
    Config.warmup = 600.0;
    horizon = 1200.0;
    sample_every = 300.0;
    lifetime_lo = 300.0;
    lifetime_hi = 600.0;
  }

let loaded_state =
  lazy
    (let graph = Config.make_graph small_cfg ~avg_degree:3.0 in
     let scenario = Config.make_scenario small_cfg Config.UT ~lambda:0.4 in
     let state =
       Runner.load_state small_cfg ~graph ~scenario
         ~scheme:(Runner.Lsr Routing.Dlsr) ~until:small_cfg.Config.warmup
     in
     (graph, state))

let test_verdict_matches_cost () =
  let graph, state = Lazy.force loaded_state in
  let primary =
    match Routing.find_primary state ~src:0 ~dst:1 ~bw:1 with
    | Some p -> p
    | None -> (
        (* Fall back to any routable pair on this topology. *)
        let found = ref None in
        let n = Dr_topo.Graph.node_count graph in
        (try
           for s = 0 to n - 1 do
             for d = 0 to n - 1 do
               if s <> d then
                 match Routing.find_primary state ~src:s ~dst:d ~bw:1 with
                 | Some p ->
                     found := Some p;
                     raise Exit
                 | None -> ()
             done
           done
         with Exit -> ());
        match !found with
        | Some p -> p
        | None -> Alcotest.fail "no routable pair in fixture")
  in
  let checked = ref 0 and feasible = ref 0 in
  List.iter
    (fun scheme ->
      let row = Routing.backup_cost_row scheme state ~primary ~bw:1
      and verdicts = Routing.backup_verdicts scheme state ~primary ~bw:1 in
      Dr_topo.Graph.iter_links graph (fun l ->
          incr checked;
          let cost = row.(l) in
          match verdicts.(l) with
          | Routing.Cost p ->
              incr feasible;
              (* Bit-exact, not approximately equal: the explain table's row
                 total must be the number Dijkstra compared. *)
              Alcotest.(check bool)
                (Printf.sprintf "link %d (%s): parts sum = search cost" l
                   (Routing.scheme_name scheme))
                true
                (Int64.bits_of_float (Routing.parts_total p)
                = Int64.bits_of_float cost)
          | Routing.Dead | Routing.No_bandwidth _ ->
              Alcotest.(check bool) "infeasible verdict = infinite cost" true
                (cost = infinity)))
    [ Routing.Dlsr; Routing.Plsr; Routing.Spf ];
  Alcotest.(check bool) "fixture exercises feasible links" true (!feasible > 0);
  Alcotest.(check bool) "fixture exercises every link x scheme" true
    (!checked = 3 * Dr_topo.Graph.link_count graph)

(* ---- determinism across --jobs ------------------------------------------ *)

let sweep_tasks =
  lazy
    (let graph = Config.make_graph small_cfg ~avg_degree:3.0 in
     Array.of_list
       (List.concat_map
          (fun lambda ->
            let scenario = Config.make_scenario small_cfg Config.UT ~lambda in
            [
              (graph, scenario, Runner.Lsr Routing.Dlsr);
              (graph, scenario, Runner.Lsr Routing.Plsr);
              (graph, scenario, Runner.Bf Dr_flood.Bounded_flood.default_config);
            ])
          [ 0.2; 0.4 ]))

let journal_bytes ~jobs =
  let tasks = Lazy.force sweep_tasks in
  J.set_enabled true;
  Fun.protect ~finally:(fun () -> J.set_enabled false) @@ fun () ->
  let buf = J.create () in
  J.with_buffer buf (fun () ->
      Pool.with_pool ~jobs (fun pool ->
          let results = Runner.run_many ~pool small_cfg tasks in
          Array.iter
            (function
              | Ok _ -> () | Error _ -> Alcotest.fail "sweep task failed")
            results);
      (J.to_jsonl_string buf, J.recorded buf, J.totals buf))

let test_jobs_byte_identical () =
  let s1, n1, t1 = journal_bytes ~jobs:1 in
  let s4, n4, t4 = journal_bytes ~jobs:4 in
  Alcotest.(check bool) "journal is non-trivial" true (n1 > 100);
  Alcotest.(check int) "same entry count" n1 n4;
  Alcotest.(check bool) "jobs=4 journal byte-identical to jobs=1" true
    (String.equal s1 s4);
  Alcotest.(check (list (pair string int))) "jobs=4 totals equal jobs=1" t1 t4

(* ---- exact per-kind totals ----------------------------------------------- *)

(* A seeded replay of the [small_cfg] workload.  With [fail_scheme], every
   25th scenario item repairs the previous failure and fails the edge the
   most primaries cross: the scheme's recovery runs, and the connections
   it leaves unprotected join the manager's reprotection queue. *)
let seeded_run ?fail_scheme ~route () =
  let graph = Config.make_graph small_cfg ~avg_degree:3.0 in
  let scenario = Config.make_scenario small_cfg Config.UT ~lambda:0.4 in
  let manager =
    Manager.create ~graph ~capacity:small_cfg.Config.capacity
      ~spare_policy:Net_state.Multiplexed ~route
  in
  let state = Manager.state manager in
  let failed = ref None in
  Array.iteri
    (fun i (item : Scenario.item) ->
      Manager.apply manager item;
      match fail_scheme with
      | Some scheme when i mod 25 = 24 ->
          let now = item.Scenario.time in
          Option.iter
            (fun edge ->
              Net_state.restore_edge state ~edge;
              ignore (Manager.drain_reprotect manager ~now))
            !failed;
          let crossing e =
            List.length (Net_state.primaries_crossing_edge state e)
          in
          let edge = ref 0 in
          for e = 1 to Dr_topo.Graph.edge_count graph - 1 do
            if crossing e > crossing !edge then edge := e
          done;
          let edge = !edge in
          let report = Recovery.fail_edge_drtp state ~scheme ~edge () in
          List.iter
            (fun id -> Manager.queue_reprotect manager ~id ~scheme ~now ())
            report.Recovery.unprotected_ids;
          failed := Some edge
      | _ -> ())
    (Scenario.items scenario);
  manager

(* Run [f] three ways — into a ring that keeps every event, into a
   64-entry ring that wraps, and inside a 64-entry capture merged into a
   coordinator — and return its result with the totals, which must agree
   across all three. *)
let totals_three_ways f =
  scoped @@ fun () ->
  let whole = J.create ~capacity:(1 lsl 20) () in
  let v = J.with_buffer whole f in
  let small = J.create ~capacity:64 () in
  ignore (J.with_buffer small f);
  let coordinator = J.create ~capacity:64 () in
  let _, captured = J.capture ~capacity:64 f in
  J.merge coordinator captured;
  Alcotest.(check int) "large ring kept every event" 0 (J.dropped whole);
  Alcotest.(check bool) "small ring wrapped" true (J.dropped small > 0);
  Alcotest.(check bool) "capture ring wrapped" true
    (match J.captured_entries captured with
    | { J.event = J.Ring_dropped _; _ } :: _ -> true
    | _ -> false);
  let totals = J.totals whole in
  Alcotest.(check (list (pair string int))) "wrapping ring: same totals" totals
    (J.totals small);
  Alcotest.(check (list (pair string int))) "merged capture: same totals"
    totals (J.totals coordinator);
  Alcotest.(check int) "kept events are exactly the totals" (J.recorded whole)
    (List.fold_left (fun n (_, c) -> n + c) 0 totals);
  (v, fun kind -> List.assoc kind totals)

let check_admission_totals total manager =
  let s = Manager.stats manager in
  Alcotest.(check bool) "workload is non-trivial" true (s.Manager.requests > 0);
  Alcotest.(check int) "request = requests" s.Manager.requests (total "request");
  Alcotest.(check int) "admitted = accepted" s.Manager.accepted
    (total "admitted");
  Alcotest.(check int) "rejected = no-primary + no-backup"
    (s.Manager.rejected_no_primary + s.Manager.rejected_no_backup)
    (total "rejected");
  Alcotest.(check int) "reprotect-queued = queued"
    (Manager.reprotect_stats manager).Manager.queued
    (total "reprotect-queued")

let test_totals_with_failures () =
  let manager, total =
    totals_three_ways
      (seeded_run ~fail_scheme:Routing.Dlsr
         ~route:(Routing.link_state_route_fn Routing.Dlsr ~with_backup:true))
  in
  check_admission_totals total manager;
  Alcotest.(check bool) "failures left connections to reprotect" true
    (total "reprotect-queued" > 0);
  Alcotest.(check bool) "backups were activated" true
    (total "backup-activated" > 0)

let test_totals_under_bf () =
  let run () =
    let graph = Config.make_graph small_cfg ~avg_degree:3.0 in
    let stats = Bounded_flood.fresh_stats () in
    let route =
      Bounded_flood.route_fn
        ~config:{ Bounded_flood.default_config with Bounded_flood.cdp_cap = 40 }
        ~stats
        ~hop_matrix:(Dr_topo.Shortest_path.hop_matrix graph)
        ()
    in
    (seeded_run ~route (), stats)
  in
  let (manager, stats), total = totals_three_ways run in
  check_admission_totals total manager;
  Alcotest.(check int) "flood-done = floods" stats.Bounded_flood.floods
    (total "flood-done");
  Alcotest.(check int) "flood-truncated = truncated floods"
    stats.Bounded_flood.truncated_floods (total "flood-truncated");
  Alcotest.(check bool) "some floods were truncated" true
    (stats.Bounded_flood.truncated_floods > 0)

(* ---- observer neutrality -------------------------------------------------- *)

(* Recording must never steer the simulation: the same replay with the
   journal off and on (into a ring small enough to wrap) measures the
   same. *)
let test_runner_neutral () =
  Array.iter
    (fun (graph, scenario, scheme) ->
      let run () = Runner.run small_cfg ~graph ~scenario ~scheme in
      let off = run () in
      let ring = J.create ~capacity:64 () in
      let on = scoped (fun () -> J.with_buffer ring run) in
      Alcotest.(check bool) "ring wrapped" true (J.dropped ring > 0);
      Alcotest.(check bool)
        (Runner.scheme_label scheme ^ ": journal on/off measurements equal")
        true
        (compare off on = 0))
    (Lazy.force sweep_tasks)

let test_serve_neutral () =
  let serve () =
    let graph =
      Dr_topo.Gen.waxman ~rng:(Dr_rng.Splitmix64.create 7) ~n:20
        ~avg_degree:4.0 ()
    in
    Serve.run Test_service.serve_config ~graph ~capacity:12
      ~spare_policy:Net_state.Multiplexed
      ~route:(Test_service.dlsr_route ())
      ~scenario:(Test_service.small_scenario ~seed:42 ~rate:2.0 ~horizon:120.0 20)
  in
  let off = serve () in
  let on = scoped (fun () -> J.with_buffer (J.create ()) serve) in
  Alcotest.(check string) "journal on/off: same report"
    (Format.asprintf "%a" Serve.pp_deterministic off)
    (Format.asprintf "%a" Serve.pp_deterministic on);
  Alcotest.(check string) "journal on/off: same manager digest"
    off.Serve.rp_digest on.Serve.rp_digest

let suite =
  [
    ( "obs.journal",
      [
        Alcotest.test_case "ring bounds and eviction" `Quick test_ring_bounds;
        Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "capture isolates and re-appends" `Quick
          test_capture_isolates;
        Alcotest.test_case "jsonl round-trip, every kind" `Quick
          test_jsonl_round_trip;
        Alcotest.test_case "verdict parts sum bit-exactly" `Quick
          test_verdict_matches_cost;
        Alcotest.test_case "journal byte-identical across jobs" `Slow
          test_jobs_byte_identical;
        Alcotest.test_case "totals exact with link failures" `Quick
          test_totals_with_failures;
        Alcotest.test_case "totals exact under bounded flooding" `Quick
          test_totals_under_bf;
        Alcotest.test_case "runner unaffected by journal on/off" `Slow
          test_runner_neutral;
        Alcotest.test_case "serve unaffected by journal on/off" `Quick
          test_serve_neutral;
      ] );
  ]
