(* The trace assembler and critical-path analyser over causal spans.

   The load-bearing gates: (1) for every complete trace the left-folded
   phase durations equal the root's journalled end-to-end duration
   bit-for-bit — the contract that makes the critical-path tables a true
   decomposition of the recovery latencies the journal reports; (2) the
   assembler is deterministic (same seed, same journal, same report);
   (3) structural damage is detected, and ring-overwrite incompleteness
   is a warning rather than an error because the journal announces the
   loss itself; (4) the pinned seed-42 crankback walk assembles into the
   exact attempt -> attempt causal chain the sharded handshake executes. *)

module J = Dr_obs.Journal
module C = J.Causal
module Trace = Dr_trace.Trace
module Graph = Dr_topo.Graph
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module Recovery = Drtp.Recovery
module Faults = Dr_faults.Faults
module Scenario = Dr_sim.Scenario
module Partition = Dr_shard.Partition
module Shard_sim = Dr_shard.Shard_sim
module Rng = Dr_rng.Splitmix64

let property ?(count = 60) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let seed_gen = QCheck.int_range 0 1_000_000

(* Every test leaves the journal global state as it found it. *)
let scoped f =
  J.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      J.set_enabled false;
      J.clear (J.current ()))

let bits = Int64.bits_of_float

(* --- hand-built journals: assembly and analysis --------------------------- *)

let hand_jsonl () =
  let buf = J.create () in
  J.with_buffer buf (fun () ->
      C.reset ~seed:7;
      J.set_now 1.0;
      let root = C.root ~conn:9 ~t0:1.0 "recovery" in
      C.leaf ~conn:9 ~t0:1.0 ~dur:0.01 ~parent:root "detect";
      let rep = C.child ~conn:9 ~t0:1.01 ~parent:root "report" in
      C.leaf ~conn:9 ~t0:1.01 ~dur:0.1 ~parent:rep "retransmit-wait";
      C.close rep ~dur:0.102;
      C.leaf ~conn:9 ~t0:1.112 ~dur:0.005 ~parent:root "activate";
      C.close root ~dur:(0.01 +. 0.102 +. 0.005));
  J.to_jsonl_string buf

let test_assemble_basic () =
  scoped @@ fun () ->
  let t = Trace.of_string (hand_jsonl ()) in
  Alcotest.(check int) "no parse errors" 0 (List.length (Trace.parse_errors t));
  Alcotest.(check int) "one trace" 1 (List.length (Trace.traces t));
  Alcotest.(check int) "five spans" 5 (Trace.span_count t);
  let tr = List.hd (Trace.traces t) in
  Alcotest.(check bool) "complete" true (Trace.complete tr);
  let root = Option.get (Trace.root tr) in
  Alcotest.(check string) "root phase" "recovery" root.Trace.sp_phase;
  Alcotest.(check int) "root conn" 9 root.Trace.sp_conn;
  Alcotest.(check (list string)) "phases in emission order"
    [ "detect"; "report"; "activate" ]
    (List.map (fun s -> s.Trace.sp_phase) (Trace.phases tr));
  Alcotest.(check bool) "phase sum bit-exact" true
    (bits (Trace.phase_sum tr) = bits root.Trace.sp_dur);
  Alcotest.(check (list string)) "critical path descends into report"
    [ "recovery"; "report"; "retransmit-wait" ]
    (List.map (fun s -> s.Trace.sp_phase) (Trace.critical_path tr));
  Alcotest.(check (list string)) "structurally sound" [] (Trace.check t)

let test_check_detects_damage () =
  scoped @@ fun () ->
  let lines = String.split_on_char '\n' (String.trim (hand_jsonl ())) in
  (* Drop the root's span-open (the first span line): dangling parents and
     a rootless trace — hard errors on a lossless journal... *)
  let is_root_open l =
    Astring.String.is_infix ~affix:"span-open" l
    && Astring.String.is_infix ~affix:{|"phase":"recovery"|} l
  in
  let damaged = List.filter (fun l -> not (is_root_open l)) lines in
  let t = Trace.of_string (String.concat "\n" damaged ^ "\n") in
  let issues = Trace.check t in
  Alcotest.(check bool) "damage reported" true (issues <> []);
  Alcotest.(check bool) "as errors" true (List.exists Trace.is_error issues);
  (* ... but the same loss under an announced ring overwrite is a
     warning: the journal said it dropped entries. *)
  let announced = {|{"seq":0,"t":0,"kind":"ring-dropped","count":3}|} in
  let t' =
    Trace.of_string (announced ^ "\n" ^ String.concat "\n" damaged ^ "\n")
  in
  Alcotest.(check int) "overwrite count surfaced" 3 (Trace.ring_dropped t');
  let issues' = Trace.check t' in
  Alcotest.(check bool) "still reported" true (issues' <> []);
  Alcotest.(check bool) "downgraded to warnings" false
    (List.exists Trace.is_error issues');
  (* A duplicate span id is structural damage no overwrite can excuse. *)
  let span_lines =
    List.filter (fun l -> Astring.String.is_infix ~affix:"span-open" l) lines
  in
  let dup =
    Trace.of_string
      (announced ^ "\n"
      ^ String.concat "\n" (lines @ [ List.hd span_lines ])
      ^ "\n")
  in
  Alcotest.(check bool) "duplicate span id stays an error" true
    (List.exists Trace.is_error (Trace.check dup))

let test_perfetto_json () =
  scoped @@ fun () ->
  let t = Trace.of_string (hand_jsonl ()) in
  let file = Filename.temp_file "drtp_test_perfetto" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      Trace.write_perfetto t oc;
      close_out oc;
      let ic = open_in_bin file in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match J.json_of_string text with
      | Error msg -> Alcotest.failf "perfetto output is not JSON: %s" msg
      | Ok json -> (
          match J.mem "traceEvents" json with
          | Some (J.Arr events) ->
              (* 5 complete "X" events + 1 thread-name metadata row + 2
                 flow events for the one cause edge. *)
              Alcotest.(check bool) "has events" true (List.length events >= 6)
          | _ -> Alcotest.fail "missing traceEvents array"))

let test_deterministic_assembly () =
  scoped @@ fun () ->
  let report_of jsonl =
    let t = Trace.of_string jsonl in
    Format.asprintf "%a" (Trace.report ~top:3) t
  in
  let a = hand_jsonl () in
  let b = hand_jsonl () in
  Alcotest.(check string) "same seed, same journal bytes" a b;
  Alcotest.(check string) "same report" (report_of a) (report_of b)

(* --- the bit-exactness property over random fault scenarios ---------------- *)

(* Admit a handful of routed connections on a mesh, then play random
   failures forward — lossy signalling, retransmission backoff, chain
   failovers, reactive fallbacks — and require every complete trace's
   phase durations to fold (left-associated, emission order) to exactly
   the root's journalled end-to-end duration. *)
let random_recovery_jsonl seed =
  let rng = Rng.create seed in
  let g = Dr_topo.Gen.mesh ~rows:3 ~cols:3 in
  let st =
    Net_state.create ~graph:g
      ~capacity:(2 + Rng.int rng 6)
      ~spare_policy:Net_state.Multiplexed
  in
  let n = Graph.node_count g in
  let route = Routing.link_state_route_fn Routing.Dlsr ~with_backup:true in
  let id = ref 0 in
  for _ = 1 to 4 + Rng.int rng 8 do
    let src = Rng.int rng n in
    let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
    match route st ~src ~dst ~bw:1 with
    | Ok { Routing.primary; backups } ->
        incr id;
        ignore (Net_state.admit st ~id:!id ~bw:1 ~primary ~backups)
    | Error _ -> ()
  done;
  let buf = J.create () in
  J.with_buffer buf (fun () ->
      C.reset ~seed;
      let loss = 0.5 *. Rng.float rng 1.0 in
      let faults = Faults.create ~seed:(seed + 1) (Faults.uniform_spec loss) in
      let edges = Graph.edge_count g in
      for k = 1 to 1 + Rng.int rng 3 do
        J.set_now (10.0 *. float_of_int k);
        let e = Rng.int rng edges in
        if not (Net_state.edge_failed st ~edge:e) then
          if Rng.bool rng then
            ignore
              (Recovery.fail_edge_drtp st ~scheme:Routing.Dlsr ~faults ~edge:e ())
          else
            ignore (Recovery.fail_edge_reactive st ~edge:e ())
      done);
  J.to_jsonl_string buf

let prop_phase_sum_bit_exact =
  property ~count:80 "phase durations fold bit-exactly to the root duration"
    seed_gen (fun seed ->
      scoped @@ fun () ->
      let t = Trace.of_string (random_recovery_jsonl seed) in
      if Trace.parse_errors t <> [] then
        QCheck.Test.fail_report "parse errors in generated journal";
      if List.exists Trace.is_error (Trace.check t) then
        QCheck.Test.fail_report "structural errors in generated journal";
      List.iter
        (fun tr ->
          if not (Trace.complete tr) then
            QCheck.Test.fail_report "incomplete trace without ring overwrite";
          let root = Option.get (Trace.root tr) in
          if Trace.phases tr <> [] && bits (Trace.phase_sum tr) <> bits root.Trace.sp_dur
          then
            QCheck.Test.fail_reportf
              "trace %012x (%s): phases fold to %.17g but root closed at %.17g"
              (Trace.trace_id tr) root.Trace.sp_phase (Trace.phase_sum tr)
              root.Trace.sp_dur)
        (Trace.traces t);
      true)

(* --- pinned seed-42 regression: crankback-dominated shard traces ----------- *)

(* The same pinned 6-node walk as [Test_shard.test_pinned_crankback]:
   conn 2 routes on a stale view, is rejected against ground truth, and
   cranks back onto the detour.  Its trace must assemble as a root with
   two attempt phases, the second cause-chained to the first, carrying a
   stale-decision marker — and the phase fold must still be bit-exact. *)
let test_seed42_crankback_trace () =
  scoped @@ fun () ->
  let graph =
    Graph.create ~node_count:6
      ~edges:[ (4, 0); (0, 1); (1, 3); (0, 2); (2, 5); (5, 3) ]
  in
  let partition = Partition.of_regions graph [| 0; 0; 0; 0; 1; 0 |] in
  let scenario =
    Scenario.of_items
      [
        {
          Scenario.time = 1.0;
          event =
            Scenario.Request { conn = 1; src = 0; dst = 3; bw = 1; duration = 100.0 };
        };
        {
          Scenario.time = 2.0;
          event =
            Scenario.Request { conn = 2; src = 4; dst = 3; bw = 1; duration = 100.0 };
        };
      ]
  in
  let config =
    {
      Shard_sim.default_config with
      Shard_sim.scheme = Routing.Dlsr;
      backup_count = 0;
      lsa_interval = 0.0;
      lsa_refresh = 0.0;
      lsa_flood_delay = 0.0;
      max_retries = 1;
      faults =
        Some (Faults.create ~seed:1 { Faults.zero_spec with Faults.p_lsa = 1.0 });
    }
  in
  let (), captured =
    J.capture ~trace_seed:42 (fun () ->
        ignore
          (Shard_sim.run ~config ~partition ~graph ~capacity:1 ~scenario
             ~warmup:0.0 ~horizon:10.0 ~sample_every:5.0 ()))
  in
  let buf = J.create () in
  J.merge buf captured;
  let t = Trace.of_string (J.to_jsonl_string buf) in
  Alcotest.(check (list string)) "structurally sound" [] (Trace.check t);
  let setups =
    List.filter
      (fun tr ->
        match Trace.root tr with
        | Some r -> r.Trace.sp_phase = "shard-setup"
        | None -> false)
      (Trace.traces t)
  in
  Alcotest.(check int) "one trace per request" 2 (List.length setups);
  let conn_of tr = (Option.get (Trace.root tr)).Trace.sp_conn in
  let tr1 = List.find (fun tr -> conn_of tr = 1) setups in
  let tr2 = List.find (fun tr -> conn_of tr = 2) setups in
  (* Conn 1 commits synchronously inside its shard: one instantaneous
     attempt. *)
  Alcotest.(check (list string)) "conn 1: single attempt" [ "attempt" ]
    (List.map (fun s -> s.Trace.sp_phase) (Trace.phases tr1));
  Alcotest.(check bool) "conn 1: instantaneous" true
    ((Option.get (Trace.root tr1)).Trace.sp_dur = 0.0);
  (* Conn 2 is the crankback walk. *)
  (match Trace.phases tr2 with
  | [ a1; a2 ] ->
      Alcotest.(check string) "two attempts" "attempt"
        (a1.Trace.sp_phase ^ "" |> fun s -> s);
      Alcotest.(check string) "second is an attempt" "attempt" a2.Trace.sp_phase;
      Alcotest.(check int) "crankback cause-chained to the failed attempt"
        a1.Trace.sp_id a2.Trace.sp_cause;
      let stale_marks =
        List.filter
          (fun id ->
            match Trace.find_span tr2 id with
            | Some s -> s.Trace.sp_phase = "stale-decision"
            | None -> false)
          a1.Trace.sp_children
      in
      Alcotest.(check int) "first attempt carries the stale-decision mark" 1
        (List.length stale_marks)
  | ps ->
      Alcotest.failf "conn 2: expected 2 attempt phases, got %d" (List.length ps));
  let root2 = Option.get (Trace.root tr2) in
  Alcotest.(check bool) "conn 2: positive end-to-end duration" true
    (root2.Trace.sp_dur > 0.0);
  Alcotest.(check bool) "conn 2: phase fold bit-exact" true
    (bits (Trace.phase_sum tr2) = bits root2.Trace.sp_dur);
  Alcotest.(check (list string)) "conn 2: critical path enters an attempt" []
    (match List.map (fun s -> s.Trace.sp_phase) (Trace.critical_path tr2) with
    | "shard-setup" :: "attempt" :: _ -> []
    | other -> other)

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "assemble: DAG, phases, critical path" `Quick
          test_assemble_basic;
        Alcotest.test_case "check: damage vs announced overwrite" `Quick
          test_check_detects_damage;
        Alcotest.test_case "perfetto export is well-formed JSON" `Quick
          test_perfetto_json;
        Alcotest.test_case "assembly and report are deterministic" `Quick
          test_deterministic_assembly;
        prop_phase_sum_bit_exact;
        Alcotest.test_case "seed-42 pinned crankback trace" `Quick
          test_seed42_crankback_trace;
      ] );
  ]
