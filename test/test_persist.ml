(* Durability layer: WAL encode/decode/CRC, checkpoint round-trips,
   crash-recovery bit-identity against an uncrashed run (the property the
   CI crash-equivalence gate enforces end-to-end), recovery idempotence,
   crash-schedule determinism, and the reprotect-queue drain-order
   regression across speculation under an active loss plan. *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Gen = Dr_topo.Gen
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module Routing_reference = Drtp.Routing_reference
module Manager = Drtp.Manager
module Dist = Dr_rng.Dist
module Faults = Dr_faults.Faults
module Scenario = Dr_sim.Scenario
module Workload = Dr_sim.Workload
module Rng = Dr_rng.Splitmix64
module J = Dr_obs.Journal
module Crc32 = Dr_persist.Crc32
module Wal = Dr_persist.Wal
module Checkpoint = Dr_persist.Checkpoint
module Persist = Dr_persist.Persist
module State_digest = Dr_persist.State_digest

let property ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let seed_gen = QCheck.int_range 0 1_000_000

(* Fresh WAL/checkpoint paths per test so runs never see stale files. *)
let temp_wal () =
  let path = Filename.temp_file "drtp_wal" ".jsonl" in
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".ckpt"; path ^ ".ckpt.tmp" ]
  in
  (path, cleanup)

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

let make_manager ?(capacity = 8) ~scheme graph =
  Manager.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed
    ~route:(Routing.link_state_route_fn scheme ~with_backup:true)

(* --- CRC-32 ---------------------------------------------------------------- *)

let test_crc32 () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int) "known vector" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "update composes"
    (Crc32.string "123456789")
    (Crc32.update (Crc32.string "12345") "6789");
  Alcotest.(check bool) "fits 32 bits, non-negative" true
    (let c = Crc32.string "\x00\xff\x80 arbitrary bytes" in
     c >= 0 && c < 1 lsl 32)

(* --- WAL round-trip -------------------------------------------------------- *)

(* One record per op constructor, with awkward floats (subnormal, repeating
   binary fraction, negative zero is excluded by construction — times are
   non-negative). *)
let one_of_each_op =
  [
    Wal.Request { conn = 3; src = 0; dst = 7; bw = 2; duration = 1.0 /. 3.0 };
    Wal.Release { conn = 3 };
    Wal.Fail_edge { edge = 11 };
    Wal.Restore_edge { edge = 11 };
    Wal.Fail_group { group = 2 };
    Wal.Restore_group { group = 2 };
    Wal.Promote { conn = 5; index = 1 };
    Wal.Reroute { conn = 5; links = [ 0; 4; 9 ] };
    Wal.Replace_backups { conn = 5; backups = [ [ 1; 2 ]; [ 3 ] ] };
    Wal.Queue_reprotect { conn = 5; scheme = "D-LSR"; count = 2 };
    Wal.Drain_reprotect;
  ]

let test_wal_round_trip () =
  List.iteri
    (fun i op ->
      let r = { Wal.seq = i + 1; time = 0.1 *. float_of_int i; op } in
      let line = Wal.encode r in
      match Wal.decode line with
      | Error msg -> Alcotest.failf "%s rejected: %s" (Wal.op_name op) msg
      | Ok r' ->
          Alcotest.(check int) "seq" r.Wal.seq r'.Wal.seq;
          Alcotest.(check (float 0.0)) "time bit-exact" r.Wal.time r'.Wal.time;
          Alcotest.(check bool)
            (Wal.op_name op ^ " round-trips")
            true (r.Wal.op = r'.Wal.op))
    one_of_each_op;
  (* Subnormal and huge times survive the hex encoding bit-exactly. *)
  List.iter
    (fun t ->
      let r = { Wal.seq = 1; time = t; op = Wal.Drain_reprotect } in
      match Wal.decode (Wal.encode r) with
      | Ok r' ->
          Alcotest.(check bool) "time bits identical" true
            (Int64.bits_of_float t = Int64.bits_of_float r'.Wal.time)
      | Error msg -> Alcotest.failf "time %h rejected: %s" t msg)
    [ 0.0; 4.9e-324; 1e300; 12345.6789 ]

let test_wal_corruption_rejected () =
  let r =
    {
      Wal.seq = 7;
      time = 2.5;
      op = Wal.Request { conn = 1; src = 0; dst = 3; bw = 1; duration = 9.0 };
    }
  in
  let line = Wal.encode r in
  (* Flip one payload byte: the CRC must catch it. *)
  let flipped = Bytes.of_string line in
  Bytes.set flipped 10 (Char.chr (Char.code (Bytes.get flipped 10) lxor 1));
  Alcotest.(check bool) "flipped byte rejected" true
    (Result.is_error (Wal.decode (Bytes.to_string flipped)));
  (* A torn tail (truncated write) must be rejected, not replayed. *)
  Alcotest.(check bool) "torn line rejected" true
    (Result.is_error (Wal.decode (String.sub line 0 (String.length line - 4))));
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Wal.decode "{not json"))

let test_wal_load () =
  let path, cleanup = temp_wal () in
  Fun.protect ~finally:cleanup @@ fun () ->
  Alcotest.(check bool) "missing file is an empty log" true
    (Wal.load "/nonexistent/drtp.wal" = Ok []);
  let recs =
    List.mapi
      (fun i op -> { Wal.seq = i + 1; time = float_of_int i; op })
      one_of_each_op
  in
  let oc = open_out path in
  List.iter (fun r -> output_string oc (Wal.encode r ^ "\n")) recs;
  close_out oc;
  (match Wal.load path with
  | Error msg -> Alcotest.failf "load rejected a good log: %s" msg
  | Ok got ->
      Alcotest.(check int) "all records" (List.length recs) (List.length got);
      Alcotest.(check bool) "records identical" true (got = recs));
  (* Duplicate (non-increasing) sequence numbers are corruption. *)
  let oc = open_out path in
  output_string oc
    (Wal.encode { Wal.seq = 4; time = 0.0; op = Wal.Drain_reprotect } ^ "\n");
  output_string oc
    (Wal.encode { Wal.seq = 4; time = 1.0; op = Wal.Drain_reprotect } ^ "\n");
  close_out oc;
  Alcotest.(check bool) "non-increasing seq rejected" true
    (Result.is_error (Wal.load path))

(* --- checkpoint round-trip ------------------------------------------------- *)

let test_checkpoint_round_trip () =
  let rng = Rng.create 17 in
  let graph = Gen.waxman ~rng ~n:16 ~avg_degree:4.0 () in
  let m = make_manager ~scheme:Routing.Dlsr graph in
  (* A non-trivial state: admissions, releases, a failed edge, a waiting
     reprotect entry. *)
  let scenario = small_scenario ~seed:71 ~rate:1.0 ~horizon:80.0 16 in
  Scenario.iter scenario (fun it -> Manager.apply m it);
  Net_state.fail_edge (Manager.state m) ~edge:0;
  Net_state.iter_conns (Manager.state m) (fun c ->
      if c.Net_state.backups = [] then
        Manager.queue_reprotect m ~id:c.Net_state.id ~scheme:Routing.Dlsr
          ~now:90.0 ());
  let path, cleanup = temp_wal () in
  Fun.protect ~finally:cleanup @@ fun () ->
  let ck =
    { Checkpoint.ck_wal_seq = 42; ck_time = 90.5; ck_repr = Manager.Serial.dump m }
  in
  let bytes = Checkpoint.save path ck in
  Alcotest.(check bool) "bytes counted" true (bytes > 0);
  match Checkpoint.load path with
  | Error msg -> Alcotest.failf "checkpoint rejected: %s" msg
  | Ok None -> Alcotest.fail "checkpoint file vanished"
  | Ok (Some ck') ->
      Alcotest.(check int) "wal seq" 42 ck'.Checkpoint.ck_wal_seq;
      Alcotest.(check (float 0.0)) "time bit-exact" 90.5 ck'.Checkpoint.ck_time;
      let fresh = make_manager ~scheme:Routing.Dlsr graph in
      Manager.Serial.restore fresh ck'.Checkpoint.ck_repr;
      Alcotest.(check string) "restored manager is bit-identical"
        (State_digest.manager_digest graph m)
        (State_digest.manager_digest graph fresh);
      Alcotest.(check int) "reprotect queue survives"
        (Manager.reprotect_pending m)
        (Manager.reprotect_pending fresh);
      Alcotest.(check bool) "invariants hold" true
        (Net_state.check_invariants (Manager.state fresh) = Ok ());
      Alcotest.(check bool) "caches consistent" true
        (Net_state.check_routing_caches (Manager.state fresh) = Ok ())

let test_checkpoint_load_missing () =
  Alcotest.(check bool) "missing checkpoint is None" true
    (Checkpoint.load "/nonexistent/drtp.ckpt" = Ok None)

(* --- crash-recovery bit-identity ------------------------------------------- *)

(* Drive the same scenario twice: once straight through a manager, once
   write-ahead-logged with the manager killed and recovered at every
   scheduled crash point.  The final full-state digests must be equal —
   the in-process version of the CI crash-equivalence gate. *)
let crash_recovery_bit_identity scheme =
  let rng = Rng.create 7 in
  let graph = Gen.waxman ~rng ~n:16 ~avg_degree:4.0 () in
  let scenario = small_scenario ~seed:505 ~rate:1.5 ~horizon:150.0 16 in
  let mk () = make_manager ~scheme graph in
  let baseline = mk () in
  Scenario.iter scenario (fun it -> Manager.apply baseline it);
  let want = State_digest.manager_digest graph baseline in
  let path, cleanup = temp_wal () in
  Fun.protect ~finally:cleanup @@ fun () ->
  let cfg =
    { (Persist.default_config ~wal_path:path) with Persist.checkpoint_every = 32 }
  in
  let crash_at =
    Faults.crash_schedule ~seed:3 ~mean_gap:40.0 ~count:4
      ~horizon:(Scenario.length scenario) ()
  in
  Alcotest.(check bool) "at least 3 crash points" true
    (List.length crash_at >= 3);
  let m = ref (mk ()) and p = ref (Persist.create cfg) in
  let ord = ref 0 and crashes = ref 0 in
  Scenario.iter scenario (fun it ->
      incr ord;
      Persist.append !p ~manager:!m ~time:it.Scenario.time
        (Wal.op_of_event it.Scenario.event);
      Manager.apply !m it;
      if List.mem !ord crash_at then begin
        incr crashes;
        Persist.close !p;
        let fresh = mk () in
        match Persist.recover cfg ~manager:fresh with
        | Error msg -> Alcotest.failf "recovery %d failed: %s" !crashes msg
        | Ok rv ->
            m := fresh;
            p := Persist.resume cfg rv
      end);
  Persist.close !p;
  Alcotest.(check int) "every crash point fired" (List.length crash_at) !crashes;
  Alcotest.(check bool) "invariants hold after recovery" true
    (Net_state.check_invariants (Manager.state !m) = Ok ());
  Alcotest.(check bool) "caches consistent after recovery" true
    (Net_state.check_routing_caches (Manager.state !m) = Ok ());
  (* The fast routing path must agree with the reference oracle on the
     recovered state — a mirror rebuilt wrong by replay would route
     differently here even if the digest matched. *)
  let state = Manager.state !m in
  let n = Graph.node_count graph in
  let orng = Rng.create 99 in
  for _ = 1 to 8 do
    let src, dst = Dist.pick_distinct_pair orng n in
    let bw = Dist.uniform_int orng ~lo:1 ~hi:2 in
    let links = Option.map Path.links in
    let fast = Routing.find_primary state ~src ~dst ~bw in
    let oracle = Routing_reference.find_primary state ~src ~dst ~bw in
    if links fast <> links oracle then
      Alcotest.fail "primary fast<>oracle on recovered state";
    match fast with
    | None -> ()
    | Some primary ->
        let fb = Routing.find_backups scheme state ~primary ~bw ~count:2 in
        let ob = Routing_reference.find_backups scheme state ~primary ~bw ~count:2 in
        if List.map Path.links fb <> List.map Path.links ob then
          Alcotest.fail "backups fast<>oracle on recovered state"
  done;
  Alcotest.(check string)
    (Routing.scheme_name scheme ^ ": crashed run is bit-identical")
    want
    (State_digest.manager_digest graph !m)

let test_crash_recovery_plsr () = crash_recovery_bit_identity Routing.Plsr
let test_crash_recovery_dlsr () = crash_recovery_bit_identity Routing.Dlsr

(* --- recovery idempotence (qcheck) ----------------------------------------- *)

(* Recovering from the same checkpoint + WAL tail is a pure function of
   the files: doing it twice — or into two different fresh managers —
   lands on the same digest as doing it once, which also equals the live
   manager's digest at the moment of the crash. *)
let prop_recover_idempotent =
  property ~count:12 "recover twice = recover once = live digest"
    QCheck.(pair seed_gen (int_range 0 2))
    (fun (seed, ck_mode) ->
      let rng = Rng.create (seed lxor 0x9e37) in
      let graph = Gen.waxman ~rng ~n:12 ~avg_degree:3.5 () in
      let scenario =
        small_scenario ~seed:(seed + 1) ~rate:1.0 ~horizon:60.0 12
      in
      let mk () = make_manager ~capacity:6 ~scheme:Routing.Dlsr graph in
      let path, cleanup = temp_wal () in
      Fun.protect ~finally:cleanup @@ fun () ->
      let cfg =
        {
          (Persist.default_config ~wal_path:path) with
          Persist.checkpoint_every = [| 0; 8; 32 |].(ck_mode);
        }
      in
      let m = mk () in
      let p = Persist.create cfg in
      Scenario.iter scenario (fun it ->
          Persist.append p ~manager:m ~time:it.Scenario.time
            (Wal.op_of_event it.Scenario.event);
          Manager.apply m it);
      Persist.close p;
      let live = State_digest.manager_digest graph m in
      let once = mk () and twice = mk () in
      (match Persist.recover cfg ~manager:once with
      | Error msg -> QCheck.Test.fail_reportf "first recover failed: %s" msg
      | Ok _ -> ());
      (match Persist.recover cfg ~manager:twice with
      | Error msg -> QCheck.Test.fail_reportf "second recover failed: %s" msg
      | Ok _ -> ());
      let d1 = State_digest.manager_digest graph once in
      let d2 = State_digest.manager_digest graph twice in
      if d1 <> d2 then QCheck.Test.fail_report "recover is not idempotent";
      if d1 <> live then
        QCheck.Test.fail_report "recovered digest differs from live";
      true)

(* --- persist handle mechanics ---------------------------------------------- *)

let test_auto_checkpoint_truncates () =
  let rng = Rng.create 23 in
  let graph = Gen.waxman ~rng ~n:12 ~avg_degree:3.5 () in
  let m = make_manager ~capacity:6 ~scheme:Routing.Dlsr graph in
  let path, cleanup = temp_wal () in
  Fun.protect ~finally:cleanup @@ fun () ->
  let cfg =
    { (Persist.default_config ~wal_path:path) with Persist.checkpoint_every = 5 }
  in
  let p = Persist.create cfg in
  let scenario = small_scenario ~seed:91 ~rate:1.0 ~horizon:60.0 12 in
  Scenario.iter scenario (fun it ->
      Persist.append p ~manager:m ~time:it.Scenario.time
        (Wal.op_of_event it.Scenario.event);
      Manager.apply m it);
  Persist.close p;
  Alcotest.(check bool) "checkpoints happened" true (Persist.checkpoints p > 1);
  Alcotest.(check bool) "wal seq monotone across truncation" true
    (Persist.wal_seq p = Scenario.length scenario);
  (* After truncation the on-disk tail only holds records past the
     checkpoint — never more than checkpoint_every + the final partial
     stretch. *)
  (match Wal.load path with
  | Error msg -> Alcotest.failf "tail unreadable: %s" msg
  | Ok tail ->
      Alcotest.(check int) "tail length = seq - checkpoint seq"
        (Persist.wal_seq p - Persist.checkpoint_seq p)
        (List.length tail);
      List.iter
        (fun (r : Wal.record) ->
          if r.Wal.seq <= Persist.checkpoint_seq p then
            Alcotest.failf "record %d survived truncation" r.Wal.seq)
        tail);
  (* The checkpoint on disk agrees with the handle's accounting. *)
  match Checkpoint.load cfg.Persist.checkpoint_path with
  | Ok (Some ck) ->
      Alcotest.(check int) "checkpoint covers the recorded seq"
        (Persist.checkpoint_seq p) ck.Checkpoint.ck_wal_seq
  | Ok None -> Alcotest.fail "no checkpoint on disk"
  | Error msg -> Alcotest.failf "checkpoint unreadable: %s" msg

(* --- crash schedules ------------------------------------------------------- *)

let test_crash_schedule () =
  let a = Faults.crash_schedule ~seed:5 ~mean_gap:10.0 ~horizon:200 () in
  let b = Faults.crash_schedule ~seed:5 ~mean_gap:10.0 ~horizon:200 () in
  Alcotest.(check bool) "deterministic" true (a = b);
  Alcotest.(check bool) "non-empty at this density" true (a <> []);
  let rec increasing = function
    | x :: (y :: _ as rest) -> x < y && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing" true (increasing a);
  List.iter
    (fun i ->
      if i < 1 || i > 200 then Alcotest.failf "crash point %d out of range" i)
    a;
  let capped = Faults.crash_schedule ~seed:5 ~mean_gap:10.0 ~count:3 ~horizon:200 () in
  Alcotest.(check bool) "count cap respected" true (List.length capped <= 3);
  Alcotest.(check bool) "cap is a prefix" true
    (capped = List.filteri (fun i _ -> i < 3) a);
  Alcotest.(check int) "empty horizon, empty schedule" 0
    (List.length (Faults.crash_schedule ~seed:5 ~mean_gap:10.0 ~horizon:0 ()));
  Alcotest.check_raises "mean_gap < 1 rejected"
    (Invalid_argument "Faults.crash_schedule: mean_gap must be >= 1") (fun () ->
      ignore (Faults.crash_schedule ~seed:5 ~mean_gap:0.5 ~horizon:10 ()))

(* --- reprotect drain order across speculation under loss ------------------ *)

(* Regression: a manager speculation saves the reprotect queue (immutable
   entries), so a drain inside a speculation and a real drain after it
   must walk the entries in the same FIFO order and land on the same state
   — even when the replacement-backup search is gated by an active
   message-loss plan (pinned seed, re-created before each drain so the
   loss draws are reproducible). *)
let test_reprotect_drain_order_survives_speculation () =
  let graph = Gen.mesh ~rows:4 ~cols:4 in
  let m = make_manager ~capacity:4 ~scheme:Routing.Dlsr graph in
  let st = Manager.state m in
  (* Six backup-less connections admitted in a pinned order. *)
  let routes =
    [
      (1, [ 0; 1; 2 ]); (2, [ 12; 13; 14 ]); (3, [ 0; 4; 8 ]);
      (4, [ 3; 7; 11 ]); (5, [ 12; 8; 9 ]); (6, [ 2; 6; 10 ]);
    ]
  in
  List.iter
    (fun (id, nodes) ->
      ignore
        (Net_state.admit st ~id ~bw:1 ~primary:(Path.of_nodes graph nodes)
           ~backups:[]
          : Net_state.conn))
    routes;
  List.iter
    (fun (id, _) ->
      Manager.queue_reprotect m ~id ~scheme:Routing.Dlsr
        ~now:(float_of_int id) ())
    routes;
  Alcotest.(check int) "all six queued" 6 (Manager.reprotect_pending m);
  (* A lossy reprotect router: each search first draws a delivery for its
     "reprotect request" from the plan; a drop means the search fails this
     round (the entry stays queued). *)
  let drain_with_pinned_losses () =
    let faults = Faults.create ~seed:29 (Faults.uniform_spec 0.5) in
    Manager.set_reprotect_router m (fun scheme state ~primary ~bw ~existing ~count ->
        if not (Faults.deliver faults Faults.Report) then []
        else
          Manager.default_reprotect_router scheme state ~primary ~bw ~existing
            ~count);
    let buf = J.create () in
    J.set_enabled true;
    let drained =
      Fun.protect
        (fun () -> J.with_buffer buf (fun () -> Manager.drain_reprotect m ~now:20.0))
        ~finally:(fun () ->
          J.set_enabled false;
          J.clear (J.current ()))
    in
    let order =
      List.filter_map
        (fun (e : J.entry) ->
          match e.J.event with
          | J.Reprotected { conn; _ } -> Some conn
          | _ -> None)
        (J.entries buf)
    in
    (drained, order, State_digest.manager_digest graph m)
  in
  let before = State_digest.manager_digest graph m in
  let d1, o1, dig1 = Manager.speculate m drain_with_pinned_losses in
  Alcotest.(check int) "speculation restores the queue" 6
    (Manager.reprotect_pending m);
  Alcotest.(check string) "speculation restores the state" before
    (State_digest.manager_digest graph m);
  let d2, o2, dig2 = drain_with_pinned_losses () in
  (* The pinned loss plan must actually bite: some entries drain, some are
     held back by a dropped search. *)
  Alcotest.(check bool) "losses split the queue" true
    (d1 > 0 && Manager.reprotect_pending m > 0);
  Alcotest.(check int) "same drained count" d1 d2;
  Alcotest.(check (list int)) "same drain order" o1 o2;
  Alcotest.(check string) "same end state" dig1 dig2;
  Alcotest.(check bool) "invariants hold" true
    (Net_state.check_invariants st = Ok ())

let suite =
  [
    ( "persist.wal",
      [
        Alcotest.test_case "crc32 vectors" `Quick test_crc32;
        Alcotest.test_case "op round-trip" `Quick test_wal_round_trip;
        Alcotest.test_case "corruption rejected" `Quick
          test_wal_corruption_rejected;
        Alcotest.test_case "log load" `Quick test_wal_load;
      ] );
    ( "persist.checkpoint",
      [
        Alcotest.test_case "manager round-trip" `Quick
          test_checkpoint_round_trip;
        Alcotest.test_case "missing file" `Quick test_checkpoint_load_missing;
        Alcotest.test_case "auto-checkpoint truncates the WAL" `Quick
          test_auto_checkpoint_truncates;
      ] );
    ( "persist.recovery",
      [
        Alcotest.test_case "crash bit-identity (P-LSR)" `Quick
          test_crash_recovery_plsr;
        Alcotest.test_case "crash bit-identity (D-LSR)" `Quick
          test_crash_recovery_dlsr;
        prop_recover_idempotent;
        Alcotest.test_case "crash schedule" `Quick test_crash_schedule;
        Alcotest.test_case "reprotect drain order survives speculation" `Quick
          test_reprotect_drain_order_survives_speculation;
      ] );
  ]
