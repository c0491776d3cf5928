module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Scenario = Dr_sim.Scenario
module Graph = Dr_topo.Graph
module Sm = Dr_rng.Splitmix64
module Histogram = Dr_stats.Histogram
module J = Dr_obs.Journal
module Persist = Dr_persist.Persist
module Wal = Dr_persist.Wal

type config = {
  sv_batch : int;
  sv_reorder : bool;
  sv_what_if_every : int;
  sv_what_if_burst : int;
  sv_probe_every : int;
  sv_check_every : int;
  sv_bw : int;
  sv_seed : int;
  sv_warmup_frac : float;
  sv_wal : string option;
  sv_checkpoint_every : int;
  sv_wal_sample : int;
  sv_crash_every : int;
  sv_queue_cap : int;
  sv_deadline : float;
  sv_overload_every : int;
  sv_overload_burst : int;
}

let default =
  {
    sv_batch = 32;
    sv_reorder = false;
    sv_what_if_every = 4;
    sv_what_if_burst = 8;
    sv_probe_every = 8;
    sv_check_every = 16;
    sv_bw = 1;
    sv_seed = 42;
    sv_warmup_frac = 0.1;
    sv_wal = None;
    sv_checkpoint_every = 0;
    sv_wal_sample = 32;
    sv_crash_every = 0;
    sv_queue_cap = 0;
    sv_deadline = 0.0;
    sv_overload_every = 0;
    sv_overload_burst = 16;
  }

type report = {
  (* Deterministic: identical for a given (scenario, config) regardless of
     machine speed; printed by pp_deterministic and diffed in CI. *)
  rp_requests : int;
  rp_accepted : int;
  rp_rejected_no_primary : int;
  rp_rejected_no_backup : int;
  rp_releases : int;
  rp_batches : int;
  rp_what_ifs : int;
  rp_what_if_accepted : int;
  rp_fail_probes : int;
  rp_probe_affected : int;
  rp_invariant_checks : int;
  rp_invariant_failures : int;
  rp_final_active : int;
  rp_lat_samples : int;
  rp_shed_queue : int;
  rp_shed_deadline : int;
  rp_overload_injected : int;
  rp_crashes : int;
  rp_replayed : int;
  rp_wal_records : int;
  rp_checkpoints : int;
  rp_digest : string;
  rp_violations : (int * string) list;
      (* invariant violations (batch, message), oldest first — buffered
         here instead of being printed to stderr mid-run, so stdout and
         stderr never interleave and both stay byte-stable (printed by
         pp_deterministic after the run). *)
  (* Wall-clock: machine-dependent; printed by pp_timing, never diffed. *)
  rp_elapsed_s : float;
  rp_requests_per_sec : float;
  rp_lat_p50_us : float;
  rp_lat_p95_us : float;
  rp_lat_p99_us : float;
  rp_alloc_mb : float;
  rp_alloc_kb_per_req : float;
  rp_major_collections : int;
}

let pp_deterministic ppf r =
  Format.fprintf ppf "serve: requests=%d accepted=%d no-primary=%d no-backup=%d@."
    r.rp_requests r.rp_accepted r.rp_rejected_no_primary r.rp_rejected_no_backup;
  Format.fprintf ppf "serve: releases=%d batches=%d final-active=%d@."
    r.rp_releases r.rp_batches r.rp_final_active;
  Format.fprintf ppf "serve: what-ifs=%d what-if-accepted=%d fail-probes=%d probe-affected=%d@."
    r.rp_what_ifs r.rp_what_if_accepted r.rp_fail_probes r.rp_probe_affected;
  Format.fprintf ppf "serve: invariant-checks=%d invariant-failures=%d lat-samples=%d@."
    r.rp_invariant_checks r.rp_invariant_failures r.rp_lat_samples;
  Format.fprintf ppf "serve: digest=%s@." r.rp_digest;
  Format.fprintf ppf
    "serve-shed: shed-queue=%d shed-deadline=%d overload-injected=%d@."
    r.rp_shed_queue r.rp_shed_deadline r.rp_overload_injected;
  Format.fprintf ppf
    "serve-crash: crashes=%d wal-records=%d checkpoints=%d replayed=%d@."
    r.rp_crashes r.rp_wal_records r.rp_checkpoints r.rp_replayed;
  List.iter
    (fun (b, m) -> Format.fprintf ppf "serve: violation batch=%d %s@." b m)
    r.rp_violations

let pp_timing ppf r =
  Format.fprintf ppf
    "serve-timing: elapsed=%.3fs admissions/sec=%.0f@." r.rp_elapsed_s
    r.rp_requests_per_sec;
  Format.fprintf ppf
    "serve-timing: latency p50=%.1fus p95=%.1fus p99=%.1fus@." r.rp_lat_p50_us
    r.rp_lat_p95_us r.rp_lat_p99_us;
  Format.fprintf ppf
    "serve-timing: alloc=%.1fMB (%.2fKB/req) major-collections=%d@."
    r.rp_alloc_mb r.rp_alloc_kb_per_req r.rp_major_collections

let run config ~graph ~capacity ~spare_policy ~route ~scenario =
  if config.sv_crash_every > 0 && config.sv_wal = None then
    invalid_arg "Serve.run: sv_crash_every requires sv_wal";
  (* Refs, not lets: a crash replaces the manager and its service wrapper
     with freshly recovered ones mid-run. *)
  let manager = ref (Manager.create ~graph ~capacity ~spare_policy ~route) in
  let service = ref (Service.create !manager) in
  let persist =
    match config.sv_wal with
    | None -> None
    | Some wal_path ->
        (* checkpoint_every stays 0 in the handle: serve checkpoints at
           batch boundaries only (see after_batch), because flush logs a
           whole batch ahead of applying it — a mid-batch auto-checkpoint
           would claim coverage of ops that have not yet mutated state. *)
        Some
          (ref
             (Persist.create
                {
                  (Persist.default_config ~wal_path) with
                  wal_sample = config.sv_wal_sample;
                }))
  in
  let rng = Sm.create config.sv_seed in
  let nodes = Graph.node_count graph in
  let edges = Graph.edge_count graph in
  let what_ifs_on = config.sv_what_if_every > 0 && config.sv_what_if_burst > 0 in
  let next_probe = ref 900_000_000 in
  let next_synthetic = ref 800_000_000 in
  (* Counters for the deterministic report. *)
  let requests = ref 0 and accepted = ref 0 in
  let no_primary = ref 0 and no_backup = ref 0 in
  let releases = ref 0 and batches = ref 0 in
  let what_ifs = ref 0 and what_if_accepted = ref 0 in
  let fail_probes = ref 0 and probe_affected = ref 0 in
  let inv_checks = ref 0 and inv_failures = ref 0 in
  let shed_queue = ref 0 and shed_deadline = ref 0 in
  let overload_injected = ref 0 in
  let crashes = ref 0 and replayed = ref 0 in
  let wal_records = ref 0 and ckpts = ref 0 in
  let violations = ref [] in
  let latencies = ref [] in
  let sim_now = ref 0.0 in
  (* Each query speculates on the truth service in query order; the
     service records its [what-if] journal event. *)
  let what_if_round () =
    for _ = 1 to config.sv_what_if_burst do
      incr what_ifs;
      let src = Sm.int rng nodes in
      let dst = (src + 1 + Sm.int rng (nodes - 1)) mod nodes in
      let conn = !next_probe in
      incr next_probe;
      match
        Service.what_if_admit ~conn !service ~now:!sim_now ~src ~dst
          ~bw:config.sv_bw
      with
      | Service.Accepted _ -> incr what_if_accepted
      | Service.Rejected _ -> ()
    done
  in
  let probe_round () =
    incr fail_probes;
    let edge = Sm.int rng edges in
    let p = Service.what_if_fail_edge !service ~edge in
    probe_affected := !probe_affected + p.Service.fp_affected
  in
  let check_round () =
    incr inv_checks;
    match Net_state.check_invariants (Manager.state !manager) with
    | Ok () -> ()
    | Error msg ->
        incr inv_failures;
        (* Buffered, not printed: stdout and stderr each stay byte-stable. *)
        violations := (!batches, msg) :: !violations
  in
  let buf = ref [] and nbuf = ref 0 in
  let shed reason rq =
    (match reason with
    | "queue-full" -> incr shed_queue
    | _ -> incr shed_deadline);
    if !J.on then begin
      J.set_now !sim_now;
      J.record
        (J.Request_shed { conn = rq.Batch.rq_conn; reason; queued = !nbuf })
    end
  in
  let enqueue rq =
    if config.sv_queue_cap > 0 && !nbuf >= config.sv_queue_cap then
      shed "queue-full" rq
    else begin
      buf := rq :: !buf;
      incr nbuf
    end
  in
  let overload_round () =
    for _ = 1 to config.sv_overload_burst do
      incr overload_injected;
      let src = Sm.int rng nodes in
      let dst = (src + 1 + Sm.int rng (nodes - 1)) mod nodes in
      let conn = !next_synthetic in
      incr next_synthetic;
      enqueue
        {
          Batch.rq_conn = conn;
          rq_time = !sim_now;
          rq_src = src;
          rq_dst = dst;
          rq_bw = config.sv_bw;
        }
    done
  in
  let crash_round p =
    incr crashes;
    wal_records := !wal_records + Persist.appended !p;
    ckpts := !ckpts + Persist.checkpoints !p;
    if !J.on then begin
      J.set_now !sim_now;
      J.record
        (J.Crash_injected { at_batch = !batches; wal_seq = Persist.wal_seq !p })
    end;
    Persist.close !p;
    (* The crash takes the manager (and its service wrapper) with it; the
       serve loop's own counters, buffered queue and journal survive, as a
       restarting process's supervisor state would. *)
    let fresh = Manager.create ~graph ~capacity ~spare_policy ~route in
    match Persist.recover (Persist.config !p) ~manager:fresh with
    | Ok rv ->
        manager := fresh;
        service := Service.create fresh;
        replayed := !replayed + rv.Persist.rv_replayed;
        p := Persist.resume (Persist.config !p) rv
    | Error e -> failwith ("serve: recovery failed: " ^ e)
  in
  let after_batch () =
    if what_ifs_on && !batches mod config.sv_what_if_every = 0 then
      what_if_round ();
    if config.sv_probe_every > 0 && !batches mod config.sv_probe_every = 0 then
      probe_round ();
    if config.sv_check_every > 0 && !batches mod config.sv_check_every = 0 then
      check_round ();
    if
      config.sv_overload_every > 0
      && !batches mod config.sv_overload_every = 0
    then overload_round ();
    match persist with
    | Some p ->
        (* Batch boundary: every logged op has been applied, so a
           checkpoint here covers exactly the WAL prefix it claims. *)
        if
          config.sv_checkpoint_every > 0
          && Persist.wal_seq !p - Persist.checkpoint_seq !p
             >= config.sv_checkpoint_every
        then Persist.checkpoint !p ~manager:!manager ~time:!sim_now;
        if config.sv_crash_every > 0 && !batches mod config.sv_crash_every = 0
        then crash_round p
    | None -> ()
  in
  let flush () =
    if !nbuf > 0 then begin
      let pending = List.rev !buf in
      buf := [];
      nbuf := 0;
      (* Deadline shedding: a request that waited in the queue past its
         deadline is rejected outright (with a journalled verdict) rather
         than admitted late.  Decided on simulation time, so it is
         deterministic. *)
      let pending =
        if config.sv_deadline > 0.0 then begin
          let keep, late =
            List.partition
              (fun r -> r.Batch.rq_time +. config.sv_deadline >= !sim_now)
              pending
          in
          List.iter (shed "deadline") late;
          keep
        end
        else pending
      in
      let reqs = Array.of_list pending in
      let n = Array.length reqs in
      if n = 0 then begin
        incr batches;
        after_batch ()
      end
      else begin
      (* Write-ahead: log the whole batch, in the exact order Batch.admit
         will apply it, before any of it mutates the manager. *)
      (match persist with
      | Some p ->
          let log r =
            Persist.append !p ~manager:!manager ~time:r.Batch.rq_time
              (Wal.Request
                 {
                   conn = r.Batch.rq_conn;
                   src = r.Batch.rq_src;
                   dst = r.Batch.rq_dst;
                   bw = r.Batch.rq_bw;
                   duration = 0.0;
                 })
          in
          if config.sv_reorder then
            Array.iter (fun i -> log reqs.(i)) (Batch.locality_order reqs)
          else Array.iter log reqs
      | None -> ());
      let timings = Array.make n 0.0 in
      let verdicts =
        Batch.admit ~reorder:config.sv_reorder ~timings !service reqs
      in
      requests := !requests + n;
      Array.iter
        (function
          | Service.Accepted _ -> incr accepted
          | Service.Rejected Drtp.Routing.No_primary -> incr no_primary
          | Service.Rejected _ -> incr no_backup)
        verdicts;
      Array.iter (fun t -> latencies := t :: !latencies) timings;
      incr batches;
      after_batch ()
      end
    end
  in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  Scenario.iter scenario (fun item ->
      sim_now := item.Scenario.time;
      match item.Scenario.event with
      | Scenario.Request { conn; src; dst; bw; duration = _ } ->
          enqueue
            {
              Batch.rq_conn = conn;
              rq_time = item.Scenario.time;
              rq_src = src;
              rq_dst = dst;
              rq_bw = bw;
            };
          if !nbuf >= config.sv_batch then flush ()
      | Scenario.Release { conn } ->
          (* A release must observe every admission that precedes it in the
             stream, so the pending batch flushes first. *)
          flush ();
          (match persist with
          | Some p ->
              Persist.append !p ~manager:!manager ~time:item.Scenario.time
                (Wal.Release { conn })
          | None -> ());
          Service.release_now !service ~now:item.Scenario.time ~conn;
          incr releases);
  flush ();
  let t1 = Unix.gettimeofday () in
  let gc1 = Gc.quick_stat () in
  let final_check = Net_state.check_invariants (Manager.state !manager) in
  incr inv_checks;
  (match final_check with
  | Ok () -> ()
  | Error msg ->
      incr inv_failures;
      violations := (!batches, "final: " ^ msg) :: !violations);
  (match persist with
  | Some p ->
      wal_records := !wal_records + Persist.appended !p;
      ckpts := !ckpts + Persist.checkpoints !p;
      Persist.close !p
  | None -> ());
  let lat = Array.of_list (List.rev !latencies) in
  let warmup = int_of_float (config.sv_warmup_frac *. float_of_int (Array.length lat)) in
  let measured = Array.sub lat warmup (Array.length lat - warmup) in
  let q p =
    if Array.length measured = 0 then 0.0
    else 1e6 *. Histogram.quantile (Array.copy measured) p
  in
  let elapsed = t1 -. t0 in
  let alloc_words =
    gc1.Gc.minor_words -. gc0.Gc.minor_words
    +. (gc1.Gc.major_words -. gc0.Gc.major_words)
    -. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
  in
  {
    rp_requests = !requests;
    rp_accepted = !accepted;
    rp_rejected_no_primary = !no_primary;
    rp_rejected_no_backup = !no_backup;
    rp_releases = !releases;
    rp_batches = !batches;
    rp_what_ifs = !what_ifs;
    rp_what_if_accepted = !what_if_accepted;
    rp_fail_probes = !fail_probes;
    rp_probe_affected = !probe_affected;
    rp_invariant_checks = !inv_checks;
    rp_invariant_failures = !inv_failures;
    rp_final_active = Net_state.active_count (Manager.state !manager);
    rp_lat_samples = Array.length measured;
    rp_shed_queue = !shed_queue;
    rp_shed_deadline = !shed_deadline;
    rp_overload_injected = !overload_injected;
    rp_crashes = !crashes;
    rp_replayed = !replayed;
    rp_wal_records = !wal_records;
    rp_checkpoints = !ckpts;
    rp_digest = Dr_persist.State_digest.manager_hex graph !manager;
    rp_violations = List.rev !violations;
    rp_elapsed_s = elapsed;
    rp_requests_per_sec =
      (if elapsed > 0.0 then float_of_int !requests /. elapsed else 0.0);
    rp_lat_p50_us = q 0.5;
    rp_lat_p95_us = q 0.95;
    rp_lat_p99_us = q 0.99;
    rp_alloc_mb = alloc_words *. 8.0 /. 1e6;
    rp_alloc_kb_per_req =
      (if !requests > 0 then alloc_words *. 8.0 /. 1e3 /. float_of_int !requests
       else 0.0);
    rp_major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }
