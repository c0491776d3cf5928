(* End-to-end benchmark of the DR-connection admission path.

   One process, one closed-loop client: the client replays a seeded
   request stream through the system's public entry points, issues each
   call as soon as the previous one has returned, and times every call
   with the monotonic clock.  README.md in this directory defines the
   workloads, the metrics and which layer should move which metric.

     bash bench/e2e/run.sh --workload NAME [--seed N] [--seconds S]
         [--trace 0|1] [--trace-file FILE] [--repeat N]
     bash bench/e2e/run.sh --smoke

   Every metric is printed as "name value unit"; the last line of standard
   output is one JSON object with the keys correct, attempted, failed and
   metrics.  The exit code is nonzero when any check failed. *)

module Config = Dr_exp.Config
module Sweep = Dr_exp.Sweep
module Report = Dr_exp.Report
module Runner = Dr_exp.Runner
module Routing = Drtp.Routing
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Scenario = Dr_sim.Scenario
module Workload = Dr_sim.Workload
module Graph = Dr_topo.Graph
module Batch = Dr_service.Batch
module Service = Dr_service.Service
module Persist = Dr_persist.Persist
module Wal = Dr_persist.Wal
module State_digest = Dr_persist.State_digest
module Histogram = Dr_stats.Histogram
module J = Dr_obs.Journal
module Sm = Dr_rng.Splitmix64
module Pool = Dr_parallel.Pool

let now_ns = Spans.now_ns
let run_started = now_ns ()
let secs ns = float_of_int ns /. 1e9
let pins_file = "bench/e2e/pins.txt"

(* ---- checks ------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      prerr_endline ("bench-e2e: FAILED: " ^ msg))
    fmt

let check_digest ~what ~got ~want =
  incr attempted;
  if got <> want then fail "%s digest %s, expected %s" what got want

(* ---- samples and run totals -------------------------------------------- *)

module Samples = struct
  type t = {
    mutable a : float array;
    mutable n : int;
    mutable marks : int list;  (** sample counts at the end of each pass *)
  }

  let create () = { a = Array.make 1024 0.0; n = 0; marks = [] }
  let mark s = s.marks <- s.n :: s.marks

  let add s x =
    if s.n = Array.length s.a then begin
      let a = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let quantile s q =
    if s.n = 0 then 0.0 else Histogram.quantile (Array.sub s.a 0 s.n) q

  (* The [q]-quantile of each pass's samples. *)
  let passes s q =
    let rec go hi = function
      | lo :: rest ->
          if hi > lo then
            Histogram.quantile (Array.sub s.a lo (hi - lo)) q :: go lo rest
          else go lo rest
      | [] -> []
    in
    go s.n (List.tl (s.marks @ [ 0 ]))

  (* The lowest of the passes' [q]-quantiles.  Other tenants of a shared
     machine only ever add time, and they slow whole passes at a time, so
     the least-disturbed pass varies least from run to run; a slower
     program slows every pass. *)
  let best_pass s q =
    match passes s q with [] -> 0.0 | qs -> List.fold_left Float.min infinity qs
end

(* Totals over the measured windows of one kind of pass (untraced or
   traced).  Latency samples are in ns. *)
type acc = {
  mutable passes : int;
  mutable wall_ns : int;
      (** measured, less the paused time (see [paused_off_cpu]) *)
  mutable paused_ns : int;
  mutable checkpoint_cpu_ns : int;
  mutable cpu_s : float;
  mutable requests : int;
  mutable rejected : int;
  mutable batches : int;
  mutable alloc_words : float;
  mutable minor_words : float;
  mutable major_gcs : int;
  mutable what_ifs : int;
  mutable what_if_accepted : int;
  mutable replayed : int;
  mutable wal_bytes : int;
  mutable journal_events : int;
  mutable journal_dropped : int;
  mutable digest_ns : int;
  mutable slice_t0 : int;
  mutable slice_requests0 : int;
  slice_rate : Samples.t;  (** requests per second of each slice *)
  admit_lat : Samples.t;
  what_if_lat : Samples.t;
  recover_lat : Samples.t;
  run_result_lat : Samples.t;
}

let new_acc () =
  {
    passes = 0;
    wall_ns = 0;
    paused_ns = 0;
    checkpoint_cpu_ns = 0;
    cpu_s = 0.0;
    requests = 0;
    rejected = 0;
    batches = 0;
    alloc_words = 0.0;
    minor_words = 0.0;
    major_gcs = 0;
    what_ifs = 0;
    what_if_accepted = 0;
    replayed = 0;
    wal_bytes = 0;
    journal_events = 0;
    journal_dropped = 0;
    digest_ns = 0;
    slice_t0 = 0;
    slice_requests0 = 0;
    slice_rate = Samples.create ();
    admit_lat = Samples.create ();
    what_if_lat = Samples.create ();
    recover_lat = Samples.create ();
    run_result_lat = Samples.create ();
  }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Throughput is sampled per slice: a slice closes at the first client
   operation boundary 0.25 s or more after it opened, so that a short stall
   of the machine moves few slices and the median slice not at all. *)
let slice_ns = 250_000_000

let close_slice acc t =
  Samples.add acc.slice_rate
    (float_of_int (acc.requests - acc.slice_requests0) /. secs (t - acc.slice_t0));
  acc.slice_t0 <- t;
  acc.slice_requests0 <- acc.requests

let tick acc =
  let t = now_ns () in
  if t - acc.slice_t0 >= slice_ns then close_slice acc t

(* A measured window: wall time (less paused time), CPU time and
   allocation between the call and the call of the returned closure are
   added to [acc].  The last
   slice of a window is kept if it is at least half a slice long, or if it
   is the window's only one. *)
let window acc =
  let gc0 = Gc.quick_stat () and cpu0 = cpu_now () and t0 = now_ns () in
  let slices0 = acc.slice_rate.Samples.n and paused0 = acc.paused_ns in
  acc.slice_t0 <- t0;
  acc.slice_requests0 <- acc.requests;
  fun () ->
    let t1 = now_ns () and cpu1 = cpu_now () and gc1 = Gc.quick_stat () in
    if t1 - acc.slice_t0 >= slice_ns / 2 || acc.slice_rate.Samples.n = slices0
    then close_slice acc t1;
    acc.passes <- acc.passes + 1;
    List.iter Samples.mark
      [ acc.admit_lat; acc.what_if_lat; acc.recover_lat; acc.run_result_lat ];
    acc.wall_ns <- acc.wall_ns + (t1 - t0) - (acc.paused_ns - paused0);
    acc.cpu_s <- acc.cpu_s +. (cpu1 -. cpu0);
    let d f = f gc1 -. f gc0 in
    acc.minor_words <- acc.minor_words +. d (fun g -> g.Gc.minor_words);
    acc.alloc_words <-
      acc.alloc_words
      +. d (fun g -> g.Gc.minor_words)
      +. d (fun g -> g.Gc.major_words)
      -. d (fun g -> g.Gc.promoted_words);
    acc.major_gcs <-
      acc.major_gcs + gc1.Gc.major_collections - gc0.Gc.major_collections

(* Runs [f] with the window's clock paused while the process is off the
   CPU: [f]'s CPU time (user + system) counts in the wall time and the
   current throughput slice, the rest of its wall time in neither. *)
let paused_off_cpu acc f =
  let t0 = now_ns () and c0 = Sys.time () in
  let r = f () in
  let cpu = int_of_float ((Sys.time () -. c0) *. 1e9) in
  let off = max 0 (now_ns () - t0 - cpu) in
  acc.paused_ns <- acc.paused_ns + off;
  acc.slice_t0 <- acc.slice_t0 + off;
  acc.checkpoint_cpu_ns <- acc.checkpoint_cpu_ns + cpu;
  r

(* ---- pinned digests ------------------------------------------------------ *)

(* [bench/e2e/pins.txt]: lines "workload seed md5"; '#' starts a comment. *)
let load_pins () =
  let ic =
    try open_in pins_file
    with Sys_error e ->
      prerr_endline ("bench-e2e: cannot read pinned digests: " ^ e);
      exit 2
  in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        acc
    | line -> (
        match
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> s <> "")
        with
        | [] -> go acc
        | w :: _ when w.[0] = '#' -> go acc
        | [ w; s; d ] when int_of_string_opt s <> None ->
            go (((w, int_of_string s), d) :: acc)
        | _ ->
            prerr_endline ("bench-e2e: bad line in " ^ pins_file ^ ": " ^ line);
            exit 2)
  in
  go []

(* ---- serve-style workloads ---------------------------------------------- *)

type serve = {
  nodes : int;
  degree : float;
  lambda : float;
  horizon : float;
  warmup : float;
  scheme : Routing.scheme;
  traffic : Config.traffic;
  what_if_every : int;  (** what-if burst every N batches; 0 = never *)
  what_if_burst : int;
  probe_every : int;  (** fail-edge probe every N batches; 0 = never *)
  check_every : int;  (** invariant audit every N batches; 0 = final only *)
  durable : bool;
      (** WAL, checkpoints, crash + recovery and the journal ring *)
}

(* As in Serve: batches of up to 32 requests, flushed early before every
   release; WAL checkpoint once the tail reaches 1024 records.  Crashes
   come at seeded random batch gaps of mean 256, drawn afresh for every
   pass: a fixed gap of 256 batches (about 1024 records) beats against the
   checkpoint cadence, so each seed would replay its own fixed share of
   the log at every recovery. *)
let batch_cap = 32
let checkpoint_every = 1024
let crash_mean_gap = 256.0
let wal_sample = 32

let config_of ~seed (s : serve) =
  {
    Config.default with
    Config.nodes = s.nodes;
    horizon = s.horizon;
    warmup = s.warmup;
    workload_seed = seed * 101;
  }

(* UT streams come from [Config.make_scenario].  For NT the hotspot set is
   drawn from the topology seed, as part of the fixed network, so that
   [--seed] varies only the stream: drawn from the stream seed, as
   [Config.make_scenario] does, each seed would pick other hotspots and
   with them a different share of rejected requests. *)
let make_scenario (cfg : Config.t) (s : serve) =
  match s.traffic with
  | Config.UT -> Config.make_scenario cfg Config.UT ~lambda:s.lambda
  | Config.NT ->
      let node_count = cfg.Config.nodes in
      let pattern =
        Workload.hotspot_pattern
          (Sm.create cfg.Config.topology_seed)
          ~node_count ~hotspots:cfg.Config.hotspot_count
          ~fraction:cfg.Config.hotspot_fraction
      in
      Workload.generate
        (Sm.create cfg.Config.workload_seed)
        ~node_count
        {
          Workload.arrival_rate = s.lambda;
          horizon = cfg.Config.horizon;
          lifetime_lo = cfg.Config.lifetime_lo;
          lifetime_hi = cfg.Config.lifetime_hi;
          bw = Workload.constant_bw cfg.Config.bw_req;
          pattern;
        }

(* The bench-side route function of the traced run: exactly
   [Routing.link_state_route_fn scheme ~with_backup:true], with each of
   its two searches under a span. *)
let primary_fails = ref 0
let backup_fails = ref 0

let traced_route scheme : Routing.route_fn =
 fun state ~src ~dst ~bw ->
  match
    Spans.with_ Spans.find_primary (fun () ->
        Routing.find_primary state ~src ~dst ~bw)
  with
  | None ->
      if !Spans.on then incr primary_fails;
      Error Routing.No_primary
  | Some primary -> (
      match
        Spans.with_ Spans.find_backups (fun () ->
            Routing.find_backups scheme state ~primary ~bw ~count:1)
      with
      | [] ->
          if !Spans.on then incr backup_fails;
          Error Routing.No_backup
      | backups -> Ok { Routing.primary; backups })

let wal_dir =
  lazy
    (let dir = Printf.sprintf ".bench-e2e-%d" (Unix.getpid ()) in
     Unix.mkdir dir 0o755;
     at_exit (fun () ->
         Array.iter
           (fun f -> Sys.remove (Filename.concat dir f))
           (Sys.readdir dir);
         Unix.rmdir dir);
     dir)

(* One pass: a fresh manager replays the whole stream.  Events before
   [warmup] are applied untimed (no what-ifs, probes, audits, checkpoints
   or crashes); the rest is the measured window. *)
let serve_pass (s : serve) ~cfg ~graph ~scenario ~route ~seed ~index ~traced
    acc =
  let create () =
    Manager.create ~graph ~capacity:cfg.Config.capacity
      ~spare_policy:Net_state.Multiplexed ~route
  in
  let manager = ref (create ()) in
  let service = ref (Service.create !manager) in
  let persist =
    if not s.durable then None
    else
      let wal_path = Filename.concat (Lazy.force wal_dir) "wal" in
      Some
        (ref (Persist.create { (Persist.default_config ~wal_path) with wal_sample }))
  in
  if s.durable then J.clear (J.current ());
  let wal_size () =
    match persist with
    | Some p -> (Unix.stat (Persist.config !p).Persist.wal_path).Unix.st_size
    | None -> 0
  in
  (* WAL bytes appended in the window: the file's growth since the window
     opened or the last checkpoint truncated it. *)
  let wal_mark = ref 0 in
  let count_wal_bytes () =
    acc.wal_bytes <- acc.wal_bytes + (wal_size () - !wal_mark)
  in
  let rng = Sm.create seed in
  let nodes = Graph.node_count graph and edges = Graph.edge_count graph in
  let next_probe = ref 900_000_000 in
  let sim_now = ref 0.0 in
  let measuring = ref false in
  let batches = ref 0 in
  let crashes =
    ref
      (if s.durable then
         Dr_faults.Faults.crash_schedule ~seed:((seed * 7919) + index)
           ~mean_gap:crash_mean_gap ~horizon:(Scenario.length scenario) ()
       else [])
  in
  let buf = ref [] and nbuf = ref 0 in
  let what_if_round () =
    for _ = 1 to s.what_if_burst do
      let src = Sm.int rng nodes in
      let dst = (src + 1 + Sm.int rng (nodes - 1)) mod nodes in
      let conn = !next_probe in
      incr next_probe;
      incr attempted;
      let t0 = now_ns () in
      let v =
        Spans.with_ Spans.what_if_admit (fun () ->
            Service.what_if_admit ~conn !service ~now:!sim_now ~src ~dst
              ~bw:cfg.Config.bw_req)
      in
      Samples.add acc.what_if_lat (float_of_int (now_ns () - t0));
      acc.what_ifs <- acc.what_ifs + 1;
      match v with
      | Service.Accepted _ -> acc.what_if_accepted <- acc.what_if_accepted + 1
      | Service.Rejected _ -> ()
    done
  in
  let probe () =
    let edge = Sm.int rng edges in
    incr attempted;
    ignore
      (Spans.with_ Spans.what_if_fail_edge (fun () ->
           Service.what_if_fail_edge !service ~edge))
  in
  let audit where =
    incr attempted;
    let state = Manager.state !manager in
    match
      Spans.with_ Spans.audit (fun () ->
          match Net_state.check_invariants state with
          | Ok () -> Net_state.check_routing_caches state
          | Error _ as e -> e)
    with
    | Ok () -> ()
    | Error m -> fail "%s audit: %s" where m
  in
  let crash p =
    incr attempted;
    let t0 = now_ns () in
    let recovered =
      Spans.with_ Spans.persist_recover (fun () ->
          Persist.close !p;
          let fresh = create () in
          match Persist.recover (Persist.config !p) ~manager:fresh with
          | Ok rv ->
              manager := fresh;
              service := Service.create fresh;
              p := Persist.resume (Persist.config !p) rv;
              Ok rv.Persist.rv_replayed
          | Error e -> Error e)
    in
    match recovered with
    | Ok n ->
        Samples.add acc.recover_lat (float_of_int (now_ns () - t0));
        acc.replayed <- acc.replayed + n
    | Error e -> failwith ("recovery failed: " ^ e)
  in
  let after_batch () =
    if !measuring then begin
      if s.what_if_every > 0 && !batches mod s.what_if_every = 0 then
        what_if_round ();
      if s.probe_every > 0 && !batches mod s.probe_every = 0 then probe ();
      if s.check_every > 0 && !batches mod s.check_every = 0 then
        audit "periodic";
      match persist with
      | Some p ->
          if Persist.wal_seq !p - Persist.checkpoint_seq !p >= checkpoint_every
          then begin
            count_wal_bytes ();
            (* Only the checkpoint's CPU time (dump, encoding, system
               calls) is measured.  The rest is waiting for the file
               system, which other tenants' I/O on a shared machine
               stretches fiftyfold and more. *)
            paused_off_cpu acc (fun () ->
                Spans.with_ Spans.persist_checkpoint (fun () ->
                    Persist.checkpoint !p ~manager:!manager ~time:!sim_now));
            wal_mark := wal_size ()
          end;
          (match !crashes with
          | b :: rest when b <= !batches ->
              crashes := List.filter (fun b -> b > !batches) rest;
              crash p
          | _ -> ())
      | None -> ()
    end
  in
  let append p time op =
    Spans.with_ Spans.persist_append (fun () ->
        Persist.append !p ~manager:!manager ~time op)
  in
  let flush () =
    if !nbuf > 0 then begin
      let reqs = Array.of_list (List.rev !buf) in
      buf := [];
      nbuf := 0;
      let t0 = now_ns () in
      (match persist with
      | Some p ->
          Array.iter
            (fun r ->
              append p r.Batch.rq_time
                (Wal.Request
                   {
                     conn = r.Batch.rq_conn;
                     src = r.Batch.rq_src;
                     dst = r.Batch.rq_dst;
                     bw = r.Batch.rq_bw;
                     duration = 0.0;
                   }))
            reqs
      | None -> ());
      let verdicts =
        Spans.with_ Spans.batch_admit (fun () -> Batch.admit !service reqs)
      in
      let lat = float_of_int (now_ns () - t0) in
      if !measuring then begin
        Array.iter
          (fun v ->
            Samples.add acc.admit_lat lat;
            match v with
            | Service.Accepted _ -> ()
            | Service.Rejected _ -> acc.rejected <- acc.rejected + 1)
          verdicts;
        let n = Array.length reqs in
        acc.requests <- acc.requests + n;
        attempted := !attempted + n;
        acc.batches <- acc.batches + 1
      end;
      incr batches;
      after_batch ();
      if !measuring then tick acc
    end
  in
  let finish = ref (fun () -> ()) and journal0 = ref 0 in
  let start () =
    flush ();
    crashes := List.filter (fun b -> b > !batches) !crashes;
    measuring := true;
    wal_mark := wal_size ();
    journal0 := J.recorded (J.current ());
    Spans.on := traced;
    finish := window acc
  in
  Scenario.iter scenario (fun item ->
      sim_now := item.Scenario.time;
      if (not !measuring) && item.Scenario.time >= s.warmup then start ();
      match item.Scenario.event with
      | Scenario.Request { conn; src; dst; bw; duration = _ } ->
          buf :=
            {
              Batch.rq_conn = conn;
              rq_time = item.Scenario.time;
              rq_src = src;
              rq_dst = dst;
              rq_bw = bw;
            }
            :: !buf;
          incr nbuf;
          if !nbuf >= batch_cap then flush ()
      | Scenario.Release { conn } ->
          flush ();
          Option.iter
            (fun p -> append p item.Scenario.time (Wal.Release { conn }))
            persist;
          Spans.with_ Spans.release_now (fun () ->
              Service.release_now !service ~now:item.Scenario.time ~conn));
  if not !measuring then start ();
  flush ();
  !finish ();
  Spans.on := false;
  if s.durable then begin
    let j = J.current () in
    acc.journal_events <- acc.journal_events + (J.recorded j - !journal0);
    acc.journal_dropped <- acc.journal_dropped + J.dropped j
  end;
  Option.iter
    (fun p ->
      count_wal_bytes ();
      Persist.close !p)
    persist;
  audit "final";
  let t0 = now_ns () in
  let digest = State_digest.manager_hex graph !manager in
  acc.digest_ns <- acc.digest_ns + (now_ns () - t0);
  digest

(* The reference for seeds without a pinned digest: an untimed sequential
   replay of the same stream through [Manager.run]. *)
let reference_digest (s : serve) ~cfg ~graph ~scenario =
  let m =
    Manager.create ~graph ~capacity:cfg.Config.capacity
      ~spare_policy:Net_state.Multiplexed
      ~route:(Routing.link_state_route_fn s.scheme ~with_backup:true)
  in
  Manager.run m scenario;
  State_digest.manager_hex graph m

let smoke = ref false

(* Set-up runs at least 5 times, and until it has taken a second (at most
   100 times), so that a set-up of a few ms still has a steady median;
   once in smoke mode.  Returns the median time and the last result. *)
let repeat_setup f =
  let times = Samples.create () in
  let rec go total =
    let t0 = now_ns () in
    let r = f () in
    let dt = now_ns () - t0 in
    Samples.add times (secs dt);
    let total = total + dt in
    if
      (not !smoke)
      && (times.Samples.n < 5 || (total < 1_000_000_000 && times.Samples.n < 100))
    then go total
    else r
  in
  let r = go 0 in
  (Samples.quantile times 0.5, r)

(* Runs passes, alternating untraced and traced ones when [trace], until
   the measured windows add up to [seconds], or the run has lasted twice
   that with the clock paused and set-up included (at least one pass of
   each kind).  [pass ~index ~traced acc] runs the run's [index]th pass and
   reports into [acc]. *)
let timebox ~seconds ~trace ~trace_file pass =
  let plain = new_acc () and traced = new_acc () in
  let budget = int_of_float (seconds *. 1e9) in
  let chrome = ref trace_file in
  let rec loop i =
    let t = trace && i mod 2 = 1 in
    (try pass ~index:i ~traced:t (if t then traced else plain)
     with e ->
       Spans.on := false;
       fail "pass %d raised %s" i (Printexc.to_string e));
    Spans.flush ?chrome:(if t then !chrome else None) ();
    if t then chrome := None;
    let enough =
      plain.wall_ns + traced.wall_ns >= budget
      || now_ns () - run_started >= 2 * budget
    in
    if !failed = 0 && ((not enough) || (trace && i < 1)) then loop (i + 1)
  in
  loop 0;
  (plain, traced)

let serve_run (s : serve) ~seed ~seconds ~trace ~trace_file ~pinned =
  if s.durable then J.set_enabled true;
  let cfg = config_of ~seed s in
  let setup_s, (graph, scenario) =
    repeat_setup (fun () ->
        let graph = Config.make_graph cfg ~avg_degree:s.degree in
        let scenario = make_scenario cfg s in
        let m =
          Manager.create ~graph ~capacity:cfg.Config.capacity
            ~spare_policy:Net_state.Multiplexed
            ~route:(Routing.link_state_route_fn s.scheme ~with_backup:true)
        in
        ignore (Sys.opaque_identity m);
        (graph, scenario))
  in
  let want =
    lazy
      (match pinned with
      | Some d -> d
      | None -> reference_digest s ~cfg ~graph ~scenario)
  in
  let pass ~index ~traced acc =
    let route =
      if traced then traced_route s.scheme
      else Routing.link_state_route_fn s.scheme ~with_backup:true
    in
    let got =
      serve_pass s ~cfg ~graph ~scenario ~route ~seed ~index ~traced acc
    in
    Printf.printf "# pass %d%s digest %s\n%!" acc.passes
      (if traced then " (traced)" else "")
      got;
    check_digest ~what:"state" ~got ~want:(Lazy.force want)
  in
  let plain, traced = timebox ~seconds ~trace ~trace_file pass in
  J.set_enabled false;
  (setup_s, plain, traced)

(* ---- the sweep workload -------------------------------------------------- *)

let degrees = [ 3.0; 4.0 ]
let traffics = [ Config.UT; Config.NT ]

let load_points () =
  List.concat_map
    (fun degree ->
      List.concat_map
        (fun traffic ->
          List.map
            (fun lambda -> (degree, traffic, lambda))
            (Config.lambdas_for_degree degree))
        traffics)
    degrees

let figure_tables e3 e4 =
  Format.asprintf "%a@.@.%a@.@.%a@.@.%a@.@." Report.print_figure4 e3
    Report.print_figure4 e4 Report.print_figure5 e3 Report.print_figure5 e4

let sweep_requests (t : Sweep.t) =
  List.fold_left
    (fun n c -> n + c.Sweep.measurement.Runner.requests)
    0 t.Sweep.cells
  + List.fold_left
      (fun n (_, _, m) -> n + m.Runner.requests)
      0 t.Sweep.baselines

(* One pass: the claims grid as [drtp_sim claims] issues it, one
   [Sweep.run] per degree over every load point.  A sample of the
   operation latency is the time from the [Sweep.run] call to one run's
   progress line, which [Sweep.run] hands over in plan order as soon as
   that run and every run before it are done. *)
let sweep_pass cfg ~pool ~traced acc =
  let finish = window acc in
  Spans.on := traced;
  let sweep degree =
    let t0 = now_ns () in
    let progress _ =
      incr attempted;
      Samples.add acc.run_result_lat (float_of_int (now_ns () - t0))
    in
    let t =
      Spans.with_ Spans.sweep_run (fun () ->
          Sweep.run ~pool ~progress cfg ~avg_degree:degree ())
    in
    acc.requests <- acc.requests + sweep_requests t;
    tick acc;
    t
  in
  let e3 = sweep 3.0 in
  let e4 = sweep 4.0 in
  Spans.on := false;
  finish ();
  List.iter
    (fun f ->
      fail "sweep cell %s lambda=%.1f %s: %s"
        (Config.traffic_name f.Sweep.f_traffic)
        f.Sweep.f_lambda f.Sweep.f_label f.Sweep.f_reason)
    (e3.Sweep.failures @ e4.Sweep.failures);
  (Digest.to_hex (Digest.string (figure_tables e3 e4)), e3, e4)

let sweep_run ~seed ~seconds ~trace ~trace_file ~pinned =
  let cfg =
    {
      Config.default with
      Config.workload_seed = seed * 101;
      warmup = (if !smoke then 600.0 else Config.default.Config.warmup);
      horizon = (if !smoke then 1200.0 else Config.default.Config.horizon);
    }
  in
  let setup_s, () =
    repeat_setup (fun () ->
        List.iter
          (fun degree -> ignore (Config.make_graph cfg ~avg_degree:degree))
          degrees;
        List.iter
          (fun (_, traffic, lambda) ->
            ignore (Config.make_scenario cfg traffic ~lambda))
          (load_points ()))
  in
  let plain, traced =
    Pool.with_pool ~jobs:2 (fun pool ->
        let pass ~index:_ ~traced acc =
          let got, e3, e4 = sweep_pass cfg ~pool ~traced acc in
          Printf.printf "# pass %d%s tables md5 %s\n%!" acc.passes
            (if traced then " (traced)" else "")
            got;
          match pinned with
          | Some want -> check_digest ~what:"figure-table" ~got ~want
          | None ->
              (* Spot check: one load point, chosen by the seed, re-run
                 inline without the pool must give the same cells. *)
              let points = load_points () in
              let n = List.length points in
              let degree, traffic, lambda =
                List.nth points (((seed mod n) + n) mod n)
              in
              let inline =
                Sweep.run cfg ~avg_degree:degree ~traffics:[ traffic ]
                  ~lambdas:[ lambda ] ()
              in
              let pooled = if degree = 3.0 then e3 else e4 in
              let at_point =
                {
                  pooled with
                  Sweep.cells =
                    List.filter
                      (fun c -> c.Sweep.traffic = traffic && c.Sweep.lambda = lambda)
                      pooled.Sweep.cells;
                }
              in
              let md5 t = Digest.to_hex (Digest.string (Report.to_csv t)) in
              check_digest ~what:"inline load-point" ~got:(md5 at_point)
                ~want:(md5 inline)
        in
        timebox ~seconds ~trace ~trace_file pass)
  in
  (setup_s, plain, traced)

(* ---- workloads and metrics ---------------------------------------------- *)

type op = Admission | What_if | Run_result

type workload = { name : string; op : op; kind : [ `Serve of serve | `Sweep ] }

(* 120 nodes, not 240: the 240-node conflict table (3.7 MB) lives in the
   L3 cache that the machine's other tenants share, and its throughput
   swung twofold between runs; the 120-node one (0.9 MB) fits a core's
   L2. *)
let admit_120 =
  {
    nodes = 120;
    degree = 4.0;
    lambda = 0.8;
    horizon = 27600.0;
    warmup = 4800.0;
    scheme = Routing.Dlsr;
    traffic = Config.UT;
    what_if_every = 0;
    what_if_burst = 0;
    probe_every = 0;
    check_every = 0;
    durable = false;
  }

(* The [drtp_sim serve] defaults (its CLI degree default is E = 3). *)
let whatif_60 =
  {
    admit_120 with
    nodes = 60;
    degree = 3.0;
    lambda = 0.4;
    horizon = 10800.0;
    what_if_every = 4;
    what_if_burst = 8;
    probe_every = 8;
    check_every = 16;
  }

let durable_60 =
  {
    admit_120 with
    nodes = 60;
    degree = 4.0;
    lambda = 0.5;
    horizon = 30000.0;
    scheme = Routing.Plsr;
    traffic = Config.NT;
    durable = true;
  }

let workloads =
  [
    { name = "admit-120"; op = Admission; kind = `Serve admit_120 };
    { name = "whatif-60"; op = What_if; kind = `Serve whatif_60 };
    { name = "durable-60"; op = Admission; kind = `Serve durable_60 };
    { name = "sweep"; op = Run_result; kind = `Sweep };
  ]

let smoke_sized = function
  | `Serve s -> `Serve { s with horizon = 1200.0; warmup = 600.0 }
  | `Sweep -> `Sweep

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let top_heap_mb () = fi (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6

(* The process's peak resident set (VmHWM in /proc/self/status), in MB;
   where that file does not exist, the GC's peak heap size.  With worker
   domains [Gc.top_heap_words] moves with the timing of their major
   cycles; the resident peak does not. *)
let peak_rss_mb () =
  let vm_hwm line =
    try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (fi kb /. 1e3))
    with Scanf.Scan_failure _ | End_of_file -> None
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status -> (
      match List.find_map vm_hwm (String.split_on_char '\n' status) with
      | Some mb -> mb
      | None -> top_heap_mb ())
  | exception Sys_error _ -> top_heap_mb ()

let end_to_end w ~setup_s (a : acc) =
  let op_lat =
    match w.op with
    | Admission -> a.admit_lat
    | What_if -> a.what_if_lat
    | Run_result -> a.run_result_lat
  in
  [
    ("setup_s", setup_s, "s");
    ("req_per_s", Samples.quantile a.slice_rate 0.5, "1/s");
    ("op_p50_us", Samples.best_pass op_lat 0.5 /. 1e3, "us");
    ("op_p99_us", Samples.best_pass op_lat 0.99 /. 1e3, "us");
    ("alloc_kb_per_req", ratio (a.alloc_words *. 8.0 /. 1e3) (fi a.requests), "KB");
    ("peak_rss_mb", peak_rss_mb (), "MB");
  ]

(* The layers whose spans have child spans: the calls that route. *)
let with_children = Spans.[ batch_admit; what_if_admit; persist_recover ]

let per_layer ~jobs ~(plain : acc) ~(traced : acc) =
  let layers =
    List.concat
      (List.mapi
         (fun l name ->
           [
             (name ^ ".calls", fi Spans.calls.(l), "count");
             (name ^ ".busy_s", secs Spans.busy.(l), "s");
           ]
           @
           if List.mem l with_children then
             [ (name ^ ".self_s", secs (Spans.self l), "s") ]
           else [])
         (Array.to_list Spans.names))
  in
  let t = traced and calls l = fi Spans.calls.(l) in
  let wall = secs (t.wall_ns + t.paused_ns) in
  let per_pass a = ratio (secs a.wall_ns) (fi a.passes) in
  layers
  @ [
      ("routing.find_primary.fail_frac", ratio (fi !primary_fails) (calls Spans.find_primary), "ratio");
      ("routing.find_backups.fail_frac", ratio (fi !backup_fails) (calls Spans.find_backups), "ratio");
      ("batch.admit.size_mean", ratio (fi t.requests) (fi t.batches), "count");
      ("service.what_if_admit.accept_frac", ratio (fi t.what_if_accepted) (fi t.what_ifs), "ratio");
      ("persist.append.bytes_per_req", ratio (fi t.wal_bytes) (fi t.requests), "B");
      ("persist.checkpoint.cpu_s", secs t.checkpoint_cpu_ns, "s");
      ("persist.recover.replayed_per_call", ratio (fi t.replayed) (calls Spans.persist_recover), "count");
      ("journal.events_per_req", ratio (fi t.journal_events) (fi t.requests), "count");
      ("journal.dropped", fi t.journal_dropped, "count");
      ("state_digest.busy_s", secs t.digest_ns, "s");
      ("gc.minor_words_per_req", ratio t.minor_words (fi t.requests), "words");
      ("gc.major_collections", fi t.major_gcs, "count");
      ("gc.top_heap_mb", top_heap_mb (), "MB");
      ("pool.cpu_util", ratio t.cpu_s (fi jobs *. wall), "ratio");
      ("admission.reject_frac", ratio (fi t.rejected) (fi t.requests), "ratio");
      ("admit.p50_us", Samples.quantile plain.admit_lat 0.5 /. 1e3, "us");
      ("admit.p99_us", Samples.quantile plain.admit_lat 0.99 /. 1e3, "us");
      ("what_if.p50_us", Samples.quantile plain.what_if_lat 0.5 /. 1e3, "us");
      ("what_if.p99_us", Samples.quantile plain.what_if_lat 0.99 /. 1e3, "us");
      ("recover.p50_ms", Samples.quantile plain.recover_lat 0.5 /. 1e6, "ms");
      ("recover.p90_ms", Samples.quantile plain.recover_lat 0.9 /. 1e6, "ms");
      ("client.residual_s", wall -. secs !Spans.top, "s");
      ("trace.overhead_frac", ratio (per_pass traced) (per_pass plain) -. 1.0, "ratio");
    ]

(* Each layer's share of the traced wall time (the checkpoints' paused
   file-system waits included); self times plus the client residual add up
   to the wall time by construction. *)
let print_shares (t : acc) =
  let wall = t.wall_ns + t.paused_ns in
  Printf.printf "# %-28s %10s %10s %10s %7s\n" "layer" "calls" "busy_s" "self_s"
    "share";
  Array.iteri
    (fun l name ->
      if Spans.calls.(l) > 0 then
        Printf.printf "# %-28s %10d %10.4f %10.4f %6.2f%%\n" name
          Spans.calls.(l) (secs Spans.busy.(l)) (secs (Spans.self l))
          (100.0 *. ratio (fi (Spans.self l)) (fi wall)))
    Spans.names;
  let residual = wall - !Spans.top in
  Printf.printf "# %-28s %10s %10s %10.4f %6.2f%%\n" "client.residual" "" ""
    (secs residual)
    (100.0 *. ratio (fi residual) (fi wall))

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let emit metrics =
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then fail "metric %s is not finite" name)
    metrics;
  List.iter (fun (name, v, unit) -> Printf.printf "%s %.6g %s\n" name v unit) metrics;
  let body =
    String.concat ","
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name
             (json_number (if Float.is_finite v then v else 0.0))
             unit)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed body

let run_workload w ~seed ~seconds ~trace ~trace_file =
  let pins = if !smoke then [] else load_pins () in
  let pinned = List.assoc_opt (w.name, seed) pins in
  let kind = if !smoke then smoke_sized w.kind else w.kind in
  let setup_s, plain, traced =
    match kind with
    | `Serve s -> serve_run s ~seed ~seconds ~trace ~trace_file ~pinned
    | `Sweep -> sweep_run ~seed ~seconds ~trace ~trace_file ~pinned
  in
  Printf.printf "# workload %s seed %d passes %d traced-passes %d\n" w.name seed
    plain.passes traced.passes;
  if trace then begin
    print_shares traced;
    let jobs = match kind with `Serve _ -> 1 | `Sweep -> 2 in
    emit (per_layer ~jobs ~plain ~traced)
  end
  else emit (end_to_end w ~setup_s plain)

(* ---- --repeat: fresh processes, median and quartiles --------------------- *)

(* Python's statistics.quantiles(xs, n=4), the default exclusive method. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = i * (n + 1) in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = m - (4 * j) in
      ((a.(j - 1) *. fi (4 - delta)) +. (a.(j) *. fi delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let repeat n args =
  let runs =
    List.init n (fun _ ->
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let rec last prev =
          match input_line ic with line -> last line | exception End_of_file -> prev
        in
        let line = last "" in
        let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
        match J.json_of_string line with
        | Ok json -> (ok, json)
        | Error e ->
            prerr_endline ("bench-e2e: child printed no result: " ^ e);
            exit 1)
  in
  let num = function Some (J.Num x) -> x | _ -> 0.0 in
  let metrics json =
    match J.mem "metrics" json with Some (J.Obj kv) -> kv | _ -> []
  in
  let first = metrics (snd (List.hd runs)) in
  let summary =
    List.map
      (fun (name, m) ->
        let unit = match J.mem "unit" m with Some (J.Str u) -> u | _ -> "" in
        let xs =
          List.map
            (fun (_, json) -> num (Option.bind (List.assoc_opt name (metrics json)) (J.mem "value")))
            runs
        in
        let q1, med, q3 = quartiles xs in
        Printf.printf "%s median %.6g q1 %.6g q3 %.6g spread %.4f %s\n" name med q1 q3
          (ratio (q3 -. q1) (Float.abs med)) unit;
        (name, med, unit))
      first
  in
  let sum key = List.fold_left (fun s (_, j) -> s + int_of_float (num (J.mem key j))) 0 runs in
  attempted := sum "attempted";
  failed := sum "failed";
  List.iter (fun (ok, _) -> if not ok then incr failed) runs;
  emit summary

(* ---- command line -------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref 0 and trace_file = ref None and repeat_n = ref 0 in
  let specs =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME admit-120, whatif-60, durable-60 or sweep" );
      ("--seed", Arg.Set_int seed, "N request-stream seed (default 42)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S measure whole passes until their windows add up to S seconds \
         (default 10)" );
      ( "--trace",
        Arg.Set_int trace,
        "0|1 1 = alternate untraced and traced passes and report the \
         per-layer metrics" );
      ( "--trace-file",
        Arg.String (fun f -> trace_file := Some f),
        "FILE with --trace 1, write the first traced pass as Chrome \
         trace-event JSON" );
      ( "--repeat",
        Arg.Set_int repeat_n,
        "N run the workload in N fresh processes; print medians and quartiles"
      );
      ( "--smoke",
        Arg.Set smoke,
        " run every workload once on a tiny horizon with all checks" );
    ]
  in
  let usage = "main.exe --workload NAME [options] | --smoke" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "bench-e2e: --trace takes 0 or 1";
    exit 2
  end;
  if !repeat_n > 0 then begin
    let rec drop = function
      | "--repeat" :: _ :: rest -> drop rest
      | a :: rest -> a :: drop rest
      | [] -> []
    in
    repeat !repeat_n
      (Array.of_list (drop (Array.to_list Sys.argv)));
    exit (if !failed = 0 then 0 else 1)
  end;
  let selected =
    if !smoke then workloads
    else
      match List.find_opt (fun w -> w.name = !workload) workloads with
      | Some w -> [ w ]
      | None ->
          Printf.eprintf "bench-e2e: unknown workload %S\n%s\n" !workload usage;
          exit 2
  in
  List.iter
    (fun w ->
      run_workload w ~seed:!seed
        ~seconds:(if !smoke then 0.0 else !seconds)
        ~trace:(!trace = 1) ~trace_file:!trace_file)
    selected;
  exit (if !failed = 0 then 0 else 1)
