module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Scenario = Dr_sim.Scenario
module Engine = Dr_sim.Engine
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module View = Dr_proto.Advertised_view
module Faults = Dr_faults.Faults
module Backoff = Dr_faults.Backoff
module Summary = Dr_stats.Summary
module J = Dr_obs.Journal
module C = Dr_obs.Journal.Causal

type config = {
  scheme : Routing.scheme;
  backup_count : int;
  parts : int;
  partition_seed : int;
  lsa_interval : float;
  lsa_refresh : float;
  lsa_flood_delay : float;
  hop_delay : float;
  max_retries : int;
  faults : Faults.t option;
  setup_rto : float;
  max_retransmits : int;
  crash_mean_gap : float;
      (* mean workload ops between shard crashes (Faults.crash_schedule);
         0 = no crashes *)
  crash_seed : int;
  view_checkpoint_every : float;
      (* seconds between in-memory LSDB checkpoints; 0 = initial
         checkpoint only *)
}

let default_config =
  {
    scheme = Routing.Dlsr;
    backup_count = 1;
    parts = 4;
    partition_seed = 7;
    lsa_interval = 5.0;
    lsa_refresh = 30.0;
    lsa_flood_delay = 0.050;
    hop_delay = 0.001;
    max_retries = 1;
    faults = None;
    setup_rto = 0.050;
    max_retransmits = 4;
    crash_mean_gap = 0.0;
    crash_seed = 11;
    view_checkpoint_every = 0.0;
  }

type stats = {
  mutable requests : int;
  mutable accepted : int;
  mutable rejected_no_route : int;
  mutable intra_shard : int;
  mutable inter_shard : int;
  mutable setup_failures : int;
  mutable crankbacks : int;
  mutable lost_after_retries : int;
  mutable released : int;
  mutable lsa_originated : int;
  mutable lsa_dropped : int;
  mutable retransmits : int;
  mutable setup_dropped : int;
  mutable ack_dropped : int;
  mutable stale_decisions : int;
  mutable divergent_decisions : int;
  mutable shard_crashes : int;
  mutable view_rollbacks : int;
      (* remote-link LSDB entries that regressed to checkpoint state
         across all crashes — re-converged by later (refresh) LSAs *)
  mutable view_checkpoints : int;
}

type result = {
  stats : stats;
  cut_edges : int;
  acceptance : float;
  ft_overall : float;
  avg_active : float;
  lsa_per_second : float;
  avg_staleness : float;
  decision_age_mean : float;
  convergence_lag_mean : float;
  convergence_lag_max : float;
  divergence_fraction : float;
}

type event =
  | Workload of Scenario.item
  | Setup_arrival of {
      conn : int;
      bw : int;
      attempt : int;
      shard : int;
      pair : Routing.route_pair;
    }
  | Setup_retransmit of {
      conn : int;
      bw : int;
      attempt : int;
      retransmit : int;  (* resends already performed, this copy included *)
      shard : int;
      pair : Routing.route_pair;
    }
  | Setup_abandoned of {
      conn : int;
      bw : int;
      attempt : int;
      shard : int;
      pair : Routing.route_pair;
    }
  | Teardown_arrival of int
  | Lsa_originate of int  (* directed link *)
  | Lsa_deliver of {
      dst_shard : int;
      link : int;
      lsa_seq : int;
      origin : float;
      dirty : float;  (* first-divergence instant; < 0 = no change conveyed *)
      payload : View.snapshot;
    }
  | Lsa_refresh
  | View_checkpoint
  | Sample

let setup_hops (pair : Routing.route_pair) =
  List.fold_left
    (fun acc b -> max acc (Path.hops b))
    (Path.hops pair.Routing.primary)
    pair.Routing.backups

let pair_links (pair : Routing.route_pair) =
  Path.links pair.Routing.primary
  @ List.concat_map Path.links pair.Routing.backups

let pair_signature (pair : Routing.route_pair) =
  Path.links pair.Routing.primary :: List.map Path.links pair.Routing.backups

let run ?(config = default_config) ?partition ~graph ~capacity ~scenario ~warmup
    ~horizon ~sample_every () =
  let part =
    match partition with
    | Some p -> p
    | None -> Partition.create ~seed:config.partition_seed graph ~parts:config.parts
  in
  let parts = Partition.parts part in
  let truth =
    Net_state.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed
  in
  let views = Array.init parts (fun _ -> View.create truth) in
  let engine : event Engine.t = Engine.create () in
  let stats =
    {
      requests = 0;
      accepted = 0;
      rejected_no_route = 0;
      intra_shard = 0;
      inter_shard = 0;
      setup_failures = 0;
      crankbacks = 0;
      lost_after_retries = 0;
      released = 0;
      lsa_originated = 0;
      lsa_dropped = 0;
      retransmits = 0;
      setup_dropped = 0;
      ack_dropped = 0;
      stale_decisions = 0;
      divergent_decisions = 0;
      shard_crashes = 0;
      view_rollbacks = 0;
      view_checkpoints = 0;
    }
  in
  let links = Graph.link_count graph in
  (* LSA sequencing and damping. *)
  let lsa_seq = Array.make links 0 in
  let lsa_next_ok = Array.make links 0.0 in
  let lsa_scheduled = Array.make links false in
  (* Per-shard receiver state: last applied sequence number and its
     origination time (the advertisement's age baseline). *)
  let applied = Array.make_matrix parts links 0 in
  let applied_origin = Array.make_matrix parts links 0.0 in
  (* First instant a link's truth diverged from its last advertisement
     (< 0 = clean) — the convergence-lag clock. *)
  let dirty_since = Array.make links (-1.0) in
  (* In-memory LSDB checkpoints: per-shard copies of the applied-sequence
     rows and of every view entry, captured periodically.  A crashed shard
     loses its LSDB and restarts from the latest checkpoint; the regressed
     applied sequence numbers let newer (refresh) LSAs re-apply, which is
     how the shard re-converges. *)
  let view_entry v l =
    {
      View.s_free = View.free v l;
      s_avail = View.available_for_backup v l;
      s_norm1 = View.norm1 v l;
      s_cv = View.conflict_vector v l;
    }
  in
  let ck_applied = Array.make_matrix parts links 0 in
  let ck_origin = Array.make_matrix parts links 0.0 in
  let ck_snap =
    Array.init parts (fun s -> Array.init links (view_entry views.(s)))
  in
  let ck_version = ref 0 in
  let take_checkpoint () =
    for s = 0 to parts - 1 do
      Array.blit applied.(s) 0 ck_applied.(s) 0 links;
      Array.blit applied_origin.(s) 0 ck_origin.(s) 0 links;
      for l = 0 to links - 1 do
        ck_snap.(s).(l) <- view_entry views.(s) l
      done
    done;
    incr ck_version;
    stats.view_checkpoints <- stats.view_checkpoints + 1
  in
  let crash_points =
    ref
      (if config.crash_mean_gap > 0.0 then
         Faults.crash_schedule ~seed:config.crash_seed
           ~mean_gap:config.crash_mean_gap ~horizon:(Scenario.length scenario) ()
       else [])
  in
  let op_ord = ref 0 in
  let crash_shard now ~ord =
    let s = ord mod parts in
    stats.shard_crashes <- stats.shard_crashes + 1;
    if !J.on then begin
      J.set_now now;
      J.record (J.Crash_injected { at_batch = ord; wal_seq = !ck_version })
    end;
    let rolled = ref 0 in
    for l = 0 to links - 1 do
      if applied.(s).(l) > ck_applied.(s).(l) then incr rolled
    done;
    Array.blit ck_applied.(s) 0 applied.(s) 0 links;
    Array.blit ck_origin.(s) 0 applied_origin.(s) 0 links;
    for l = 0 to links - 1 do
      View.set_snapshot views.(s) l ck_snap.(s).(l)
    done;
    (* A restarting router re-reads its own links from its interfaces:
       own-shard entries come back fresh from the ground truth. *)
    for l = 0 to links - 1 do
      if Partition.owner_of_link part l = s then
        View.refresh_link views.(s) truth l
    done;
    stats.view_rollbacks <- stats.view_rollbacks + !rolled;
    if !J.on then
      J.record
        (J.Recovery_replayed
           {
             checkpoint_seq = !ck_version;
             replayed = !rolled;
             conns = Net_state.active_count truth;
           })
  in
  let maybe_crash now =
    incr op_ord;
    match !crash_points with
    | next :: rest when next = !op_ord ->
        crash_points := rest;
        crash_shard now ~ord:!op_ord
    | _ -> ()
  in
  let rto_backoff =
    Backoff.make ~base:config.setup_rto ~max_attempts:config.max_retransmits ()
  in
  let crank = Backoff.make ~base:0.0 ~max_attempts:config.max_retries () in
  let released_early = Hashtbl.create 16 in
  (* Causal tracing: one [shard-setup] root per in-flight request plus its
     current attempt child; crankbacks chain attempts by cause edges.  One
     [lsa] root per origination, closed when its last scheduled delivery
     lands (per-destination [flight] leaves).  Touched only when the
     journal is on. *)
  let setup_spans : (int, C.span * float * C.span * float) Hashtbl.t =
    Hashtbl.create 16
  in
  let lsa_spans : (int * int, C.span * float * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  (* Omniscient comparator: an always-fresh view routed with exactly the
     same algorithm as the shards' LSDBs, so a divergent decision measures
     staleness and nothing else (and, unlike {!Routing.link_state_route_fn},
     routing it records no journal events). *)
  let view_omni = View.create truth in
  (* Measurement accumulators. *)
  let attempts = ref 0 and successes = ref 0 in
  let staleness = Summary.create () in
  let ages = Summary.create () in
  let conv_lag = Summary.create () in
  let cursor = ref warmup in
  let active_time = ref 0.0 in
  let integrate_to t =
    let t = min t horizon in
    if t > !cursor then begin
      active_time :=
        !active_time
        +. (float_of_int (Net_state.active_count truth) *. (t -. !cursor));
      cursor := t
    end
  in
  let trigger_lsa now l =
    if not lsa_scheduled.(l) then begin
      lsa_scheduled.(l) <- true;
      Engine.schedule engine ~at:(max now lsa_next_ok.(l)) (Lsa_originate l)
    end
  in
  (* A link's ground truth changed: its owner's own view refreshes
     synchronously; other shards must wait for an advertisement. *)
  let touch now l =
    View.refresh_link views.(Partition.owner_of_link part l) truth l;
    if parts > 1 then begin
      View.refresh_link view_omni truth l;
      if dirty_since.(l) < 0.0 then dirty_since.(l) <- now;
      trigger_lsa now l
    end
  in
  let touch_pair now pair = List.iter (touch now) (pair_links pair) in
  let originate now l =
    lsa_seq.(l) <- lsa_seq.(l) + 1;
    let sq = lsa_seq.(l) in
    let payload = View.snapshot truth l in
    let dirty = dirty_since.(l) in
    dirty_since.(l) <- -1.0;
    let owner = Partition.owner_of_link part l in
    stats.lsa_originated <- stats.lsa_originated + 1;
    if !J.on then
      J.record (J.Lsa_originated { shard = owner; link = l; lsa_seq = sq });
    let sp_lsa = if !J.on then C.root ~conn:l ~t0:now "lsa" else C.null in
    let scheduled = ref 0 in
    for d = 0 to parts - 1 do
      if d <> owner then
        match config.faults with
        | Some f when not (Faults.deliver f Faults.Lsa) ->
            stats.lsa_dropped <- stats.lsa_dropped + 1;
            if !J.on then J.record (J.Message_dropped { cls = "lsa"; id = l })
        | _ ->
            incr scheduled;
            Engine.schedule engine ~at:(now +. config.lsa_flood_delay)
              (Lsa_deliver
                 { dst_shard = d; link = l; lsa_seq = sq; origin = now; dirty; payload })
    done;
    if !J.on then begin
      if !scheduled = 0 then
        (* Every copy was dropped (or the origination had no remote
           audience): the dissemination never leaves the origin. *)
        C.close sp_lsa ~dur:0.0
      else Hashtbl.replace lsa_spans (l, sq) (sp_lsa, now, ref !scheduled)
    end
  in
  let release_now now conn =
    match Net_state.find truth conn with
    | None -> ()
    | Some c ->
        let pair =
          { Routing.primary = c.Net_state.primary; backups = c.Net_state.backups }
        in
        Net_state.release truth ~id:conn;
        stats.released <- stats.released + 1;
        touch_pair now pair
  in
  let commit now ~conn ~bw (pair : Routing.route_pair) =
    ignore
      (Net_state.admit truth ~id:conn ~bw ~primary:pair.Routing.primary
         ~backups:pair.Routing.backups);
    stats.accepted <- stats.accepted + 1;
    if !J.on then begin
      match Hashtbl.find_opt setup_spans conn with
      | Some (sp_root, root_t0, sp_att, att_t0) ->
          C.close sp_att ~dur:(now -. att_t0);
          C.close sp_root ~dur:(now -. root_t0);
          Hashtbl.remove setup_spans conn
      | None -> ()
    end;
    touch_pair now pair;
    if Hashtbl.mem released_early conn then begin
      Hashtbl.remove released_early conn;
      release_now now conn
    end
  in
  let route_from_view shard ~src ~dst ~bw =
    View.route views.(shard) truth ~scheme:config.scheme
      ~backup_count:config.backup_count ~src ~dst ~bw
  in
  let launch_setup now ~conn ~bw ~attempt ?(retransmit = 0) ~shard pair =
    match config.faults with
    | Some f when not (Faults.deliver f Faults.Setup) ->
        stats.setup_dropped <- stats.setup_dropped + 1;
        if !J.on then J.record (J.Message_dropped { cls = "setup"; id = conn });
        let wait = Backoff.delay rto_backoff ~attempt:(retransmit + 1) in
        let wait_leaf phase =
          if !J.on then
            match Hashtbl.find_opt setup_spans conn with
            | Some (_, _, sp_att, _) ->
                C.leaf ~parent:sp_att ~conn ~t0:now ~dur:wait phase
            | None -> ()
        in
        if Backoff.exhausted rto_backoff ~attempt:retransmit then begin
          wait_leaf "timeout-wait";
          Engine.schedule engine ~at:(now +. wait)
            (Setup_abandoned { conn; bw; attempt; shard; pair })
        end
        else begin
          stats.retransmits <- stats.retransmits + 1;
          if !J.on then
            J.record (J.Retransmit { cls = "setup"; conn; attempt = retransmit + 1 });
          wait_leaf "retransmit-wait";
          Engine.schedule engine ~at:(now +. wait)
            (Setup_retransmit
               { conn; bw; attempt; retransmit = retransmit + 1; shard; pair })
        end
    | _ ->
        Engine.schedule engine
          ~at:(now +. (config.hop_delay *. float_of_int (setup_hops pair)))
          (Setup_arrival { conn; bw; attempt; shard; pair })
  in
  (* Route an admission decision to its commit path: an all-own-links route
     commits synchronously (exact state); anything else is an inter-shard
     handshake decided on possibly-stale advertisements, so record the
     decision's staleness metrics before launching it. *)
  let dispatch now ~conn ~bw ~attempt ~shard (pair : Routing.route_pair) =
    let route_links = pair_links pair in
    let remote =
      List.filter (fun l -> Partition.owner_of_link part l <> shard) route_links
    in
    if remote = [] then begin
      stats.intra_shard <- stats.intra_shard + 1;
      commit now ~conn ~bw pair
    end
    else begin
      stats.stale_decisions <- stats.stale_decisions + 1;
      let age =
        List.fold_left
          (fun acc l -> acc +. (now -. applied_origin.(shard).(l)))
          0.0 remote
        /. float_of_int (List.length remote)
      in
      Summary.add ages age;
      let src = Path.src pair.Routing.primary
      and dst = Path.dst pair.Routing.primary in
      let divergent =
        match
          View.route view_omni truth ~scheme:config.scheme
            ~backup_count:config.backup_count ~src ~dst ~bw
        with
        | Ok opair -> pair_signature pair <> pair_signature opair
        | Error _ -> true
      in
      if divergent then
        stats.divergent_decisions <- stats.divergent_decisions + 1;
      if !J.on then begin
        J.record (J.Stale_decision { conn; age; divergent });
        (* The decision instant leaves a marker leaf on the attempt; its
           cost (if the staleness bites) shows up as the crankback chain
           this attempt causes. *)
        match Hashtbl.find_opt setup_spans conn with
        | Some (_, _, sp_att, _) ->
            C.leaf ~parent:sp_att ~conn ~t0:now ~dur:0.0 "stale-decision"
        | None -> ()
      end;
      let shards =
        List.length
          (List.sort_uniq compare
             (shard :: List.map (Partition.owner_of_link part) route_links))
      in
      stats.inter_shard <- stats.inter_shard + 1;
      if !J.on then
        J.record (J.Shard_setup { conn; shards; attempt = attempt + 1 });
      launch_setup now ~conn ~bw ~attempt ~shard pair
    end
  in
  (* Stale-view rejection: the reject notice piggybacks fresh snapshots of
     the failed route's remote links (PNNI-style crankback), which the
     source applies seq-checked before re-routing. *)
  let crankback now ~conn ~bw ~attempt ~shard ~reason (pair : Routing.route_pair)
      =
    (* Close the failing attempt; a retry's fresh attempt span is
       cause-chained to it so crankback storms read as causal chains. *)
    let entry = if !J.on then Hashtbl.find_opt setup_spans conn else None in
    (match entry with
    | Some (_, _, sp_att, att_t0) -> C.close sp_att ~dur:(now -. att_t0)
    | None -> ());
    let lost () =
      stats.lost_after_retries <- stats.lost_after_retries + 1;
      match entry with
      | Some (sp_root, root_t0, _, _) ->
          C.close sp_root ~dur:(now -. root_t0);
          Hashtbl.remove setup_spans conn
      | None -> ()
    in
    if Backoff.exhausted crank ~attempt then lost ()
    else begin
      stats.crankbacks <- stats.crankbacks + 1;
      if !J.on then
        J.record (J.Shard_crankback { conn; attempt = attempt + 1; reason });
      List.iter
        (fun l ->
          if Partition.owner_of_link part l <> shard then begin
            applied.(shard).(l) <- lsa_seq.(l);
            applied_origin.(shard).(l) <- now;
            View.refresh_link views.(shard) truth l
          end)
        (pair_links pair);
      match
        route_from_view shard ~src:(Path.src pair.Routing.primary)
          ~dst:(Path.dst pair.Routing.primary) ~bw
      with
      | Error _ -> lost ()
      | Ok pair' ->
          (match entry with
          | Some (sp_root, root_t0, sp_att, _) ->
              let sp' =
                C.child ~cause:sp_att ~conn ~t0:now ~parent:sp_root "attempt"
              in
              Hashtbl.replace setup_spans conn (sp_root, root_t0, sp', now)
          | None -> ());
          dispatch now ~conn ~bw ~attempt:(attempt + 1) ~shard pair'
    end
  in
  (* The destination's ACK back to the source, drawn analytically with the
     same retransmission budget (a duplicate setup re-elicits it). *)
  let ack_delivered ~conn =
    match config.faults with
    | None -> true
    | Some f ->
        let rec go k =
          if Faults.deliver f Faults.Ack then true
          else begin
            stats.ack_dropped <- stats.ack_dropped + 1;
            if !J.on then J.record (J.Message_dropped { cls = "ack"; id = conn });
            if Backoff.exhausted rto_backoff ~attempt:k then false
            else begin
              stats.retransmits <- stats.retransmits + 1;
              if !J.on then
                J.record (J.Retransmit { cls = "ack"; conn; attempt = k + 1 });
              go (k + 1)
            end
          end
        in
        go 0
  in
  let handler engine event =
    let now = Engine.now engine in
    integrate_to now;
    match event with
    | Workload { event = Scenario.Request { conn; src; dst; bw; duration = _ }; _ }
      -> (
        maybe_crash now;
        stats.requests <- stats.requests + 1;
        let shard = Partition.region_of_node part src in
        match route_from_view shard ~src ~dst ~bw with
        | Error _ ->
            stats.rejected_no_route <- stats.rejected_no_route + 1;
            if !J.on then begin
              (* Rejected before any packet left: a zero-length trace. *)
              let sp = C.root ~conn ~t0:now "shard-setup" in
              C.close sp ~dur:0.0
            end
        | Ok pair ->
            if !J.on then begin
              let sp_root = C.root ~conn ~t0:now "shard-setup" in
              let sp_att = C.child ~conn ~t0:now ~parent:sp_root "attempt" in
              Hashtbl.replace setup_spans conn (sp_root, now, sp_att, now)
            end;
            dispatch now ~conn ~bw ~attempt:0 ~shard pair)
    | Workload { event = Scenario.Release { conn }; _ } -> (
        maybe_crash now;
        match Net_state.find truth conn with
        | None ->
            (* Setup still in flight (or the request was rejected): remember
               so an eventual admission is immediately torn down. *)
            Hashtbl.replace released_early conn ()
        | Some c ->
            let pair =
              {
                Routing.primary = c.Net_state.primary;
                backups = c.Net_state.backups;
              }
            in
            let shard = Partition.region_of_node part (Path.src c.Net_state.primary) in
            if
              List.for_all
                (fun l -> Partition.owner_of_link part l = shard)
                (pair_links pair)
            then release_now now conn
            else
              Engine.schedule engine
                ~at:(now +. (config.hop_delay *. float_of_int (setup_hops pair)))
                (Teardown_arrival conn))
    | Teardown_arrival conn -> release_now now conn
    | Setup_arrival { conn; bw; attempt; shard; pair } ->
        if
          Net_state.admissible truth ~bw ~primary:pair.Routing.primary
            ~backups:pair.Routing.backups
        then begin
          if ack_delivered ~conn then commit now ~conn ~bw pair
          else begin
            (* Every ACK copy was lost: the destination's reservation times
               out and the source, none the wiser, cranks back. *)
            stats.setup_failures <- stats.setup_failures + 1;
            crankback now ~conn ~bw ~attempt ~shard ~reason:"ack-lost" pair
          end
        end
        else begin
          stats.setup_failures <- stats.setup_failures + 1;
          crankback now ~conn ~bw ~attempt ~shard ~reason:"stale-reject" pair
        end
    | Setup_retransmit { conn; bw; attempt; retransmit; shard; pair } ->
        launch_setup now ~conn ~bw ~attempt ~retransmit ~shard pair
    | Setup_abandoned { conn; bw; attempt; shard; pair } ->
        stats.setup_failures <- stats.setup_failures + 1;
        crankback now ~conn ~bw ~attempt ~shard ~reason:"abandoned" pair
    | Lsa_originate l ->
        lsa_scheduled.(l) <- false;
        lsa_next_ok.(l) <- now +. config.lsa_interval;
        originate now l
    | Lsa_refresh ->
        for l = 0 to links - 1 do
          originate now l
        done;
        if now +. config.lsa_refresh <= horizon then
          Engine.schedule engine ~at:(now +. config.lsa_refresh) Lsa_refresh
    | View_checkpoint ->
        take_checkpoint ();
        if
          config.view_checkpoint_every > 0.0
          && now +. config.view_checkpoint_every <= horizon
        then
          Engine.schedule engine
            ~at:(now +. config.view_checkpoint_every)
            View_checkpoint
    | Lsa_deliver { dst_shard; link; lsa_seq = sq; origin; dirty; payload } ->
        if !J.on then begin
          match Hashtbl.find_opt lsa_spans (link, sq) with
          | Some (sp, t0, remaining) ->
              C.leaf ~conn:link ~t0 ~dur:(now -. t0) ~parent:sp "flight";
              decr remaining;
              if !remaining = 0 then begin
                C.close sp ~dur:(now -. t0);
                Hashtbl.remove lsa_spans (link, sq)
              end
          | None -> ()
        end;
        if sq > applied.(dst_shard).(link) then begin
          applied.(dst_shard).(link) <- sq;
          applied_origin.(dst_shard).(link) <- origin;
          View.set_snapshot views.(dst_shard) link payload;
          let lag = if dirty >= 0.0 then now -. dirty else 0.0 in
          if dirty >= 0.0 then Summary.add conv_lag lag;
          if !J.on then
            J.record (J.Lsa_delivered { shard = dst_shard; link; lsa_seq = sq; lag })
        end
    | Sample ->
        let r = Drtp.Failure_eval.evaluate truth in
        attempts := !attempts + r.Drtp.Failure_eval.attempts;
        successes := !successes + r.Drtp.Failure_eval.successes;
        let stale = ref 0 in
        for i = 0 to parts - 1 do
          stale := !stale + View.staleness_count views.(i) truth
        done;
        Summary.add staleness (float_of_int !stale /. float_of_int parts)
  in
  Scenario.iter scenario (fun item ->
      if item.Scenario.time <= horizon then
        Engine.schedule engine ~at:item.Scenario.time (Workload item));
  let rec schedule_samples t =
    if t <= horizon then begin
      Engine.schedule engine ~at:t Sample;
      schedule_samples (t +. sample_every)
    end
  in
  schedule_samples warmup;
  if parts > 1 && config.lsa_refresh > 0.0 && config.lsa_refresh <= horizon then
    Engine.schedule engine ~at:config.lsa_refresh Lsa_refresh;
  if
    config.view_checkpoint_every > 0.0
    && config.view_checkpoint_every <= horizon
  then Engine.schedule engine ~at:config.view_checkpoint_every View_checkpoint;
  Engine.run engine ~handler;
  integrate_to horizon;
  let window = horizon -. warmup in
  {
    stats;
    cut_edges = Partition.cut_edges part;
    acceptance =
      (if stats.requests = 0 then 1.0
       else float_of_int stats.accepted /. float_of_int stats.requests);
    ft_overall =
      (if !attempts = 0 then 1.0
       else float_of_int !successes /. float_of_int !attempts);
    avg_active = (if window > 0.0 then !active_time /. window else 0.0);
    lsa_per_second =
      (if horizon > 0.0 then float_of_int stats.lsa_originated /. horizon
       else 0.0);
    avg_staleness =
      (if Summary.count staleness = 0 then 0.0 else Summary.mean staleness);
    decision_age_mean = (if Summary.count ages = 0 then 0.0 else Summary.mean ages);
    convergence_lag_mean =
      (if Summary.count conv_lag = 0 then 0.0 else Summary.mean conv_lag);
    convergence_lag_max =
      (if Summary.count conv_lag = 0 then 0.0 else Summary.max_value conv_lag);
    divergence_fraction =
      (if stats.stale_decisions = 0 then 0.0
       else
         float_of_int stats.divergent_decisions
         /. float_of_int stats.stale_decisions);
  }
