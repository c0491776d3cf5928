module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Scenario = Dr_sim.Scenario
module Engine = Dr_sim.Engine
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing
module Faults = Dr_faults.Faults
module Backoff = Dr_faults.Backoff
module J = Dr_obs.Journal
module C = Dr_obs.Journal.Causal

type config = {
  scheme : Drtp.Routing.scheme;
  backup_count : int;
  min_lsa_interval : float;
  lsa_flood_delay : float;
  hop_delay : float;
  max_retries : int;
  faults : Dr_faults.Faults.t option;
  setup_rto : float;
  max_retransmits : int;
}

let default_config =
  {
    scheme = Routing.Dlsr;
    backup_count = 1;
    min_lsa_interval = 5.0;
    lsa_flood_delay = 0.050;
    hop_delay = 0.001;
    max_retries = 1;
    faults = None;
    setup_rto = 0.050;
    max_retransmits = 4;
  }

type stats = {
  mutable requests : int;
  mutable accepted : int;
  mutable rejected_no_route : int;
  mutable setup_failures : int;
  mutable retries : int;
  mutable lost_after_retries : int;
  mutable lsa_originated : int;
  mutable released : int;
  mutable retransmits : int;
  mutable setup_dropped : int;
  mutable ack_dropped : int;
}

type result = {
  stats : stats;
  ft_overall : float;
  avg_active : float;
  acceptance : float;
  lsa_per_second : float;
  avg_staleness : float;
}

type event =
  | Workload of Scenario.item
  | Setup_arrival of {
      conn : int;
      bw : int;
      attempt : int;
      pair : Routing.route_pair;
    }
  | Setup_retransmit of {
      conn : int;
      bw : int;
      attempt : int;
      retransmit : int;  (* resends already performed, this copy included *)
      pair : Routing.route_pair;
    }
  | Setup_abandoned of {
      conn : int;
      bw : int;
      attempt : int;
      pair : Routing.route_pair;
    }
  | Lsa_originate of int  (* directed link *)
  | Lsa_deliver of int
  | Sample

let setup_hops (pair : Routing.route_pair) =
  (* Primary and backup confirmations run simultaneously (§4.4); the setup
     completes when the longest one lands. *)
  List.fold_left
    (fun acc b -> max acc (Path.hops b))
    (Path.hops pair.Routing.primary)
    pair.Routing.backups

let run ?(config = default_config) ~graph ~capacity ~scenario ~warmup ~horizon
    ~sample_every () =
  let state = Net_state.create ~graph ~capacity ~spare_policy:Net_state.Multiplexed in
  let view = Advertised_view.create state in
  let engine : event Engine.t = Engine.create () in
  let stats =
    {
      requests = 0;
      accepted = 0;
      rejected_no_route = 0;
      setup_failures = 0;
      retries = 0;
      lost_after_retries = 0;
      lsa_originated = 0;
      released = 0;
      retransmits = 0;
      setup_dropped = 0;
      ack_dropped = 0;
    }
  in
  (* Retransmission pacing for lossy setup/ACK signalling; only consulted
     when a fault plan is installed. *)
  let rto_backoff =
    Backoff.make ~base:config.setup_rto ~max_attempts:config.max_retransmits ()
  in
  (* Crankback retry budget, expressed through the shared helper (no
     inter-retry delay: the failure notice itself already travelled back). *)
  let crank = Backoff.make ~base:0.0 ~max_attempts:config.max_retries () in
  let links = Graph.link_count graph in
  let lsa_next_ok = Array.make links 0.0 in
  let lsa_scheduled = Array.make links false in
  (* Releases that arrived while the connection's setup was in flight. *)
  let released_early = Hashtbl.create 16 in
  (* Causal tracing: one [setup] root per request still in flight, plus the
     current attempt child (crankback chains attempts by cause edges).  The
     tables are only touched when the journal is on. *)
  let setup_spans : (int, C.span * float * C.span * float) Hashtbl.t =
    Hashtbl.create 16
  in
  (* Per-link FIFO of in-flight [lsa] root spans, paired by the matching
     [Lsa_deliver] (deliveries for one link are processed in order). *)
  let lsa_pending : (C.span * float) list array = Array.make links [] in
  (* Measurement accumulators. *)
  let attempts = ref 0 and successes = ref 0 in
  let samples = ref 0 in
  let staleness = Dr_stats.Summary.create () in
  let cursor = ref warmup in
  let active_time = ref 0.0 in
  let integrate_to t =
    let t = min t horizon in
    if t > !cursor then begin
      active_time :=
        !active_time +. (float_of_int (Net_state.active_count state) *. (t -. !cursor));
      cursor := t
    end
  in
  let trigger_lsa now l =
    if not lsa_scheduled.(l) then begin
      lsa_scheduled.(l) <- true;
      Engine.schedule engine ~at:(max now lsa_next_ok.(l)) (Lsa_originate l)
    end
  in
  let trigger_path_lsas now (p : Path.t) =
    List.iter (fun l -> trigger_lsa now l) (Path.links p)
  in
  let trigger_pair_lsas now (pair : Routing.route_pair) =
    trigger_path_lsas now pair.Routing.primary;
    List.iter (trigger_path_lsas now) pair.Routing.backups
  in
  let route_from_view ~src ~dst ~bw =
    Advertised_view.route view state ~scheme:config.scheme
      ~backup_count:config.backup_count ~src ~dst ~bw
  in
  (* Send one copy of the setup packet: [retransmit] copies were already
     lost.  A lost copy times out at the source and is resent after a
     doubling RTO ([Setup_retransmit] on the engine queue); an exhausted
     budget abandons the setup after one final timeout. *)
  let launch_setup now ~conn ~bw ~attempt ?(retransmit = 0) pair =
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
            (Setup_abandoned { conn; bw; attempt; pair })
        end
        else begin
          stats.retransmits <- stats.retransmits + 1;
          if !J.on then
            J.record (J.Retransmit { cls = "setup"; conn; attempt = retransmit + 1 });
          wait_leaf "retransmit-wait";
          Engine.schedule engine ~at:(now +. wait)
            (Setup_retransmit { conn; bw; attempt; retransmit = retransmit + 1; pair })
        end
    | _ ->
        Engine.schedule engine
          ~at:(now +. (config.hop_delay *. float_of_int (setup_hops pair)))
          (Setup_arrival { conn; bw; attempt; pair })
  in
  (* Crankback: the failure notice travels back and the source re-routes
     on whatever the view says by then. *)
  let crankback now ~conn ~bw ~attempt (pair : Routing.route_pair) =
    (* The failing attempt's span closes here; a retry opens the next
       attempt cause-chained to it, so crankback storms read as an
       attempt -> attempt -> ... causal chain in the trace. *)
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
    if not (Backoff.exhausted crank ~attempt) then begin
      stats.retries <- stats.retries + 1;
      match
        route_from_view ~src:(Path.src pair.Routing.primary)
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
          launch_setup now ~conn ~bw ~attempt:(attempt + 1) pair'
    end
    else lost ()
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
            if !J.on then
              J.record (J.Message_dropped { cls = "ack"; id = conn });
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
        stats.requests <- stats.requests + 1;
        match route_from_view ~src ~dst ~bw with
        | Error _ ->
            stats.rejected_no_route <- stats.rejected_no_route + 1;
            if !J.on then begin
              (* Rejected before any packet left: a zero-length trace. *)
              let sp = C.root ~conn ~t0:now "setup" in
              C.close sp ~dur:0.0
            end
        | Ok pair ->
            if !J.on then begin
              let sp_root = C.root ~conn ~t0:now "setup" in
              let sp_att = C.child ~conn ~t0:now ~parent:sp_root "attempt" in
              Hashtbl.replace setup_spans conn (sp_root, now, sp_att, now)
            end;
            launch_setup now ~conn ~bw ~attempt:0 pair)
    | Workload { event = Scenario.Release { conn }; _ } -> (
        match Net_state.find state conn with
        | Some c ->
            let touched =
              Path.links c.Net_state.primary
              @ List.concat_map Path.links c.Net_state.backups
            in
            Net_state.release state ~id:conn;
            stats.released <- stats.released + 1;
            List.iter (fun l -> trigger_lsa now l) touched
        | None ->
            (* Setup still in flight (or the request was rejected): remember
               so an eventual admission is immediately torn down. *)
            Hashtbl.replace released_early conn ())
    | Setup_arrival { conn; bw; attempt; pair } ->
        if
          Net_state.admissible state ~bw ~primary:pair.Routing.primary
            ~backups:pair.Routing.backups
        then begin
          if ack_delivered ~conn then begin
            ignore
              (Net_state.admit state ~id:conn ~bw ~primary:pair.Routing.primary
                 ~backups:pair.Routing.backups);
            stats.accepted <- stats.accepted + 1;
            if !J.on then begin
              (match Hashtbl.find_opt setup_spans conn with
              | Some (sp_root, root_t0, sp_att, att_t0) ->
                  C.close sp_att ~dur:(now -. att_t0);
                  C.close sp_root ~dur:(now -. root_t0);
                  Hashtbl.remove setup_spans conn
              | None -> ())
            end;
            trigger_pair_lsas now pair;
            if Hashtbl.mem released_early conn then begin
              Hashtbl.remove released_early conn;
              Net_state.release state ~id:conn;
              stats.released <- stats.released + 1
            end
          end
          else begin
            (* Every ACK copy was lost: the destination's reservation times
               out and the source, none the wiser, cranks back. *)
            stats.setup_failures <- stats.setup_failures + 1;
            crankback now ~conn ~bw ~attempt pair
          end
        end
        else begin
          stats.setup_failures <- stats.setup_failures + 1;
          crankback now ~conn ~bw ~attempt pair
        end
    | Setup_retransmit { conn; bw; attempt; retransmit; pair } ->
        launch_setup now ~conn ~bw ~attempt ~retransmit pair
    | Setup_abandoned { conn; bw; attempt; pair } ->
        (* Setup retransmissions exhausted: charged like a setup failure,
           with the same crankback chances. *)
        stats.setup_failures <- stats.setup_failures + 1;
        crankback now ~conn ~bw ~attempt pair
    | Lsa_originate l ->
        lsa_scheduled.(l) <- false;
        lsa_next_ok.(l) <- now +. config.min_lsa_interval;
        stats.lsa_originated <- stats.lsa_originated + 1;
        if !J.on then begin
          (* One [lsa] trace per origination, closed at delivery; the conn
             field carries the directed link id. *)
          let sp = C.root ~conn:l ~t0:now "lsa" in
          lsa_pending.(l) <- lsa_pending.(l) @ [ (sp, now) ]
        end;
        Engine.schedule engine ~at:(now +. config.lsa_flood_delay) (Lsa_deliver l)
    | Lsa_deliver l ->
        if !J.on then begin
          match lsa_pending.(l) with
          | (sp, t0) :: rest ->
              lsa_pending.(l) <- rest;
              C.leaf ~conn:l ~t0 ~dur:(now -. t0) ~parent:sp "flight";
              C.close sp ~dur:(now -. t0)
          | [] -> ()
        end;
        Advertised_view.refresh_link view state l
    | Sample ->
        incr samples;
        let r = Drtp.Failure_eval.evaluate state in
        attempts := !attempts + r.Drtp.Failure_eval.attempts;
        successes := !successes + r.Drtp.Failure_eval.successes;
        Dr_stats.Summary.add staleness
          (float_of_int (Advertised_view.staleness_count view state))
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
  Engine.run engine ~handler;
  integrate_to horizon;
  let window = horizon -. warmup in
  {
    stats;
    ft_overall =
      (if !attempts = 0 then 1.0
       else float_of_int !successes /. float_of_int !attempts);
    avg_active = (if window > 0.0 then !active_time /. window else 0.0);
    acceptance =
      (if stats.requests = 0 then 1.0
       else float_of_int stats.accepted /. float_of_int stats.requests);
    lsa_per_second =
      (if horizon > 0.0 then float_of_int stats.lsa_originated /. horizon else 0.0);
    avg_staleness =
      (if Dr_stats.Summary.count staleness = 0 then 0.0
       else Dr_stats.Summary.mean staleness);
  }
