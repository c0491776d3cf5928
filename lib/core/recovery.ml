module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module J = Dr_obs.Journal
module C = Dr_obs.Journal.Causal
module Faults = Dr_faults.Faults
module Backoff = Dr_faults.Backoff

type timing = {
  detection_delay : float;
  link_delay : float;
  route_computation : float;
  retry_backoff : float;
  max_retries : int;
}

let default_timing =
  {
    detection_delay = 0.010;
    link_delay = 0.001;
    route_computation = 0.005;
    retry_backoff = 0.100;
    max_retries = 3;
  }

type retrans = { rto : float; max_retransmits : int }

let default_retrans = { rto = 0.050; max_retransmits = 4 }

type outcome =
  | Switched of { latency : float; reprotected : bool }
  | Rerouted of { latency : float; retries : int }
  | Lost of { latency : float }

let outcome_is_recovered = function
  | Switched _ | Rerouted _ -> true
  | Lost _ -> false

type report = {
  edge : int;
  failed_edges : int list;
  outcomes : (int * outcome) list;
  backups_rerouted : int;
  backups_unprotected : int;
  unprotected_ids : int list;
  retransmits : int;
  messages_dropped : int;
}

let recovered_fraction r =
  match r.outcomes with
  | [] -> 1.0
  | outcomes ->
      let recovered =
        List.length (List.filter (fun (_, o) -> outcome_is_recovered o) outcomes)
      in
      float_of_int recovered /. float_of_int (List.length outcomes)

(* Hops from the connection's source to the first primary hop in the failed
   set: that hop's upstream endpoint detects the failure, and its report
   reaches the source first. *)
let report_hops (conn : Net_state.conn) edges =
  let rec scan i = function
    | [] -> invalid_arg "Recovery.report_hops: primary does not cross the failed edges"
    | l :: rest ->
        if List.mem (Graph.edge_of_link l) edges then i else scan (i + 1) rest
  in
  scan 0 (Path.links conn.Net_state.primary)

(* One control-plane transmission under the fault plan: redraw after each
   loss until the message gets through or the sender exhausts its
   retransmission budget.  Returns [(delivered, extra)], where [extra] is
   the backoff time the sender slept on timeouts — exactly 0.0 without a
   plan, so zero-fault latencies stay bit-identical to the lossless
   code path. *)
let transmit ~faults ~retrans ~cls ~id ~dropped ~resent ~span ~at =
  match faults with
  | None -> (true, 0.0)
  | Some f ->
      let b =
        Backoff.make ~base:retrans.rto ~max_attempts:retrans.max_retransmits ()
      in
      let rec go attempt =
        if Faults.deliver f cls then (true, Backoff.total_before b ~attempt)
        else begin
          incr dropped;
          if !J.on then
            J.record (J.Message_dropped { cls = Faults.cls_name cls; id });
          if Backoff.exhausted b ~attempt then begin
            (* The sender learns of the final loss by one more timeout. *)
            if !J.on then
              C.leaf ~parent:span ~conn:id
                ~t0:(at +. Backoff.total_before b ~attempt)
                ~dur:(Backoff.delay b ~attempt:(attempt + 1))
                "timeout-wait";
            (false, Backoff.total_before b ~attempt:(attempt + 1))
          end
          else begin
            incr resent;
            if !J.on then begin
              J.record
                (J.Retransmit
                   { cls = Faults.cls_name cls; conn = id; attempt = attempt + 1 });
              C.leaf ~parent:span ~conn:id
                ~t0:(at +. Backoff.total_before b ~attempt)
                ~dur:(Backoff.delay b ~attempt:(attempt + 1))
                "retransmit-wait"
            end;
            go (attempt + 1)
          end
        end
      in
      go 0

(* What failed, which decides how the state is failed and what the journal
   records.  One edge on its own records [failure-detected] and no chain
   events.  An edge set records [group-failed] (group -1 when it carries no
   group identity) and traces each victim's walk with [chain-failover] and
   [chain-exhausted]; it is failed as SRLG [group] when given, otherwise
   edge by edge. *)
type failure = Edge of int | Edges of { group : int option; edges : int list }

(* DRTP steps 2-4 for one failure event, whatever its size: detect, report,
   switch every victim down its backups in priority order to the first that
   avoids every failed edge and can get its bandwidth, then re-protect. *)
let drtp_failover state ~scheme ?(timing = default_timing) ?(reconfigure = true)
    ?(backup_count = 1) ?faults ?(retrans = default_retrans) failure =
  let edges, chain_events =
    match failure with
    | Edge e -> ([ e ], false)
    | Edges { edges; _ } -> (edges, true)
  in
  (match failure with
  | Edges { group = Some group; _ } -> Net_state.fail_group state ~group
  | Edge _ | Edges { group = None; _ } ->
      List.iter (fun edge -> Net_state.fail_edge state ~edge) edges);
  let crosses p = Path.crosses_any_edge p edges in
  let victims = Net_state.primaries_crossing_edges state ~edges in
  (* Connections whose backups (not primary) die with the failure: collect
     before any promotion changes the tables. *)
  let broken_backups = ref [] in
  Net_state.iter_conns state (fun c ->
      if (not (crosses c.primary)) && List.exists crosses c.backups then
        broken_backups := c.id :: !broken_backups);
  if !J.on then
    J.record
      (match failure with
      | Edge edge -> J.Failure_detected { edge; victims = List.length victims }
      | Edges { group; edges } ->
          J.Group_failed
            {
              group = Option.value group ~default:(-1);
              edges = List.length edges;
              victims = List.length victims;
            });
  let dropped = ref 0 and resent = ref 0 in
  let fallback_unprotected = ref [] in
  let switched = ref [] in
  (* Reactive fallback once a signal's retransmissions are exhausted: tear
     the connection down and try a fresh (unprotected) primary, as the
     reactive scheme would. *)
  let fallback (conn : Net_state.conn) ~sp_root ~base ~spent =
    Net_state.drop state ~id:conn.id;
    match Routing.find_primary state ~src:conn.src ~dst:conn.dst ~bw:conn.bw with
    | Some p ->
        let wire = timing.link_delay *. float_of_int (Path.hops p) in
        let latency = spent +. timing.route_computation +. wire in
        ignore (Net_state.admit state ~id:conn.id ~bw:conn.bw ~primary:p ~backups:[]);
        fallback_unprotected := conn.id :: !fallback_unprotected;
        if !J.on then begin
          C.leaf ~parent:sp_root ~conn:conn.id ~t0:(base +. spent)
            ~dur:timing.route_computation "route-comp";
          C.leaf ~parent:sp_root ~conn:conn.id
            ~t0:(base +. spent +. timing.route_computation)
            ~dur:wire "wire";
          C.close sp_root ~dur:latency;
          J.record (J.Rerouted { conn = conn.id; latency; retries = 0 })
        end;
        `Fell_back latency
    | None ->
        if !J.on then begin
          C.close sp_root ~dur:spent;
          J.record (J.Connection_lost { conn = conn.id; latency = spent })
        end;
        `Lost spent
  in
  (* The backup a victim activates: first in priority order (from position
     [from] on) that survives every failed edge and can get its bandwidth. *)
  let usable_backup ~from (conn : Net_state.conn) =
    let rec scan i = function
      | [] -> None
      | b :: rest ->
          if
            i >= from
            && (not (crosses b))
            && Net_state.activation_feasible state ~id:conn.id ~index:i ()
          then Some (i, b)
          else scan (i + 1) rest
    in
    scan 0 conn.backups
  in
  let tagged =
    List.map
      (fun (conn : Net_state.conn) ->
        let hops = report_hops conn edges in
        let detection = timing.detection_delay in
        let base = J.now () in
        let sp_root =
          if !J.on then C.root ~conn:conn.id "recovery" else C.null
        in
        if !J.on then
          C.leaf ~parent:sp_root ~conn:conn.id ~t0:base ~dur:detection
            "detect";
        let report = timing.link_delay *. float_of_int hops in
        let sp_report =
          if !J.on then
            C.child ~parent:sp_root ~conn:conn.id ~t0:(base +. detection)
              "report"
          else C.null
        in
        let rep_ok, rep_extra =
          transmit ~faults ~retrans ~cls:Faults.Report ~id:conn.id ~dropped
            ~resent ~span:sp_report
            ~at:(base +. detection +. report)
        in
        (* Retransmission time rides on the phase that spent it, so the
           journal's detection/report/activation decomposition still sums
           to the full recovery latency. *)
        let report = report +. rep_extra in
        if !J.on then C.close sp_report ~dur:report;
        let notify = detection +. report in
        if !J.on then
          J.record (J.Report_hop { conn = conn.id; hops; detection; report });
        if not rep_ok then (conn.id, fallback conn ~sp_root ~base ~spent:notify)
        else
          (* Walk the surviving backups in priority order; a lost
             activation signal burns its retransmission budget and falls
             through to the next backup.  [tries] buffers each burned
             member's (start, cost) so the spans can attach to whichever
             phase the outcome settles on (activate vs failover-wasted). *)
          let rec activate from wasted tries tried =
            match usable_backup ~from conn with
            | Some (index, b) ->
                let act_ok, act_extra =
                  transmit ~faults ~retrans ~cls:Faults.Activation ~id:conn.id
                    ~dropped ~resent ~span:C.null ~at:0.0
                in
                if act_ok then begin
                  let wire = timing.link_delay *. float_of_int (Path.hops b) in
                  let activation = wasted +. act_extra +. wire in
                  let latency = notify +. activation in
                  Net_state.promote_backup state ~id:conn.id ~index ();
                  if !J.on then begin
                    let sp_act =
                      C.child ~parent:sp_root ~conn:conn.id
                        ~t0:(base +. notify) "activate"
                    in
                    List.iter
                      (fun (t0, dur) ->
                        C.leaf ~parent:sp_act ~conn:conn.id ~t0 ~dur
                          "failover-wait")
                      (List.rev tries);
                    if act_extra > 0.0 then
                      C.leaf ~parent:sp_act ~conn:conn.id
                        ~t0:(base +. notify +. wasted) ~dur:act_extra
                        "retransmit-wait";
                    C.leaf ~parent:sp_act ~conn:conn.id
                      ~t0:(base +. notify +. wasted +. act_extra) ~dur:wire
                      "wire";
                    C.close sp_act ~dur:activation;
                    C.close sp_root ~dur:latency;
                    J.record
                      (J.Backup_activated
                         { conn = conn.id; index; detection; report; activation });
                    if chain_events then begin
                      let remaining =
                        match Net_state.find state conn.id with
                        | Some c -> List.length c.backups
                        | None -> 0
                      in
                      J.record
                        (J.Chain_failover
                           { conn = conn.id; depth = index; remaining })
                    end
                  end;
                  switched := (conn.id, latency) :: !switched;
                  `Switched latency
                end
                else
                  activate (index + 1) (wasted +. act_extra)
                    (if !J.on then
                       (base +. notify +. wasted, act_extra) :: tries
                     else tries)
                    true
            | None ->
                if chain_events && !J.on then
                  J.record (J.Chain_exhausted { conn = conn.id });
                if tried then begin
                  (* Backups existed, but every activation signal was
                     lost: fall back to a reactive reroute. *)
                  if !J.on then
                    C.leaf ~parent:sp_root ~conn:conn.id ~t0:(base +. notify)
                      ~dur:wasted "failover-wasted";
                  fallback conn ~sp_root ~base ~spent:(notify +. wasted)
                end
                else begin
                  Net_state.drop state ~id:conn.id;
                  if !J.on then begin
                    C.close sp_root ~dur:notify;
                    J.record (J.Backup_contended { conn = conn.id });
                    J.record
                      (J.Connection_lost { conn = conn.id; latency = notify })
                  end;
                  `Lost notify
                end
          in
          (conn.id, activate 0 0.0 [] false))
      victims
  in
  (* DRTP step 4: top the promoted connections and those whose backups died
     back up to [backup_count] backups, with fresh members that avoid the
     still-failed edges' SRLGs. *)
  let reprotected = Hashtbl.create 8 in
  let rerouted = ref 0 and unprotected = ref 0 in
  let step4_unprotected = ref [] in
  if reconfigure then begin
    let top_up id =
      match Net_state.find state id with
      | None -> `Gone (* also a victim, and it was dropped *)
      | Some conn ->
          let surviving = List.filter (fun b -> not (crosses b)) conn.backups in
          let fresh =
            Routing.additional_chain_members scheme state ~primary:conn.primary
              ~bw:conn.bw ~existing:surviving
              ~count:(max 0 (backup_count - List.length surviving))
            |> List.map (fun m -> m.Routing.cm_path)
          in
          (* Drop variant: an earlier victim may have activated through a
             surviving backup's links, converting the spare it needs into
             prime. *)
          let kept =
            Net_state.replace_backups_drop state ~id
              ~backups:(surviving @ fresh)
          in
          if kept = [] then `Unprotected
          else begin
            if !J.on then
              J.record (J.Reprotected { conn = id; fresh = List.length fresh });
            if fresh <> [] then `Rerouted else `Kept
          end
    in
    List.iter
      (fun (id, _) ->
        match top_up id with
        | `Gone -> ()
        | `Unprotected -> step4_unprotected := id :: !step4_unprotected
        | `Rerouted | `Kept -> Hashtbl.replace reprotected id ())
      !switched;
    List.iter
      (fun id ->
        match top_up id with
        | `Gone | `Kept -> ()
        | `Rerouted -> incr rerouted
        | `Unprotected ->
            incr unprotected;
            step4_unprotected := id :: !step4_unprotected)
      !broken_backups
  end;
  let outcomes =
    List.map
      (fun (id, tag) ->
        match tag with
        | `Lost latency -> (id, Lost { latency })
        | `Fell_back latency -> (id, Rerouted { latency; retries = 0 })
        | `Switched latency ->
            (id, Switched { latency; reprotected = Hashtbl.mem reprotected id }))
      tagged
  in
  {
    edge = (match edges with e :: _ -> e | [] -> -1);
    failed_edges = edges;
    outcomes;
    backups_rerouted = !rerouted;
    backups_unprotected = !unprotected;
    unprotected_ids =
      List.rev !fallback_unprotected @ List.rev !step4_unprotected;
    retransmits = !resent;
    messages_dropped = !dropped;
  }

let fail_edge_drtp state ~scheme ?timing ?reconfigure ?backup_count ?faults
    ?retrans ~edge () =
  drtp_failover state ~scheme ?timing ?reconfigure ?backup_count ?faults
    ?retrans (Edge edge)

let fail_edges_drtp state ~scheme ?timing ?reconfigure ?backup_count ?faults
    ?retrans ?group ~edges () =
  drtp_failover state ~scheme ?timing ?reconfigure ?backup_count ?faults
    ?retrans (Edges { group; edges })

let fail_group_drtp state ~scheme ?timing ?reconfigure ?backup_count ?faults
    ?retrans ~group () =
  let edges = Dr_resilience.Srlg.edges_of_group (Net_state.srlg state) group in
  fail_edges_drtp state ~scheme ?timing ?reconfigure ?backup_count ?faults
    ?retrans ~group ~edges ()

(* Remove loops from a node walk: when a node repeats, cut the cycle back
   to its first occurrence (the neighbour that followed the repeat in the
   original walk is also adjacent to the first occurrence). *)
let simplify_walk nodes =
  let rec go acc = function
    | [] -> List.rev acc
    | v :: rest ->
        if List.mem v acc then begin
          let rec cut = function
            | w :: _ as acc' when w = v -> acc'
            | _ :: tl -> cut tl
            | [] -> [ v ]
          in
          go (cut acc) rest
        end
        else go (v :: acc) rest
  in
  go [] nodes

let fail_edge_local_detour state ?(timing = default_timing) ~edge () =
  Net_state.fail_edge state ~edge;
  let graph = Net_state.graph state in
  let victims = Net_state.primaries_crossing_edge state edge in
  if !J.on then
    J.record (J.Failure_detected { edge; victims = List.length victims });
  let outcomes =
    List.map
      (fun (conn : Net_state.conn) ->
        (* The upstream endpoint of the failed link detects and repairs
           locally — no report to the source. *)
        let base = J.now () in
        let sp_root =
          if !J.on then C.root ~conn:conn.id "recovery" else C.null
        in
        let lost_phases latency =
          C.leaf ~parent:sp_root ~conn:conn.id ~t0:base
            ~dur:timing.detection_delay "detect";
          C.leaf ~parent:sp_root ~conn:conn.id
            ~t0:(base +. timing.detection_delay)
            ~dur:timing.route_computation "route-comp";
          C.close sp_root ~dur:latency
        in
        let primary_nodes = Path.nodes graph conn.primary in
        let rec find_failed prefix = function
          | l :: rest when Graph.edge_of_link l <> edge ->
              find_failed (Graph.link_dst graph l :: prefix) rest
          | l :: _ -> (List.rev prefix, Graph.link_src graph l, Graph.link_dst graph l)
          | [] -> invalid_arg "local_detour: primary does not cross the edge"
        in
        let _, u, v =
          find_failed [ List.hd primary_nodes ] (Path.links conn.primary)
        in
        let resources = Net_state.resources state in
        let usable l =
          (not (Net_state.edge_failed state ~edge:(Graph.edge_of_link l)))
          && Resources.free resources l >= conn.bw
        in
        let detour = Dr_topo.Shortest_path.min_hop_path graph ~usable ~src:u ~dst:v () in
        match detour with
        | None ->
            let latency = timing.detection_delay +. timing.route_computation in
            Net_state.drop state ~id:conn.id;
            if !J.on then begin
              lost_phases latency;
              J.record (J.Connection_lost { conn = conn.id; latency })
            end;
            (conn.id, Lost { latency })
        | Some d ->
            (* Splice the detour in place of the failed hop and drop any
               loops the splice created: prefix(..u) @ detour(u..v) @
               suffix(v..). *)
            let rec splice acc = function
              | [] -> List.rev acc
              | n :: rest when n = u ->
                  List.rev acc @ Path.nodes graph d @ skip_until_v rest
              | n :: rest -> splice (n :: acc) rest
            and skip_until_v = function
              | n :: rest when n = v -> rest
              | _ :: rest -> skip_until_v rest
              | [] -> []
            in
            let new_nodes = simplify_walk (splice [] primary_nodes) in
            let new_primary = Path.of_nodes graph new_nodes in
            (try
               Net_state.reroute_primary state ~id:conn.id ~primary:new_primary;
               let wire = timing.link_delay *. float_of_int (Path.hops d) in
               let latency =
                 timing.detection_delay +. timing.route_computation +. wire
               in
               if !J.on then begin
                 C.leaf ~parent:sp_root ~conn:conn.id ~t0:base
                   ~dur:timing.detection_delay "detect";
                 C.leaf ~parent:sp_root ~conn:conn.id
                   ~t0:(base +. timing.detection_delay)
                   ~dur:timing.route_computation "route-comp";
                 C.leaf ~parent:sp_root ~conn:conn.id
                   ~t0:(base +. timing.detection_delay
                        +. timing.route_computation)
                   ~dur:wire "wire";
                 C.close sp_root ~dur:latency;
                 J.record (J.Rerouted { conn = conn.id; latency; retries = 0 })
               end;
               (conn.id, Rerouted { latency; retries = 0 })
             with Invalid_argument _ ->
               let latency = timing.detection_delay +. timing.route_computation in
               Net_state.drop state ~id:conn.id;
               if !J.on then begin
                 lost_phases latency;
                 J.record (J.Connection_lost { conn = conn.id; latency })
               end;
               (conn.id, Lost { latency })))
      victims
  in
  {
    edge;
    failed_edges = [ edge ];
    outcomes;
    backups_rerouted = 0;
    backups_unprotected = 0;
    unprotected_ids = [];
    retransmits = 0;
    messages_dropped = 0;
  }

let fail_edge_reactive state ?(timing = default_timing) ~edge () =
  Net_state.fail_edge state ~edge;
  let victims = Net_state.primaries_crossing_edge state edge in
  if !J.on then
    J.record (J.Failure_detected { edge; victims = List.length victims });
  (* Everyone loses their channel first (the failed route is torn down),
     then re-establishment attempts proceed. *)
  let notify_of = Hashtbl.create 8 in
  List.iter
    (fun (conn : Net_state.conn) ->
      let hops = report_hops conn [ edge ] in
      let detection = timing.detection_delay in
      let report = timing.link_delay *. float_of_int hops in
      let notify = detection +. report in
      let base = J.now () in
      let sp_root =
        if !J.on then C.root ~conn:conn.id "recovery" else C.null
      in
      if !J.on then begin
        C.leaf ~parent:sp_root ~conn:conn.id ~t0:base ~dur:detection "detect";
        C.leaf ~parent:sp_root ~conn:conn.id ~t0:(base +. detection)
          ~dur:report "report";
        J.record (J.Report_hop { conn = conn.id; hops; detection; report })
      end;
      Hashtbl.replace notify_of conn.id
        (notify, conn.src, conn.dst, conn.bw, sp_root, base);
      Net_state.drop state ~id:conn.id)
    victims;
  (* Retry pacing: doubling backoff before attempt [n] (0-based).
     [Backoff.total_before] with the default factor is bit-identical to the
     historical [retry_backoff *. (2^n - 1)] closed form. *)
  let backoff =
    Backoff.make ~base:timing.retry_backoff ~max_attempts:timing.max_retries ()
  in
  let outcomes =
    List.map
      (fun (conn : Net_state.conn) ->
        let notify, src, dst, bw, sp_root, base =
          Hashtbl.find notify_of conn.id
        in
        let backoff_phases n =
          (* Phase leaves for the n-attempt search: total backoff slept,
             then the per-attempt route computations — folded after
             detect/report they re-compose [spent] bit-exactly. *)
          let bt = Backoff.total_before backoff ~attempt:n in
          let rct = timing.route_computation *. float_of_int (n + 1) in
          C.leaf ~parent:sp_root ~conn:conn.id ~t0:(base +. notify) ~dur:bt
            "backoff-wait";
          C.leaf ~parent:sp_root ~conn:conn.id ~t0:(base +. notify +. bt)
            ~dur:rct "route-comp"
        in
        let rec attempt n =
          let spent =
            notify
            +. Backoff.total_before backoff ~attempt:n
            +. (timing.route_computation *. float_of_int (n + 1))
          in
          match Routing.find_primary state ~src ~dst ~bw with
          | Some p ->
              let wire = timing.link_delay *. float_of_int (Path.hops p) in
              let latency = spent +. wire in
              ignore (Net_state.admit state ~id:conn.id ~bw ~primary:p ~backups:[]);
              if !J.on then begin
                backoff_phases n;
                C.leaf ~parent:sp_root ~conn:conn.id ~t0:(base +. spent)
                  ~dur:wire "wire";
                C.close sp_root ~dur:latency;
                J.record (J.Rerouted { conn = conn.id; latency; retries = n })
              end;
              (conn.id, Rerouted { latency; retries = n })
          | None ->
              if Backoff.exhausted backoff ~attempt:n then begin
                if !J.on then begin
                  backoff_phases n;
                  C.close sp_root ~dur:spent;
                  J.record (J.Connection_lost { conn = conn.id; latency = spent })
                end;
                (conn.id, Lost { latency = spent })
              end
              else attempt (n + 1)
        in
        attempt 0)
      victims
  in
  {
    edge;
    failed_edges = [ edge ];
    outcomes;
    backups_rerouted = 0;
    backups_unprotected = 0;
    unprotected_ids = [];
    retransmits = 0;
    messages_dropped = 0;
  }
