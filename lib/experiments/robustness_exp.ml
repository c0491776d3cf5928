module Graph = Dr_topo.Graph
module Scenario = Dr_sim.Scenario
module Engine = Dr_sim.Engine
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Recovery = Drtp.Recovery
module Routing = Drtp.Routing
module Faults = Dr_faults.Faults
module Pool = Dr_parallel.Pool
module Summary = Dr_stats.Summary

type row = {
  loss : float;
  mtbf : float;
  mttr : float;
  failures : int;
  affected : int;
  recovered : int;
  success_ratio : float;
  latency_mean_ms : float;
  retransmits : int;
  messages_dropped : int;
  reprotect_queued : int;
  reprotect_drained : int;
  unprotected_time_s : float;
}

type event = Workload of Scenario.item | Fail of int | Repair of int

(* One chaos cell: a full workload replay with a seeded flap timeline and a
   seeded loss plan, both derived from the cell's own [seed] — never shared
   across cells, which is what keeps the sweep [--jobs]-independent. *)
let run_cell (cfg : Config.t) ~avg_degree ~traffic ~lambda ~scheme ~loss ~mtbf
    ~mttr ~seed ?(queue = true) ?(fault_layer = true) () =
  let graph = Config.make_graph cfg ~avg_degree in
  let scenario = Config.make_scenario cfg traffic ~lambda in
  let faults =
    if fault_layer then Some (Faults.create ~seed (Faults.uniform_spec loss))
    else None
  in
  let timeline =
    Faults.flap_schedule ~seed:(seed + 1) ~edge_count:(Graph.edge_count graph)
      ~mtbf ~mttr ~horizon:cfg.Config.horizon ()
  in
  let route = Routing.link_state_route_fn scheme ~with_backup:true in
  let manager =
    Manager.create ~graph ~capacity:cfg.Config.capacity
      ~spare_policy:Net_state.Multiplexed ~route
  in
  let state = Manager.state manager in
  let engine : event Engine.t = Engine.create () in
  let failures = ref 0 in
  let affected = ref 0 and recovered = ref 0 in
  let retransmits = ref 0 and dropped = ref 0 in
  let latency = Summary.create () in
  let end_now = ref 0.0 in
  let handler engine event =
    let now = Engine.now engine in
    end_now := max !end_now now;
    match event with
    | Workload item -> Manager.apply manager item
    | Repair e ->
        Net_state.restore_edge state ~edge:e;
        (* A repair frees resources: retry the waiting unprotected
           connections. *)
        if queue then ignore (Manager.drain_reprotect manager ~now)
    | Fail e ->
        incr failures;
        let report =
          Recovery.fail_edge_drtp state ~scheme ?faults ~edge:e ()
        in
        affected := !affected + List.length report.Recovery.outcomes;
        List.iter
          (fun (_, outcome) ->
            match outcome with
            | Recovery.Switched { latency = l; _ }
            | Recovery.Rerouted { latency = l; _ } ->
                incr recovered;
                Summary.add latency l
            | Recovery.Lost _ -> ())
          report.Recovery.outcomes;
        retransmits := !retransmits + report.Recovery.retransmits;
        dropped := !dropped + report.Recovery.messages_dropped;
        if queue then
          List.iter
            (fun id -> Manager.queue_reprotect manager ~id ~scheme ~now ())
            report.Recovery.unprotected_ids
  in
  Scenario.iter scenario (fun item ->
      if item.Scenario.time <= cfg.Config.horizon then
        Engine.schedule engine ~at:item.Scenario.time (Workload item));
  List.iter
    (fun (f : Faults.flap) ->
      Engine.schedule engine ~at:f.fail_at (Fail f.edge);
      Engine.schedule engine ~at:f.repair_at (Repair f.edge))
    timeline;
  Engine.run engine ~handler;
  (match Net_state.check_invariants state with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Robustness_exp: invariant violated: " ^ msg));
  Manager.flush_reprotect manager ~now:(max !end_now cfg.Config.horizon);
  let rs = Manager.reprotect_stats manager in
  {
    loss;
    mtbf;
    mttr;
    failures = !failures;
    affected = !affected;
    recovered = !recovered;
    success_ratio =
      (if !affected = 0 then 1.0
       else float_of_int !recovered /. float_of_int !affected);
    latency_mean_ms =
      (if Summary.count latency = 0 then 0.0
       else 1000.0 *. Summary.mean latency);
    retransmits = !retransmits;
    messages_dropped = !dropped;
    reprotect_queued = rs.Manager.queued;
    reprotect_drained = rs.Manager.drained;
    unprotected_time_s = rs.Manager.unprotected_time;
  }

(* ---- the sweep ---------------------------------------------------------- *)

let default_losses = [ 0.0; 0.05; 0.2 ]
let default_mtbfs = [ 600.0; 120.0 ]

let cell_seed ~seed i = seed + (1000 * i)

let run ?pool (cfg : Config.t) ~avg_degree ~traffic ~lambda ~scheme
    ?(losses = default_losses) ?(mtbfs = default_mtbfs) ?(mttr = 60.0)
    ?(queue = true) ?(fault_layer = true) ?(seed = 1913) () =
  let cells =
    List.concat_map (fun loss -> List.map (fun mtbf -> (loss, mtbf)) mtbfs) losses
  in
  let tasks = Array.of_list (List.mapi (fun i c -> (i, c)) cells) in
  let f (i, (loss, mtbf)) =
    run_cell cfg ~avg_degree ~traffic ~lambda ~scheme ~loss ~mtbf ~mttr
      ~seed:(cell_seed ~seed i) ~queue ~fault_layer ()
  in
  let results =
    Runner.map_captured ?pool ~trace_seed:(cell_seed ~seed) f tasks
  in
  Array.to_list
    (Array.map
       (function
         | Ok r -> r
         | Error (e : Pool.error) ->
             invalid_arg ("Robustness_exp: cell failed: " ^ e.Pool.message))
       results)

let pp ppf rows =
  Format.fprintf ppf
    "@[<v># Robustness: recovery under control-plane loss and repair churn@,\
     loss   mtbf(s) mttr(s) failures affected recovered success  latency(ms) \
     retrans dropped rq-queued rq-drained unprotected(s)@,";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%5.2f  %7.0f %7.0f %8d %8d %9d %7.4f  %11.3f %7d %7d %9d %10d %14.3f@,"
        r.loss r.mtbf r.mttr r.failures r.affected r.recovered r.success_ratio
        r.latency_mean_ms r.retransmits r.messages_dropped r.reprotect_queued
        r.reprotect_drained r.unprotected_time_s)
    rows;
  Format.fprintf ppf "@]"
