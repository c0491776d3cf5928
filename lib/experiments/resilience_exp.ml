module Graph = Dr_topo.Graph
module Scenario = Dr_sim.Scenario
module Engine = Dr_sim.Engine
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Recovery = Drtp.Recovery
module Routing = Drtp.Routing
module Failure_eval = Drtp.Failure_eval
module Srlg = Dr_resilience.Srlg
module Pool = Dr_parallel.Pool
module Summary = Dr_stats.Summary

type row = {
  k : int;
  mean_size : int;
  groups : int;
  acceptance : float;
  bursts : int;
  affected : int;
  recovered : int;
  lost : int;
  success_ratio : float;
  latency_mean_ms : float;
  srlg_coverage : float;
}

type event =
  | Workload of Scenario.item
  | Fail of Srlg.burst
  | Repair of int
  | Repair_edges of int list

(* One cell: a full workload replay under a seeded correlated-failure
   timeline over a seeded SRLG partition.  Both timelines derive from the
   cell's own [seed] — never shared across cells, which keeps the sweep
   [--jobs]-independent. *)
let run_cell (cfg : Config.t) ~avg_degree ~traffic ~lambda ~scheme ~k
    ~mean_size ~mtbf ~mttr ?regional ?overlay ?(baseline = false) ~seed () =
  let graph = Config.make_graph cfg ~avg_degree in
  let scenario = Config.make_scenario cfg traffic ~lambda in
  let edge_count = Graph.edge_count graph in
  let srlg =
    match overlay with
    | Some extra ->
        Srlg.random_overlay ~seed:(seed + 2) ~edge_count ~extra
          ~size:(max 2 mean_size)
    | None ->
        if mean_size <= 1 then Srlg.singletons ~edge_count
        else Srlg.random_partition ~seed:(seed + 2) ~edge_count ~mean_size
  in
  let bursts =
    let base =
      Srlg.group_schedule ~seed:(seed + 1) srlg ~mtbf ~mttr
        ~horizon:cfg.Config.horizon ()
    in
    match regional with
    | None -> base
    | Some radius ->
        let reg =
          Srlg.regional_schedule ~seed:(seed + 4) ~graph ~radius ~mtbf ~mttr
            ~horizon:cfg.Config.horizon ()
        in
        Srlg.merge_schedules ~edge_count base reg
  in
  let route =
    if baseline then Routing.link_state_route_fn ~backup_count:k scheme ~with_backup:true
    else Routing.chain_route_fn ~k scheme
  in
  let manager =
    Manager.create_srlg ~srlg ~graph ~capacity:cfg.Config.capacity
      ~spare_policy:Net_state.Multiplexed ~route
  in
  if not baseline then
    Manager.set_reprotect_router manager Manager.chain_reprotect_router;
  let state = Manager.state manager in
  let engine : event Engine.t = Engine.create () in
  let n_bursts = ref 0 in
  let affected = ref 0 and recovered = ref 0 and lost = ref 0 in
  let latency = Summary.create () in
  let end_now = ref 0.0 in
  let handler engine event =
    let now = Engine.now engine in
    end_now := max !end_now now;
    match event with
    | Workload item -> Manager.apply manager item
    | Repair g ->
        Net_state.restore_group state ~group:g;
        ignore (Manager.drain_reprotect manager ~now)
    | Repair_edges edges ->
        List.iter (fun edge -> Net_state.restore_edge state ~edge) edges;
        ignore (Manager.drain_reprotect manager ~now)
    | Fail b ->
        incr n_bursts;
        let report =
          match b.Srlg.group with
          | Some g ->
              Recovery.fail_group_drtp state ~scheme ~backup_count:k ~group:g ()
          | None ->
              (* Regional bursts carry a bare edge set, no group identity. *)
              Recovery.fail_edges_drtp state ~scheme ~backup_count:k
                ~edges:b.Srlg.edges ()
        in
        affected := !affected + List.length report.Recovery.outcomes;
        List.iter
          (fun (_, outcome) ->
            match outcome with
            | Recovery.Switched { latency = l; _ }
            | Recovery.Rerouted { latency = l; _ } ->
                incr recovered;
                Summary.add latency l
            | Recovery.Lost _ -> incr lost)
          report.Recovery.outcomes;
        List.iter
          (fun id ->
            Manager.queue_reprotect manager ~id ~scheme ~backup_count:k ~now ())
          report.Recovery.unprotected_ids
  in
  Scenario.iter scenario (fun item ->
      if item.Scenario.time <= cfg.Config.horizon then
        Engine.schedule engine ~at:item.Scenario.time (Workload item));
  List.iter
    (fun (b : Srlg.burst) ->
      Engine.schedule engine ~at:b.Srlg.fail_at (Fail b);
      match b.Srlg.group with
      | Some g -> Engine.schedule engine ~at:b.Srlg.repair_at (Repair g)
      | None ->
          Engine.schedule engine ~at:b.Srlg.repair_at (Repair_edges b.Srlg.edges))
    bursts;
  Engine.run engine ~handler;
  (match Net_state.check_invariants state with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Resilience_exp: invariant violated: " ^ msg));
  Manager.flush_reprotect manager ~now:(max !end_now cfg.Config.horizon);
  (* All groups were repaired by the schedule, so this is a static
     what-if over the surviving admission state: the fraction of
     primaries that would ride out the failure of their worst SRLG. *)
  let ft = Failure_eval.fault_tolerance (Failure_eval.evaluate_srlg state) in
  {
    k;
    mean_size;
    groups = Srlg.group_count srlg;
    acceptance = Manager.acceptance_ratio manager;
    bursts = !n_bursts;
    affected = !affected;
    recovered = !recovered;
    lost = !lost;
    success_ratio =
      (if !affected = 0 then 1.0
       else float_of_int !recovered /. float_of_int !affected);
    latency_mean_ms =
      (if Summary.count latency = 0 then 0.0
       else 1000.0 *. Summary.mean latency);
    srlg_coverage = ft;
  }

(* ---- the sweep ---------------------------------------------------------- *)

let default_ks = [ 1; 2; 3 ]
let default_sizes = [ 1; 4 ]

let cell_seed ~seed i = seed + (1000 * i)

let run ?pool (cfg : Config.t) ~avg_degree ~traffic ~lambda ~scheme
    ?(ks = default_ks) ?(mean_sizes = default_sizes) ?(mtbf = 300.0)
    ?(mttr = 60.0) ?regional ?overlay ?(baseline = false) ?(seed = 4217) () =
  let cells =
    List.concat_map (fun s -> List.map (fun k -> (k, s)) ks) mean_sizes
  in
  let tasks = Array.of_list (List.mapi (fun i c -> (i, c)) cells) in
  let f (i, (k, mean_size)) =
    run_cell cfg ~avg_degree ~traffic ~lambda ~scheme ~k ~mean_size ~mtbf ~mttr
      ?regional ?overlay ~baseline ~seed:(cell_seed ~seed i) ()
  in
  let results =
    Runner.map_captured ?pool ~trace_seed:(cell_seed ~seed) f tasks
  in
  Array.to_list
    (Array.map
       (function
         | Ok r -> r
         | Error (e : Pool.error) ->
             invalid_arg ("Resilience_exp: cell failed: " ^ e.Pool.message))
       results)

let pp ppf rows =
  Format.fprintf ppf
    "@[<v># Resilience: k-resilient chains under correlated (SRLG) failures@,\
     k  srlg-size groups accept  bursts affected recovered lost success  \
     latency(ms) srlg-ft@,";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%d  %9d %6d %6.4f %7d %8d %9d %4d %7.4f  %11.3f %7.4f@," r.k
        r.mean_size r.groups r.acceptance r.bursts r.affected r.recovered
        r.lost r.success_ratio r.latency_mean_ms r.srlg_coverage)
    rows;
  (* Headline: for each non-singleton density, how much of the k=1
     degradation do deeper chains win back? *)
  List.iter
    (fun size ->
      match
        List.filter (fun r -> r.mean_size = size && r.mean_size > 1) rows
      with
      | [] -> ()
      | group -> (
          let at k = List.find_opt (fun r -> r.k = k) group in
          let best =
            List.fold_left
              (fun acc r ->
                match acc with
                | Some b when b.success_ratio >= r.success_ratio -> acc
                | _ -> Some r)
              None group
          in
          match (at 1, best) with
          | Some r1, Some rb when rb.k > 1 ->
              Format.fprintf ppf
                "srlg-size %d: success %0.4f at k=1 -> %0.4f at k=%d@," size
                r1.success_ratio rb.success_ratio rb.k
          | _ -> ()))
    (List.sort_uniq compare (List.map (fun r -> r.mean_size) rows));
  Format.fprintf ppf "@]"
