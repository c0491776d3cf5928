module Summary = Dr_stats.Summary
module Scenario = Dr_sim.Scenario
module Routing = Drtp.Routing
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Failure_eval = Drtp.Failure_eval
module Resources = Drtp.Resources
module Bounded_flood = Dr_flood.Bounded_flood
module Path = Dr_topo.Path
module Pool = Dr_parallel.Pool
module J = Dr_obs.Journal

type scheme_spec =
  | Lsr of Routing.scheme
  | Lsr_k of Routing.scheme * int
  | Lsr_bounded of Routing.scheme * int
  | Lsr_dedicated of Routing.scheme
  | Bf of Bounded_flood.config
  | Bf_no_backup of Bounded_flood.config
  | No_backup

let scheme_label = function
  | Lsr s -> Routing.scheme_name s
  | Lsr_k (s, k) -> Printf.sprintf "%s-k%d" (Routing.scheme_name s) k
  | Lsr_bounded (s, slack) -> Printf.sprintf "%s-slack%d" (Routing.scheme_name s) slack
  | Lsr_dedicated s -> Routing.scheme_name s ^ "-dedicated"
  | Bf _ -> "BF"
  | Bf_no_backup _ -> "BF-no-backup"
  | No_backup -> "no-backup"

let paper_schemes =
  [ Lsr Routing.Dlsr; Lsr Routing.Plsr; Bf Bounded_flood.default_config ]

type measurement = {
  label : string;
  snapshots : int;
  ft_overall : float;
  ft_per_snapshot : Summary.t;
  node_ft_overall : float;
  avg_active : float;
  requests : int;
  accepted : int;
  rejected_no_primary : int;
  rejected_no_backup : int;
  degraded : int;
  unprotected : int;
  acceptance : float;
  avg_spare_fraction : float;
  avg_deficit_units : float;
  flood_messages_per_request : float option;
  avg_backup_hops : float;
  avg_primary_hops : float;
}

let route_fn_of cfg scheme graph flood_stats =
  ignore cfg;
  match scheme with
  | Lsr s | Lsr_dedicated s -> Routing.link_state_route_fn s ~with_backup:true
  | Lsr_k (s, k) -> Routing.link_state_route_fn ~backup_count:k s ~with_backup:true
  | Lsr_bounded (s, slack) ->
      Routing.link_state_route_fn ~backup_hop_slack:slack s ~with_backup:true
  | No_backup -> Routing.link_state_route_fn Routing.Plsr ~with_backup:false
  | Bf flood_cfg ->
      let hop_matrix = Dr_topo.Shortest_path.hop_matrix graph in
      Bounded_flood.route_fn ~config:flood_cfg ~stats:flood_stats ~hop_matrix ()
  | Bf_no_backup flood_cfg ->
      let hop_matrix = Dr_topo.Shortest_path.hop_matrix graph in
      Bounded_flood.route_fn ~config:flood_cfg ~stats:flood_stats
        ~with_backup:false ~hop_matrix ()

let spare_policy_of = function
  | Lsr_dedicated _ -> Net_state.Dedicated
  | Lsr _ | Lsr_k _ | Lsr_bounded _ | Bf _ | Bf_no_backup _ | No_backup ->
      Net_state.Multiplexed

let load_state ?srlg (cfg : Config.t) ~graph ~scenario ~scheme ~until =
  let flood_stats = Bounded_flood.fresh_stats () in
  let capacity = cfg.Config.capacity in
  let spare_policy = spare_policy_of scheme in
  let route = route_fn_of cfg scheme graph flood_stats in
  let manager =
    match srlg with
    | None -> Manager.create ~graph ~capacity ~spare_policy ~route
    | Some srlg -> Manager.create_srlg ~srlg ~graph ~capacity ~spare_policy ~route
  in
  Scenario.iter scenario (fun item ->
      if item.Scenario.time <= until then Manager.apply manager item);
  Manager.state manager

let run (cfg : Config.t) ~graph ~scenario ~scheme =
  let flood_stats = Bounded_flood.fresh_stats () in
  let spare_policy = spare_policy_of scheme in
  let base_route : Routing.route_fn = route_fn_of cfg scheme graph flood_stats in
  let primary_hops = Summary.create () and backup_hops = Summary.create () in
  let route : Routing.route_fn =
   fun state ~src ~dst ~bw ->
    match base_route state ~src ~dst ~bw with
    | Error _ as e -> e
    | Ok pair ->
        Summary.add primary_hops (float_of_int (Path.hops pair.Routing.primary));
        List.iter
          (fun b -> Summary.add backup_hops (float_of_int (Path.hops b)))
          pair.Routing.backups;
        Ok pair
  in
  let manager =
    Manager.create ~graph ~capacity:cfg.capacity ~spare_policy ~route
  in
  let state = Manager.state manager in
  (* Measurement window bookkeeping. *)
  let attempts = ref 0 and successes = ref 0 in
  let node_attempts = ref 0 and node_successes = ref 0 in
  let ft_per_snapshot = Summary.create () in
  let spare_fraction = Summary.create () in
  let deficit = Summary.create () in
  let snapshots = ref 0 in
  let total_capacity = float_of_int (Resources.total_capacity (Net_state.resources state)) in
  let take_snapshot () =
    incr snapshots;
    let r = Failure_eval.evaluate state in
    attempts := !attempts + r.Failure_eval.attempts;
    successes := !successes + r.Failure_eval.successes;
    let rn = Failure_eval.evaluate_nodes state in
    node_attempts := !node_attempts + rn.Failure_eval.attempts;
    node_successes := !node_successes + rn.Failure_eval.successes;
    Summary.add ft_per_snapshot (Failure_eval.fault_tolerance r);
    Summary.add spare_fraction
      (float_of_int (Resources.total_spare (Net_state.resources state)) /. total_capacity);
    Summary.add deficit (float_of_int (Net_state.total_spare_deficit state))
  in
  let cursor = ref cfg.warmup in
  let active_time = ref 0.0 in
  let integrate_to t =
    let t = min t cfg.horizon in
    if t > !cursor then begin
      active_time :=
        !active_time
        +. (float_of_int (Net_state.active_count state) *. (t -. !cursor));
      cursor := t
    end
  in
  let next_sample = ref cfg.warmup in
  let sample_due_before t =
    while !next_sample <= cfg.horizon && !next_sample < t do
      integrate_to !next_sample;
      take_snapshot ();
      next_sample := !next_sample +. cfg.sample_every
    done
  in
  let items = Scenario.items scenario in
  let n = Array.length items in
  let stop = ref false in
  let i = ref 0 in
  while (not !stop) && !i < n do
    let item = items.(!i) in
    if item.Scenario.time > cfg.horizon then stop := true
    else begin
      sample_due_before item.Scenario.time;
      integrate_to item.Scenario.time;
      Manager.apply manager item;
      incr i
    end
  done;
  sample_due_before (cfg.horizon +. 1.0);
  integrate_to cfg.horizon;
  let stats = Manager.stats manager in
  let window = cfg.horizon -. cfg.warmup in
  {
    label = scheme_label scheme;
    snapshots = !snapshots;
    ft_overall =
      (if !attempts = 0 then 1.0
       else float_of_int !successes /. float_of_int !attempts);
    ft_per_snapshot;
    node_ft_overall =
      (if !node_attempts = 0 then 1.0
       else float_of_int !node_successes /. float_of_int !node_attempts);
    avg_active = (if window > 0.0 then !active_time /. window else 0.0);
    requests = stats.Manager.requests;
    accepted = stats.Manager.accepted;
    rejected_no_primary = stats.Manager.rejected_no_primary;
    rejected_no_backup = stats.Manager.rejected_no_backup;
    degraded = stats.Manager.degraded;
    unprotected = stats.Manager.unprotected;
    acceptance = Manager.acceptance_ratio manager;
    avg_spare_fraction =
      (if Summary.count spare_fraction = 0 then 0.0 else Summary.mean spare_fraction);
    avg_deficit_units = (if Summary.count deficit = 0 then 0.0 else Summary.mean deficit);
    flood_messages_per_request =
      (match scheme with
      | Bf _ | Bf_no_backup _ ->
          Some
            (if flood_stats.Bounded_flood.floods = 0 then 0.0
             else
               float_of_int flood_stats.Bounded_flood.total_messages
               /. float_of_int flood_stats.Bounded_flood.floods)
      | Lsr _ | Lsr_k _ | Lsr_bounded _ | Lsr_dedicated _ | No_backup -> None);
    avg_backup_hops =
      (if Summary.count backup_hops = 0 then 0.0 else Summary.mean backup_hops);
    avg_primary_hops =
      (if Summary.count primary_hops = 0 then 0.0 else Summary.mean primary_hops);
  }

(* ---- parallel submission ------------------------------------------------ *)

(* Captures are merged from [on_result], which the pool invokes on the
   coordinating domain in strict task-index order: that is what makes the
   merged journal independent of [--jobs]. *)
let map_captured ?pool ?on_result ~trace_seed f tasks =
  let map ?on_result g items =
    match pool with
    | Some pool -> Pool.map ?on_result pool g items
    | None ->
        Pool.with_pool ~jobs:1 (fun pool -> Pool.map ?on_result pool g items)
  in
  if not !J.on then map ?on_result f tasks
  else begin
    let coordinator = J.current () in
    let strip = function Ok (v, _) -> Ok v | Error e -> Error e in
    let merge i r =
      (match r with Ok (_, c) -> J.merge coordinator c | Error _ -> ());
      Option.iter (fun g -> g i (strip r)) on_result
    in
    let captured (i, task) =
      J.capture ~trace_seed:(trace_seed i) (fun () -> f task)
    in
    Array.map strip
      (map ~on_result:merge captured (Array.mapi (fun i t -> (i, t)) tasks))
  end

(* One pool task per measured replay.  Tasks share only immutable inputs
   (the graph, the scenario — both read-only after construction), so they
   can run on any worker domain; results come back in submission order,
   which keeps parallel sweeps bit-identical to sequential ones. *)
let run_many ?pool ?on_result (cfg : Config.t) tasks =
  (* Trace-id seeds must not depend on which worker domain runs which
     task: reserve one epoch per task index here, before dispatch, so the
     merged journal's trace ids are independent of [--jobs]. *)
  let base =
    if !J.on then J.Causal.alloc_trace_epochs (J.current ()) (Array.length tasks)
    else 0
  in
  map_captured ?pool ?on_result
    ~trace_seed:(fun i -> base + i)
    (fun (graph, scenario, scheme) -> run cfg ~graph ~scenario ~scheme)
    tasks
