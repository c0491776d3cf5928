module Rng = Dr_rng.Splitmix64

type traffic = UT | NT

let traffic_name = function UT -> "UT" | NT -> "NT"

let traffic_of_string s =
  match String.uppercase_ascii s with
  | "UT" -> Ok UT
  | "NT" -> Ok NT
  | other -> Error (Printf.sprintf "unknown traffic pattern %S (want UT or NT)" other)

type t = {
  nodes : int;
  capacity : int;
  bw_req : int;
  lifetime_lo : float;
  lifetime_hi : float;
  warmup : float;
  horizon : float;
  sample_every : float;
  hotspot_count : int;
  hotspot_fraction : float;
  topology_seed : int;
  workload_seed : int;
}

let default =
  {
    nodes = 60;
    capacity = 30;
    bw_req = 1;
    lifetime_lo = 20.0 *. 60.0;
    lifetime_hi = 60.0 *. 60.0;
    warmup = 4800.0;
    horizon = 10800.0;
    sample_every = 300.0;
    hotspot_count = 10;
    hotspot_fraction = 0.5;
    topology_seed = 42;
    workload_seed = 4242;
  }

let lambdas_for_degree degree =
  if degree < 3.5 then [ 0.2; 0.3; 0.4; 0.5; 0.6; 0.7 ]
  else [ 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let quick cfg = { cfg with warmup = 2400.0; horizon = 4800.0 }

let lambdas ~quick degree =
  match lambdas_for_degree degree with
  | a :: _ :: c :: _ when quick -> [ a; c ]
  | all -> all

let make_graph cfg ~avg_degree =
  (* Mix the degree into the seed so E=3 and E=4 differ but each is
     reproducible. *)
  let seed = cfg.topology_seed + int_of_float (avg_degree *. 1000.0) in
  let rng = Rng.create seed in
  Dr_topo.Gen.waxman ~rng ~n:cfg.nodes ~avg_degree ()

let make_scenario cfg traffic ~lambda =
  let seed =
    cfg.workload_seed
    + int_of_float (lambda *. 1000.0)
    + match traffic with UT -> 0 | NT -> 500_000
  in
  let rng = Rng.create seed in
  let pattern =
    match traffic with
    | UT -> Dr_sim.Workload.Uniform
    | NT ->
        Dr_sim.Workload.hotspot_pattern rng ~node_count:cfg.nodes
          ~hotspots:cfg.hotspot_count ~fraction:cfg.hotspot_fraction
  in
  let spec =
    {
      Dr_sim.Workload.arrival_rate = lambda;
      horizon = cfg.horizon;
      lifetime_lo = cfg.lifetime_lo;
      lifetime_hi = cfg.lifetime_hi;
      bw = Dr_sim.Workload.constant_bw cfg.bw_req;
      pattern;
    }
  in
  Dr_sim.Workload.generate rng ~node_count:cfg.nodes spec

let pp_table1 ppf cfg =
  let row ppf (k, v) = Format.fprintf ppf "| %-34s | %-22s |" k v in
  let rows =
    [
      ("number of nodes", string_of_int cfg.nodes);
      ("average node degree (E)", "3 and 4");
      ("link capacity C (units/direction)", string_of_int cfg.capacity);
      ("bw_req (units per DR-connection)", string_of_int cfg.bw_req);
      ( "connection lifetime t_req",
        Printf.sprintf "uniform [%.0f, %.0f] min" (cfg.lifetime_lo /. 60.0)
          (cfg.lifetime_hi /. 60.0) );
      ("arrival process", "Poisson, rate lambda");
      ("lambda sweep (E=3)", "0.2 .. 0.7 /s");
      ("lambda sweep (E=4)", "0.4 .. 1.0 /s");
      ("traffic patterns", "UT, NT (10 hotspots, 50%)");
      ("topology generator", "Waxman");
      ("warmup before measuring", Printf.sprintf "%.0f s" cfg.warmup);
      ("arrival horizon", Printf.sprintf "%.0f s" cfg.horizon);
      ("fault-tolerance sampling period", Printf.sprintf "%.0f s" cfg.sample_every);
    ]
  in
  Format.fprintf ppf "@[<v>Table 1: simulation parameters@,";
  List.iter (fun r -> Format.fprintf ppf "%a@," row r) rows;
  Format.fprintf ppf "@]"
