module Routing = Drtp.Routing
module Net_state = Drtp.Net_state
module Serve = Dr_service.Serve

type params = {
  scheme : Routing.scheme;
  traffic : Config.traffic;
  lambda : float;
  avg_degree : float;
  serve : Serve.config;
}

let default =
  {
    scheme = Routing.Dlsr;
    traffic = Config.UT;
    lambda = 0.4;
    avg_degree = 4.0;
    serve = Serve.default;
  }

let label p =
  Printf.sprintf "%s %s lambda=%.2f E=%.0f batch=%d"
    (Routing.scheme_name p.scheme)
    (Config.traffic_name p.traffic)
    p.lambda p.avg_degree p.serve.Serve.sv_batch

let run (cfg : Config.t) (p : params) =
  let graph = Config.make_graph cfg ~avg_degree:p.avg_degree in
  let scenario = Config.make_scenario cfg p.traffic ~lambda:p.lambda in
  let route = Routing.link_state_route_fn p.scheme ~with_backup:true in
  Serve.run p.serve ~graph ~capacity:cfg.Config.capacity
    ~spare_policy:Net_state.Multiplexed ~route ~scenario
