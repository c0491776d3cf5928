(** Serve-loop experiment wiring: Table-1 configuration → topology,
    scenario and router → {!Dr_service.Serve.run}.

    Keeps the CLI thin: [drtp_sim serve] builds {!params} from flags and
    calls {!run}.  Restricted to the link-state schemes — bounded flooding
    shares mutable flood statistics across admissions (see
    {!Dr_service.Serve.run}). *)

type params = {
  scheme : Drtp.Routing.scheme;
  traffic : Config.traffic;
  lambda : float;
  avg_degree : float;
  serve : Dr_service.Serve.config;
}

val default : params
(** D-LSR, UT traffic, λ = 0.4, E = 4, {!Dr_service.Serve.default}. *)

val label : params -> string

val run : Config.t -> params -> Dr_service.Serve.report
