(** Experiment configuration — the paper's Table 1 plus calibration.

    The published table is partly illegible in the scan, so the constants
    below are calibrated to reproduce the operating points the text states
    explicitly: 60-node Waxman networks with average degrees 3 and 4,
    connection lifetimes uniform in [20, 60] minutes, Poisson arrivals with
    λ swept over 0.2…1.0, and {e saturation at λ ≈ 0.5 for E = 3 and
    λ ≈ 0.9 for E = 4} (§6.2).  With λ in requests/second network-wide and
    a mean lifetime of 40 min, λ = 0.5 holds ≈ 1200 connections of ≈ 4.3
    hops each — ≈ 5200 link-units against the 180 × 30 = 5400 units a
    degree-3 network offers, i.e. saturation, as required. *)

type traffic = UT | NT

val traffic_name : traffic -> string
val traffic_of_string : string -> (traffic, string) result

type t = {
  nodes : int;  (** 60 *)
  capacity : int;  (** per-link, per-direction bandwidth units; 30 *)
  bw_req : int;  (** units per DR-connection; 1 *)
  lifetime_lo : float;  (** 20 min *)
  lifetime_hi : float;  (** 60 min *)
  warmup : float;  (** measurement starts here, seconds *)
  horizon : float;  (** arrivals generated until here, seconds *)
  sample_every : float;  (** fault-tolerance snapshot period, seconds *)
  hotspot_count : int;  (** NT: pre-selected destinations; 10 *)
  hotspot_fraction : float;  (** NT: share of traffic they draw; 0.5 *)
  topology_seed : int;
  workload_seed : int;
}

val default : t

val lambdas_for_degree : float -> float list
(** The λ sweep the paper plots: 0.2–0.7 for E = 3 (Fig. 4a/5a),
    0.4–1.0 for E = 4 (Fig. 4b/5b). *)

val quick : t -> t
(** Quick (smoke-test) mode: warmup 2400 s, arrival horizon 4800 s. *)

val lambdas : quick:bool -> float -> float list
(** [lambdas_for_degree], cut to its first and third points when [quick]. *)

val make_graph : t -> avg_degree:float -> Dr_topo.Graph.t
(** The Waxman topology for this configuration (deterministic in
    [topology_seed] and the degree). *)

val make_scenario : t -> traffic -> lambda:float -> Dr_sim.Scenario.t
(** The shared scenario file for one (traffic, λ) cell — identical across
    schemes, like the paper's Matlab-generated scenario files
    (deterministic in [workload_seed], traffic and λ). *)

val pp_table1 : Format.formatter -> t -> unit
(** Render the reproduction's Table 1. *)
