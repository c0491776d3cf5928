(** Differential checking of the routing fast path against the oracle.

    Replays randomized admission workloads on Waxman graphs, querying
    {!Routing} (the incremental fast path) and {!Routing_reference} (the
    pre-change code) side by side on the {e same} network state, and
    records every disagreement: a different primary or backup route (with
    and without a hop budget of the primary's length plus two), a per-link
    {!Routing.cost_parts} decomposition ({!Routing.backup_verdicts}) that
    differs in any bit, an entry of the cost row the fast search runs on
    ({!Routing.backup_cost_row}) that differs in any bit from the oracle's
    verdict total, or a state that fails {!Net_state.check_invariants},
    which runs after every admit, release and churn step.

    One {!run_graph} call is self-contained and deterministic in
    [(params, graph_index)], so graph indices can be fanned out across a
    {!Dr_parallel.Pool} and the merged report is identical at any [--jobs].
    Exposed as [drtp_sim check-routing] and driven by the qcheck
    differential suite in [test/test_differential.ml]. *)

type params = {
  graphs : int;  (** number of independent Waxman graphs *)
  nodes : int;
  avg_degree : float;
  admissions : int;  (** random admission attempts per graph {e per scheme} *)
  seed : int;
  capacity : int;  (** per-link capacity, bandwidth units *)
  max_bw : int;  (** request bandwidths are uniform on [1, max_bw] *)
  backup_count : int;  (** backups requested per admission *)
  churn_every : int;
      (** inject a failure/repair event every this many admission attempts
          (0 disables churn) *)
}

val default_params : params
(** 4 graphs × 3 schemes × 60 admissions on 30-node degree-4 Waxman
    networks, with churn every 7 attempts — ≥ 500 randomized admissions
    per run, the floor the acceptance criteria ask for. *)

type report = {
  graphs_run : int;
  admissions_checked : int;  (** admission attempts compared (all schemes) *)
  admitted : int;  (** attempts where both sides produced a full route pair *)
  rejected : int;
  verdicts_checked : int;  (** per-link cost decompositions compared *)
  churn_events : int;
  divergence_count : int;
  divergences : string list;
      (** first few divergence descriptions, oldest first *)
}

val empty_report : report

val merge : report -> report -> report
(** Sum the counters; keep the first few divergence messages. *)

val pp_report : Format.formatter -> report -> unit

val run_graph : params -> graph_index:int -> report
(** Check one graph (index in [0, graphs-1]) under all three schemes.
    Deterministic in [(params, graph_index)]. *)

val run : ?progress:(int -> report -> unit) -> params -> report
(** All graphs sequentially, merged.  [progress] is called after each
    graph with its index and per-graph report. *)
