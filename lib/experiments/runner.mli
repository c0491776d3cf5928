(** Measured scenario replay: one (topology, scenario, scheme) run.

    Replays the scenario through a {!Drtp.Manager}, and in the measurement
    window [warmup, horizon]:
    - samples the snapshot fault-tolerance ({!Drtp.Failure_eval}) every
      [sample_every] seconds;
    - integrates the number of active connections over time (the quantity
      behind the paper's capacity-overhead metric);
    - tracks spare reservations and multiplexing deficits.  *)

type scheme_spec =
  | Lsr of Drtp.Routing.scheme  (** P-LSR / D-LSR / SPF, multiplexed spare *)
  | Lsr_k of Drtp.Routing.scheme * int
      (** extension E2: the paper's "one or more" backups — route and
          register k backups per connection *)
  | Lsr_bounded of Drtp.Routing.scheme * int
      (** extension E5: QoS-bounded backups — every backup at most
          [hops(primary) + slack] links long *)
  | Lsr_dedicated of Drtp.Routing.scheme
      (** ablation A1: same routing, no backup multiplexing *)
  | Bf of Dr_flood.Bounded_flood.config  (** bounded flooding *)
  | Bf_no_backup of Dr_flood.Bounded_flood.config
      (** flooding-routed primaries without backups: BF's own overhead
          reference, so the capacity-overhead metric isolates the cost of
          backups from the difference in primary routing *)
  | No_backup  (** baseline: min-hop primaries only (overhead reference) *)

val scheme_label : scheme_spec -> string

val paper_schemes : scheme_spec list
(** The paper's three: D-LSR, P-LSR, BF (default flooding parameters). *)

type measurement = {
  label : string;
  snapshots : int;
  ft_overall : float;
      (** P_act-bk aggregated over all snapshots and edges:
          Σ successes / Σ attempts *)
  ft_per_snapshot : Dr_stats.Summary.t;
  node_ft_overall : float;
      (** fault-tolerance against single-node failures (extension E3):
          transit activations / transit victims, aggregated over
          snapshots; endpoint connections of the failed node are excluded
          (unrecoverable by any scheme) *)
  avg_active : float;  (** time-averaged active DR-connections *)
  requests : int;
  accepted : int;
  rejected_no_primary : int;
  rejected_no_backup : int;
  degraded : int;
  unprotected : int;
      (** connections admitted without any backup (BF single-candidate
          acceptances; always 0 for the LSR schemes) *)
  acceptance : float;
  avg_spare_fraction : float;
      (** spare bandwidth / total capacity, averaged over snapshots *)
  avg_deficit_units : float;
      (** total spare deficit in bandwidth units, averaged over snapshots *)
  flood_messages_per_request : float option;  (** BF only *)
  avg_backup_hops : float;  (** mean backup length at admission *)
  avg_primary_hops : float;
}

val run :
  Config.t ->
  graph:Dr_topo.Graph.t ->
  scenario:Dr_sim.Scenario.t ->
  scheme:scheme_spec ->
  measurement
(** Replay [scenario] under [scheme].  Deterministic. *)

val map_captured :
  ?pool:Dr_parallel.Pool.t ->
  ?on_result:(int -> ('b, Dr_parallel.Pool.error) result -> unit) ->
  trace_seed:(int -> int) ->
  ('a -> 'b) ->
  'a array ->
  ('b, Dr_parallel.Pool.error) result array
(** [map_captured ~trace_seed f tasks] is [Dr_parallel.Pool.map f tasks]
    (inline, single-job execution when [pool] is absent) with
    deterministic journalling: while the journal is on, task [i] records
    into its own {!Dr_obs.Journal.capture} with trace seed [trace_seed i],
    and the captures are {!Dr_obs.Journal.merge}d into the calling
    domain's buffer in task-index order, so the journal's bytes and totals
    are identical for any job count.  [on_result] is invoked from the
    calling domain in task order, after that task's merge. *)

val run_many :
  ?pool:Dr_parallel.Pool.t ->
  ?on_result:(int -> (measurement, Dr_parallel.Pool.error) result -> unit) ->
  Config.t ->
  (Dr_topo.Graph.t * Dr_sim.Scenario.t * scheme_spec) array ->
  (measurement, Dr_parallel.Pool.error) result array
(** Run one measured replay per task through a {!Dr_parallel.Pool}
    (inline, single-job execution when [pool] is absent).  Tasks are
    independent — each builds its own manager and network state — and the
    result array is keyed by task index, so output is identical for any
    job count.  A task that keeps raising after the pool's retry becomes
    an [Error] element instead of aborting the batch.  [on_result] is
    invoked from the calling domain in task order. *)

val load_state :
  ?srlg:Dr_resilience.Srlg.t ->
  Config.t ->
  graph:Dr_topo.Graph.t ->
  scenario:Dr_sim.Scenario.t ->
  scheme:scheme_spec ->
  until:float ->
  Drtp.Net_state.t
(** Replay events up to time [until] and hand back the loaded network
    state — for analyses the measurement loop does not perform (e.g. the
    double-failure Monte-Carlo).  [srlg] installs a shared-risk model on
    the state ({!Drtp.Net_state.create_srlg}); omitted = singletons. *)
