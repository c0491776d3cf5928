(** Snapshot fault-tolerance evaluation — the paper's [P_act-bk] metric.

    "[P_act-bk] is the probability of activating a backup channel when the
    corresponding primary channel is disabled by a single link failure"
    (§6.2).  For every undirected edge carrying at least one primary we
    hypothetically fail it and ask how many of the affected connections
    could activate their backups {e simultaneously} out of the spare
    bandwidth reserved on the backups' links:

    - a backup that itself crosses the failed edge cannot activate;
    - a connection tries its backups in priority order and activates the
      first that fits (the paper's "one of its backups is promoted");
    - activating connections draw [bw] units from each backup link's spare
      pool ([SC_i] in the paper counts how many such grants a link can
      make); grants are made greedily in connection-id order — when
      conflicting backups were multiplexed over the same spare (§5's
      fallback), the later ones lose, exactly the contention the routing
      schemes try to design away.

    The evaluation is hypothetical: it never mutates the state, so it can
    be run on periodic snapshots during a scenario replay.

    Every evaluation below asks the same question of a different failed
    edge set — one edge, an edge pair, a node's incident edges, an SRLG
    group or an arbitrary set — and answers it with the one greedy walk
    just described: a backup qualifies only if it avoids {e every} failed
    edge and each occurrence of each of its links finds [bw] of budget
    (checked before any is charged); it then draws [bw] per occurrence.

    {b Cost.}  A whole-state evaluation ({!evaluate}, {!evaluate_nodes},
    {!evaluate_double}, {!evaluate_srlg}) first builds a {e victim index}:
    one pass over the connection table in id order (radix-sorted) puts
    each connection on the list of every edge its primary crosses (for
    {!evaluate_nodes}, of every node it passes through without ending
    there), so each list is already in id order: the lists
    [Net_state.primaries_crossing_edge(s)] sorts per failure, whenever
    [Net_state.check_invariants] holds.  An edge set's victims merge its
    members' lists.  The walk keeps per-link budgets in one [int] row per
    call, stamped with a fresh epoch for each failure, so a failure costs
    its victims' backup hops and allocates nothing per link.  A call is
    O(C·b + Σ primary hops + Σ_failures Σ_victims backup hops) for C
    connections whose ids span b bytes; neither the index nor the row
    outlives it.  The single-failure entry points read their victims from
    [Net_state]'s per-edge primary index instead and walk the same row. *)

type edge_outcome = {
  edge : int;
  affected : int;  (** primaries disabled by this edge's failure *)
  activated : int;  (** backups that got spare on all their links *)
}

type result = {
  attempts : int;  (** Σ affected over evaluated edges *)
  successes : int;  (** Σ activated *)
  edges_evaluated : int;  (** edges that carried at least one primary *)
  per_edge : edge_outcome list;
}

val fault_tolerance : result -> float
(** [successes / attempts]; 1.0 when nothing was at risk (no attempts). *)

val merge_results : result -> result -> result
(** Pool two results as if their evaluations ran in one stream: counts
    add, [per_edge] concatenates in argument order.  Exact (integer)
    merging — used to fold per-worker shards of the double-failure
    Monte-Carlo back into one result. *)

val empty_result : result
(** The identity for {!merge_results} (all counts zero). *)

val evaluate : ?spare_only:bool -> Net_state.t -> result
(** Evaluate all single-edge failures on the current state.
    [spare_only] (default [true]) restricts activation to the reserved
    spare pool, matching the paper's [SC_i]; with [false], activation may
    also consume free bandwidth (an optimistic variant used in
    sensitivity checks). *)

val evaluate_edge : ?spare_only:bool -> Net_state.t -> edge:int -> edge_outcome
(** The same evaluation for one edge. *)

(** {1 Node failures (extension E3)}

    A router breakdown takes out every incident edge at once — the other
    persistent-failure class of §1.  The DRTP machinery handles it with
    the same backups, but the single-failure spare sizing of §5 no longer
    guarantees coverage, so node-failure tolerance is strictly harder.
    Connections terminating {e at} the failed node are unrecoverable by
    any routing scheme and are reported separately, not counted as
    attempts. *)

type node_outcome = {
  node : int;
  transit_affected : int;
      (** primaries crossing the node without terminating there *)
  transit_activated : int;
  endpoint_lost : int;  (** connections whose src or dst is the node *)
}

val evaluate_node : ?spare_only:bool -> Net_state.t -> node:int -> node_outcome
(** Fail the node's incident edges at once.  Transit victims go through
    the walk of {!evaluate_edges}; endpoint victims are only counted. *)

val evaluate_nodes : ?spare_only:bool -> Net_state.t -> result
(** Aggregate over all nodes with at least one affected transit primary
    ([attempts]/[successes] count transit connections; [per_edge] is empty
    in this variant). *)

(** {1 Simultaneous double failures}

    The §5 spare rule sizes each link's pool for the worst {e single}
    failure; two near-simultaneous edge failures can activate conflicting
    backups beyond it, and a backup may lose both its primary and itself.
    This quantifies the paper's single-failure assumption ("we assume that
    only a single link can fail between two successive recovery
    actions"). *)

type pair_outcome = { edges : int * int; affected : int; activated : int }

val evaluate_edge_pair :
  ?spare_only:bool -> Net_state.t -> edges:int * int -> pair_outcome
(** Fail two edges at once: victims are primaries crossing either; a
    backup must avoid both and win spare on all its links. *)

val evaluate_double :
  ?spare_only:bool ->
  ?samples:int ->
  ?seed:int ->
  Net_state.t ->
  result
(** Monte-Carlo over random distinct edge pairs ([samples], default 200):
    the double-failure analogue of {!evaluate} ([per_edge] left empty). *)

(** {1 Correlated (SRLG) failures}

    The generalised multiplexing rule sizes spare for the worst single
    {e shared-risk group}; these evaluations measure what it buys.  With
    the singleton model, {!evaluate_srlg} is exactly {!evaluate} (group
    id = edge id, identical greedy order). *)

val evaluate_edges :
  ?spare_only:bool -> Net_state.t -> edges:int list -> int * int
(** Fail a whole edge set at once; returns [(affected, activated)].
    Victims are primaries crossing any member (in connection-id order); a
    backup must avoid every member and win its bandwidth on all its
    links.  [evaluate_edges ~edges:[e]] counts what {!evaluate_edge}
    does. *)

type group_outcome = { group : int; affected : int; activated : int }

val evaluate_group :
  ?spare_only:bool -> Net_state.t -> group:int -> group_outcome
(** {!evaluate_edges} over one SRLG group's members. *)

val evaluate_srlg : ?spare_only:bool -> Net_state.t -> result
(** Exact sweep over every group of the state's SRLG model ([per_edge]
    left empty). *)
