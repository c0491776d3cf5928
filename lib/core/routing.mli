(** Route selection for primary and backup channels (paper §3).

    {b Primary} channels take the minimum-hop path whose every link has
    enough {e free} bandwidth (spare is not preempted — §4.1's
    primary-flag rule applied network-wide).

    {b Backup} channels are found with Dijkstra over scheme-specific link
    costs.  In all schemes, a link lying on an edge of the primary route
    costs the paper's large constant [Q] on top of its scheme cost:
    overlap with the primary is avoided whenever any alternative exists,
    but a connection whose endpoints have no disjoint path (degree-1
    attachment) may still be protected by a minimally-overlapping backup —
    the paper's requirement (2) is {e minimal}, not zero, overlap.  A link
    whose available bandwidth [capacity - prime_bw] is below the request
    (doubled where the backup rides its own primary's directed link), or
    whose edge is marked failed, is excluded from the search outright, so
    every returned backup is admissible.  The small constant ε is a
    per-hop tie-break steering equal-cost choices to the shortest route.

    - {b P-LSR} (§3.1): cost [‖APLV_i‖₁ + ε].  Minimising the path sum
      maximises the estimated probability of successful backup activation
      (the product in Eq. 2).
    - {b D-LSR} (§3.2): cost [Σ_{j ∈ LSET(P_x)} c_{i,j} + ε] — the exact
      number of the new primary's failure domains already conflicting on
      the link.
    - {b SPF}: conflict-blind constant cost (ablation A3 — "even random
      selection can find a backup with small conflicts" in well-connected
      networks).

    {b Fast path.}  Route computations are the simulator's dominant cost,
    so a backup search is a few linear passes over flat arrays, and they
    are the one place the backup price is computed.  A query runs in three
    stages on a per-domain epoch workspace: it stamps the route membership
    of the primary and the earlier backups instead of building sets; it
    fills the per-link inputs, the bandwidth available to backups and the
    scheme's term, from the ground truth (D-LSR's term from one scan of the
    edge-major APLV matrix per primary edge, {!Aplv.conflict_counts};
    P-LSR's from the cached [‖APLV_i‖₁]) or from an advertised view
    ({!find_advertised_backups}); and it prices every link into a
    {e cost row}, a [float array] in the same workspace.  Dijkstra
    ({!Dr_topo.Shortest_path.dijkstra_path}) and the hop-bounded search
    read the row, on their own per-domain workspaces; the SRLG chain
    search's strict pass writes [infinity] over banned links in it.  A
    link's {!link_verdict}, which the [backup-chosen] journal event,
    {!backup_verdicts} and [drtp_sim explain] show, is read back from the
    inputs the row was priced from.  An independent implementation is
    kept in {!Routing_reference}; the differential harness
    ({!Routing_check}, [drtp_sim check-routing]) and a property test on
    SRLG models assert that both pick identical routes, with and without a
    hop budget, that every entry of the cost row equals the oracle's
    verdict total bit for bit, and that the {!cost_parts} decompositions
    are bit-identical. *)

type scheme = Plsr | Dlsr | Spf

val scheme_name : scheme -> string
val scheme_of_string : string -> (scheme, string) result

val epsilon : float
(** The tie-break constant ε (1e-3; path length ≤ node count keeps the sum
    below any unit conflict difference). *)

val q_constant : float
(** The paper's large constant Q (1e6 — far above any achievable conflict
    sum, so one primary-overlapping hop outweighs any conflict count). *)

val find_primary : Net_state.t -> src:int -> dst:int -> bw:int -> Dr_topo.Path.t option
(** Minimum-hop feasible primary route, deterministic tie-break. *)

type cost_parts = {
  q : float;  (** Q-penalty for overlapping the primary's (or an earlier
                  backup's) failure domain *)
  conflict : float;
      (** scheme term: [‖APLV_i‖₁] (P-LSR), [Σ c_{i,j}] (D-LSR), 1 (SPF) *)
  eps : float;  (** ε tie-break (0 for SPF) *)
}

val parts_total : cost_parts -> float
(** [q +. conflict +. eps], associated left to right — the cost row's
    finite entries are this exact expression, so explained parts sum
    {e bit-identically} to the search cost. *)

type link_verdict =
  | Dead  (** the link's edge is marked failed *)
  | No_bandwidth of { required : int }
      (** [capacity - prime_bw < required] (the requirement is doubled
          where the backup rides its own connection's links) *)
  | Cost of cost_parts  (** feasible, with the decomposed cost *)

val backup_cost_row :
  ?earlier_backups:Dr_topo.Path.t list ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  float array
(** A fresh copy of the cost row the backup search runs on, one entry per
    link: the cost of link [l] for a backup of [primary] routed after
    [earlier_backups] (default none), [infinity] when infeasible. *)

val backup_verdicts :
  ?earlier_backups:Dr_topo.Path.t list ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  link_verdict array
(** The explainable form of {!backup_cost_row}, read back from the inputs
    the row is priced from: why each link is infeasible, or the
    decomposition of its cost.  Entry [l] of the row is [infinity] exactly
    when the verdict is [Dead] or [No_bandwidth], and [parts_total p],
    bit for bit, when it is [Cost p]. *)

val find_backup :
  ?max_hops:int ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  Dr_topo.Path.t option
(** Minimum-cost backup route from the primary's source to its
    destination, or [None] when no feasible route exists.  [max_hops]
    bounds the backup's length — the paper's observation that a backup
    longer than the connection's QoS (delay) budget cannot be used; with
    the bound, the search minimises conflict cost among routes within
    budget (a layered dynamic program instead of plain Dijkstra). *)

val find_backups :
  ?max_hops:int ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  count:int ->
  Dr_topo.Path.t list
(** Up to [count] backup routes in priority order (the paper's "one or
    more backup channels").  Each further backup is routed with the links
    of the already-chosen backups penalised by [Q] on top of the scheme
    cost (a later backup is only useful when the earlier ones cannot
    activate, so it should avoid sharing their fate), and with the
    bandwidth requirement raised on links the connection already uses.
    Returns fewer than [count] when no further feasible route exists. *)

val additional_backups :
  ?max_hops:int ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  existing:Dr_topo.Path.t list ->
  count:int ->
  Dr_topo.Path.t list
(** Like {!find_backups}, but extending an existing backup set: returns up
    to [count] {e new} routes, each avoiding (Q-penalising) the primary,
    the existing backups and the previously returned routes.  Used by the
    recovery reconfiguration step to top a connection back up to its
    target protection level. *)

val find_advertised_backups :
  avail:int array ->
  term:int array ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  count:int ->
  Dr_topo.Path.t list
(** {!find_backups} priced on advertised inputs instead of the ground
    truth: [avail.(l)] is link [l]'s advertised [capacity - prime_bw] and
    [term.(l)] its scheme term (the advertised [‖APLV_l‖₁] for P-LSR, the
    advertised Conflict Vector counted over the primary's edge LSET for
    D-LSR; ignored by SPF).  Edge failures, SRLGs and route membership
    come from the state.  Journals nothing: it is a router's search on its
    link-state database ({!Dr_proto.Advertised_view}), not an admission. *)

(** {1 k-resilient backup chains (SRLG-aware)}

    A {e chain} is an ordered list of up to [k] backups selected to
    survive correlated (shared-risk-group) failures: each member is
    first sought with every link of a banned SRLG — any group touched by
    the primary or an earlier member — pruned outright, and only when no
    such fully-disjoint route exists does the search fall back to the
    soft Q-penalised selection of {!find_backups} ([cm_disjoint = false]
    marks these graceful fallbacks).  With the singleton SRLG model the
    chain {e is} {!find_backups}'s selection, path for path (the
    k=1/singleton equivalence the golden-fixture CI gate checks), with
    disjointness recovered as plain edge-disjointness. *)

type chain_member = {
  cm_path : Dr_topo.Path.t;
  cm_rank : int;  (** 0-based priority (failover order) *)
  cm_disjoint : bool;
      (** fully SRLG-disjoint from the primary and all earlier members *)
}

val find_backup_chain :
  ?max_hops:int ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  k:int ->
  chain_member list
(** Up to [k] chain members in failover order; journals one
    [chain-built] event (and a [backup-chosen] decomposition per member)
    when the journal is on.  May return fewer than [k] members — or none
    — when no further feasible route exists. *)

val additional_chain_members :
  ?max_hops:int ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  existing:Dr_topo.Path.t list ->
  count:int ->
  chain_member list
(** Extend an existing chain: up to [count] new members, each avoiding
    the SRLGs of the primary, the existing members and the previously
    returned routes ([cm_rank] continues from [List.length existing]).
    The recovery reconfiguration step uses this to top an exhausted
    chain back up. *)

type reject_reason = No_primary | No_backup

val reject_reason_name : reject_reason -> string

type route_pair = {
  primary : Dr_topo.Path.t;
  backups : Dr_topo.Path.t list;  (** in priority order; may be empty *)
}

type route_fn =
  Net_state.t -> src:int -> dst:int -> bw:int -> (route_pair, reject_reason) result
(** The pluggable routing interface the connection {!Manager} drives; the
    bounded-flooding scheme provides its own implementation of this type. *)

val link_state_route_fn :
  ?backup_count:int -> ?backup_hop_slack:int -> scheme -> with_backup:bool -> route_fn
(** The link-state schemes as a {!route_fn}: primary first, then
    [backup_count] (default 1) of the scheme's backups.  A request is
    rejected with [No_backup] when not even one backup can be found;
    beyond the first, missing backups merely shorten the list.
    [backup_hop_slack] bounds every backup to
    [hops(primary) + slack] links (the QoS-budget model of extension E5);
    omitted = unbounded.  [with_backup:false] gives the no-backup
    baseline used to measure capacity overhead (it never returns
    [No_backup]). *)

val chain_route_fn : ?k:int -> ?backup_hop_slack:int -> scheme -> route_fn
(** {!find_backup_chain} as a {!route_fn}: primary first, then a
    k-resilient chain (default [k = 1]) as the backup list in failover
    order.  With the singleton SRLG model this is path-for-path identical
    to [link_state_route_fn ~backup_count:k scheme ~with_backup:true]. *)
