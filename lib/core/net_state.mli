(** Network-wide DR-connection state: the authoritative book-keeping that
    the paper's per-router "DR-connection managers" maintain collectively.

    One value of this type holds, for a given topology:
    - per-link bandwidth pools ({!Resources});
    - per-link APLVs, updated from the primary-route LSETs carried by
      backup-path register/release packets (paper §2.2) — one dense
      {!Aplv.t} row per directed link, the only store of [a_{i,j}]: P-LSR's
      [‖APLV_i‖₁] and D-LSR's [CV_i] are read from it;
    - the connection table (primary route, backup routes, bandwidth) — a
      DR-connection has one primary and {e one or more} backup channels
      (paper §2), held in priority order;
    - the spare-reservation policy of §5 (grow spare to cover the worst
      single failure; if free bandwidth is short, multiplex conflicting
      backups anyway and remember the deficit; reclaim freed primary
      bandwidth into deficient spare pools).

    The simulator is centralised, but every routing decision made on top of
    this state is restricted to the information the paper's schemes
    distribute (see {!Routing} and the flooding library). *)

type spare_policy =
  | Multiplexed
      (** Paper §5: per link, reserve [max_j a_{i,j}] connections' worth of
          spare — enough for the worst single failure domain. *)
  | Dedicated
      (** No multiplexing: spare equals the sum of all backup bandwidths on
          the link (the "too expensive to be practically useful" strawman
          of §2, used as ablation A1). *)

type conn = {
  id : int;
  src : int;
  dst : int;
  bw : int;
  mutable primary : Dr_topo.Path.t;
      (** mutated by {!promote_backup} (DRTP step 3) and
          {!reroute_primary}. *)
  mutable backups : Dr_topo.Path.t list;
      (** in priority order; mutated by {!promote_backup},
          {!reroute_primary} and {!replace_backups_drop}. *)
  mutable degraded : bool;
      (** true if, at some point while registered, a link of some backup
          could not reserve the spare the policy asked for (conflicting
          backups share spare there — §5's fallback). *)
}

type t

val create :
  graph:Dr_topo.Graph.t -> capacity:int -> spare_policy:spare_policy -> t
(** Singleton SRLG model: one risk group per edge, the paper's
    independent-failure world.  Equivalent to
    [create_srlg ~srlg:(Srlg.singletons ...)]. *)

val create_srlg :
  srlg:Dr_resilience.Srlg.t ->
  graph:Dr_topo.Graph.t ->
  capacity:int ->
  spare_policy:spare_policy ->
  t
(** Install a shared-risk-group model over the graph's edges.  The model
    re-keys the spare-multiplexing rule: spare on a link is sized for the
    worst single {e SRLG} failure instead of the worst single edge.  With
    a singleton model every computation is bit-identical to {!create}'s
    behaviour.  Raises [Invalid_argument] on an edge-count mismatch with
    the graph. *)

val graph : t -> Dr_topo.Graph.t
val resources : t -> Resources.t
val spare_policy : t -> spare_policy

val srlg : t -> Dr_resilience.Srlg.t
(** The installed shared-risk-group model. *)

val aplv : t -> int -> Aplv.t
(** The APLV row of a directed link: the state's one store of its
    [a_{l,j}].  Do not mutate it (tests do, to inject drift that
    {!check_invariants} must catch). *)

val aplv_norm : t -> int -> int
(** [‖APLV_l‖₁] of a directed link, [Aplv.norm1 (aplv t l)]: the row's
    cached sum, P-LSR's per-link cost term. *)

val conflict_count : t -> link:int -> edge_lset:int list -> int
(** D-LSR's cost term [Σ_{j ∈ edge_lset} (a_{link,j} > 0 ? 1 : 0)],
    [Aplv.conflict_count_with (aplv t link) ~edge_lset]. *)

val conflict_count_arr : t -> link:int -> edges:int array -> n:int -> int
(** {!conflict_count} over the first [n] entries of [edges] — the
    allocation-free form the routing fast path uses (the query's primary
    LSET staged once into a workspace array). *)

val check_routing_caches : t -> (unit, string) result
(** Check every row's cached [‖APLV_l‖₁] against the sum of its entries
    and report the first link where they differ.  O(links × edges).
    {!check_invariants} runs it first, then checks every entry against
    the connection table. *)

val conflict_vector : t -> int -> Conflict_vector.t
(** Packed CV snapshot of a link (D-LSR's advertisement payload). *)

val aplv_updates : t -> int
(** Number of per-link APLV mutations (register/release packet link visits)
    so far — the advertisement-traffic driver measured by the overhead
    experiment. *)

(** {1 Connection lifecycle} *)

val admit :
  t ->
  id:int ->
  bw:int ->
  primary:Dr_topo.Path.t ->
  backups:Dr_topo.Path.t list ->
  conn
(** Reserve primary bandwidth on every primary link and register each
    backup (APLV update + spare adjustment per the policy).  Raises
    [Invalid_argument] if the id is in use, a primary link lacks free
    bandwidth, or a backup link cannot host its backup at all (available
    bandwidth below the backup's requirement given the primary and the
    connection's other backups crossing the same link).  Callers are
    expected to have routed with the matching feasibility predicates. *)

val admissible :
  t -> bw:int -> primary:Dr_topo.Path.t -> backups:Dr_topo.Path.t list -> bool
(** Would {!admit} accept these routes now?  The same two checks it raises
    from — every primary link has [bw] free, and each backup fits given the
    primary and the backups before it — without committing anything.  The
    protocol and shard simulators test a setup against the ground truth
    with it when the confirmation lands. *)

val release : t -> id:int -> unit
(** Tear down: free primary bandwidth, unregister every backup (APLV
    decrement, spare shrink to the new requirement), then re-assign freed
    bandwidth to spare pools still in deficit (§5 last paragraph).
    Raises [Invalid_argument] for an unknown id. *)

val find : t -> int -> conn option
val active_count : t -> int
val iter_conns : t -> (conn -> unit) -> unit

(** {1 Failure-domain queries} *)

val primaries_crossing_edge : t -> int -> conn list
(** Connections whose primary route crosses the given undirected edge —
    the set that must switch over when that edge fails.  Sorted by id. *)

val primaries_crossing_edges : t -> edges:int list -> conn list
(** Distinct connections whose primary crosses any of the given edges —
    the victim set of a correlated failure.  Sorted by id.  A one-edge
    list costs what {!primaries_crossing_edge} does. *)

val spare_required : t -> link:int -> int
(** Spare the policy wants on the link, in bandwidth units: [Multiplexed]
    → worst single-{e SRLG} activation burst (the generalised §5 rule;
    with singleton groups, exactly the paper's worst single edge);
    [Dedicated] → total backup bandwidth.  O(1): each link keeps a dense
    row of per-group weights with their maximum cached, updated by every
    backup register and release; a release that lowers the maximum
    rescans at most [bw] weight slots. *)

val spare_deficit : t -> link:int -> int
(** [max 0 (spare_required - spare_bw)]: positive iff conflicting backups
    currently share spare on this link. *)

val total_spare_deficit : t -> int

val backup_count_on_link : t -> link:int -> int

(** {1 Promotions (failure recovery)} *)

val promote_backup : t -> id:int -> ?index:int -> unit -> unit
(** Activate backup [index] (default 0) of connection [id] (DRTP step 3):
    the old primary's bandwidth is released, the chosen backup becomes the
    new primary — consuming spare (or free) bandwidth on its links — and
    the remaining backups are re-registered against the new primary's
    LSET; any that no longer fit are silently dropped from the backup
    list.  Raises [Invalid_argument] if [index] is out of range or the
    chosen backup's links lack spare+free bandwidth; callers must first
    check feasibility with {!activation_feasible}. *)

val activation_feasible : t -> id:int -> ?index:int -> unit -> bool
(** True if every link of backup [index] (default 0) can currently supply
    the connection's bandwidth from spare plus free pools. *)

val drop : t -> id:int -> unit
(** Remove a connection whose primary has failed without switching (the
    failed primary's reservations on surviving links are returned; all
    backups are unregistered). *)

val reroute_primary : t -> id:int -> primary:Dr_topo.Path.t -> unit
(** Move the connection's primary onto a new route (local-detour
    restoration): release the old primary's bandwidth, reserve the new
    route (raises [Invalid_argument] if some new link lacks free
    bandwidth — check first), and re-register every backup against the
    new primary's LSET, silently dropping backups that no longer fit.
    The new route must share the connection's endpoints. *)

val replace_backups_drop :
  t -> id:int -> backups:Dr_topo.Path.t list -> Dr_topo.Path.t list
(** Resource reconfiguration (DRTP step 4): unregister the current backups
    and register the given set in order; [[]] leaves the connection
    unprotected.  A member whose links can no longer host it, given the
    primary and the members kept before it, is dropped (the policy
    {!promote_backup} applies to survivors); returns the members kept.
    Recovery needs the drop: concurrent activations may have converted a
    surviving backup's spare into prime since it was found.  Raises
    [Invalid_argument] for an unknown id. *)

val fail_edge : t -> edge:int -> unit
(** Mark both directions of an edge as failed.  Failed links are excluded
    by the routing layers' feasibility predicates; existing reservations on
    them are untouched (the recovery driver decides what happens to the
    affected connections).  Used by the dynamic recovery simulation. *)

val edge_failed : t -> edge:int -> bool

val restore_edge : t -> edge:int -> unit

val fail_group : t -> group:int -> unit
(** Fail every member edge of an SRLG group (correlated failure).
    Restore with {!restore_group}. *)

val restore_group : t -> group:int -> unit

val fail_node : t -> node:int -> unit
(** Fail every edge incident to the node (router breakdown, the other
    persistent-failure class of §1).  Restore with {!restore_node}. *)

val restore_node : t -> node:int -> unit

(** {1 Speculation}

    Speculative admissions (the service layer's [what_if_admit]) run
    against the truth and are then undone, so every mutation must be
    reversible {e bit-exactly}.  While a speculation is open, each mutator
    above logs what it overwrites — a link's prime/spare pools before the
    change, the registration arithmetic of each backup it registers or
    unregisters, connection-table and primary-index entries, a
    connection's route, backups and [degraded] flag, failure flags — and
    the log is replayed backwards when the speculation ends.  The cost of
    a speculation is therefore proportional to what it changes, not to
    the size of the network.  Outside a speculation the log costs one
    integer test per mutation and allocates nothing. *)

val speculate : t -> (unit -> 'a) -> 'a
(** [speculate t f] runs [f ()] and then undoes every mutation [f] made to
    [t], whether [f] returns or raises; an exception is re-raised after the
    undo.  Afterwards the state is bit-identical to the state before —
    resource pools, APLV rows, backup totals, SRLG spare weights,
    the connection table (the same physical [conn] records, with their
    fields restored), the primary index, failure flags and the
    [aplv_updates] odometer.  Speculations nest.  {!Serial.restore} must
    not be called inside one. *)

(** {1 Serialization (checkpoints)}

    A checkpoint cannot logically re-admit the surviving connections — the
    accessor digest includes the [aplv_updates] odometer and
    history-dependent spare pools and [degraded] flags that a replay of
    admissions would not reproduce.  [Serial.dump] therefore captures the
    minimal mutable truth (raw resource pools, failure flags, odometer,
    connection table with routes as link-id lists) and [Serial.restore]
    rebuilds every derived structure — APLV rows, SRLG spare weights,
    backup totals, the primary index — by replaying the
    registration arithmetic only, then blitting the pools verbatim.  The
    result is bit-identical under the accessor digest; used by
    [dr_persist]'s on-disk checkpoints. *)

module Serial : sig
  type conn_repr = {
    r_id : int;
    r_src : int;
    r_dst : int;
    r_bw : int;
    r_degraded : bool;
    r_primary : int list;  (** primary route as link ids *)
    r_backups : int list list;  (** backups, in priority order *)
  }

  type repr = {
    r_prime : int array;
    r_spare : int array;
    r_failed : bool array;
    r_aplv_updates : int;
    r_conns : conn_repr list;  (** sorted by id *)
  }

  val dump : t -> repr
  (** Copy out the minimal mutable truth. *)

  val restore : t -> repr -> unit
  (** Overwrite a same-topology state, in place, with the dumped truth.
      Emits no journal events.  Raises [Invalid_argument] on a topology
      shape mismatch, if a dumped route is not a valid path of the
      state's graph, on a non-positive bandwidth, or inside a
      {!speculate}. *)
end

(** {1 Integrity} *)

val check_invariants : t -> (unit, string) result
(** Deep check: resource invariants, each row's cached norm
    ({!check_routing_caches}), then everything rebuilt from the
    connection table and compared entry by entry — primary load per link,
    every [a_{l,j}], each link's backup count and backup total, every
    SRLG spare weight, the cached maximum weight {!spare_required} reads
    and the count of groups at each weight — spare levels not above the
    policy requirement, and a primary index that matches the connection
    table.  Reports the first discrepancy, naming the link and edge or
    group.  O(connections × path length + links × (edges + groups)); test
    and audit use. *)
