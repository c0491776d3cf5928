(** The advertised link-state database — what routers actually route on.

    The centralised simulator lets every routing decision read the ground
    truth; a real deployment of the paper's link-state schemes routes on
    the {e last advertisement} of each link, which lags reality by the
    flooding delay and, more importantly, by the advertisement damping
    interval (an OSPF-style MinLSInterval; §3 notes that "the extended
    link-state packet … introduces additional routing traffic", which is
    exactly what damping trades against freshness).

    This module is that database: per-link snapshots of the quantities the
    paper's schemes distribute — free bandwidth, available-for-backup
    bandwidth, [‖APLV‖₁] for P-LSR and the Conflict Vector for D-LSR —
    refreshed only when {!refresh_link} is called (by the protocol
    simulator when an LSA is delivered), plus route computations that read
    the view instead of the ground truth. *)

type t

val create : Drtp.Net_state.t -> t
(** A view seeded from the current ground truth (all entries fresh). *)

val refresh_link : t -> Drtp.Net_state.t -> int -> unit
(** Deliver an advertisement for one directed link: snapshot its free and
    available bandwidth, [‖APLV‖₁] and Conflict Vector from the ground
    truth. *)

val refresh_all : t -> Drtp.Net_state.t -> unit

(** {1 Snapshot payloads}

    A link-state advertisement carries the advertised quantities as they
    stood at {e origination} time; {!Dr_shard.Shard_sim} captures a
    {!snapshot} when an LSA is built and applies it with {!set_snapshot}
    when the (possibly delayed, possibly lost-and-retried) advertisement
    is finally delivered — so a receiver's view reflects the sender's
    past, not the shared present. *)

type snapshot = {
  s_free : int;
  s_avail : int;
  s_norm1 : int;
  s_cv : Drtp.Conflict_vector.t;
}

val snapshot : Drtp.Net_state.t -> int -> snapshot
(** Capture one link's advertised quantities from the ground truth now. *)

val set_snapshot : t -> int -> snapshot -> unit
(** Apply a previously captured payload to the view's entry for the link. *)

val free : t -> int -> int
(** Advertised free bandwidth of a link. *)

val available_for_backup : t -> int -> int

val norm1 : t -> int -> int
(** Advertised [‖APLV‖₁]. *)

val conflict_vector : t -> int -> Drtp.Conflict_vector.t

val staleness_count : t -> Drtp.Net_state.t -> int
(** Links whose advertised free bandwidth currently disagrees with the
    ground truth (diagnostics). *)

(** {1 Routing on the advertised view}

    Same algorithms as {!Drtp.Routing}, with every bandwidth and conflict
    read taken from the view: a backup search hands the view's available
    bandwidth and scheme term ([‖APLV‖₁] for P-LSR, the Conflict Vectors
    counted over the primary's edge LSET for D-LSR) to
    {!Drtp.Routing.find_advertised_backups}, which prices and searches
    them the way it does the ground truth.  Failed edges are excluded from
    routing (the adjacency of a dead link is learned immediately by its
    neighbours).  View searches record no journal events. *)

val find_primary :
  t -> Drtp.Net_state.t -> src:int -> dst:int -> bw:int -> Dr_topo.Path.t option

val find_backups :
  t ->
  Drtp.Net_state.t ->
  scheme:Drtp.Routing.scheme ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  count:int ->
  Dr_topo.Path.t list

val route :
  t ->
  Drtp.Net_state.t ->
  scheme:Drtp.Routing.scheme ->
  backup_count:int ->
  src:int ->
  dst:int ->
  bw:int ->
  (Drtp.Routing.route_pair, Drtp.Routing.reject_reason) result
