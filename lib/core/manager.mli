(** DR-connection manager: drives a {!Dr_sim.Scenario} against a routing
    scheme over a {!Net_state}.

    This is the per-router "DR-connection manager" of §2.2, executed
    network-wide: it performs the four management steps — select and
    reserve a primary route, find a backup route, register the backup along
    its path (APLV updates and spare adjustment happen inside
    {!Net_state.admit}), and release both on termination.

    Requests that cannot be routed are rejected whole (a DR-connection
    without its backup provides no dependability, so a failed backup search
    releases the primary), and the rejection reason is recorded.  Releases
    of rejected connections are ignored. *)

type stats = {
  mutable requests : int;
  mutable accepted : int;
  mutable rejected_no_primary : int;
  mutable rejected_no_backup : int;
  mutable released : int;
  mutable degraded : int;
      (** admissions whose backup could not get its full spare reservation
          somewhere (conflicting backups multiplexed, §5 fallback). *)
  mutable unprotected : int;
      (** admissions that went through with no backup at all (possible for
          route functions that allow it, e.g. bounded flooding with
          [allow_unprotected]). *)
}

(** Counters for the reprotection queue — graceful degradation under
    churn: connections a failure left with no backup wait here, and each
    release or repair retries backup establishment for them in FIFO
    order. *)
type reprotect_stats = {
  mutable queued : int;  (** entries ever enqueued *)
  mutable drained : int;  (** entries that regained a backup *)
  mutable attempts : int;  (** backup searches run on behalf of waiters *)
  mutable abandoned : int;
      (** entries whose connection ended (teardown/loss/flush) before a
          backup could be found *)
  mutable unprotected_time : float;
      (** total seconds queue entries spent waiting without protection *)
}

type t

val create :
  graph:Dr_topo.Graph.t ->
  capacity:int ->
  spare_policy:Net_state.spare_policy ->
  route:Routing.route_fn ->
  t

val create_srlg :
  srlg:Dr_resilience.Srlg.t ->
  graph:Dr_topo.Graph.t ->
  capacity:int ->
  spare_policy:Net_state.spare_policy ->
  route:Routing.route_fn ->
  t
(** {!create} over a shared-risk-group model
    ({!Net_state.create_srlg}).  With a singleton model behaviour is
    identical to {!create}. *)

val state : t -> Net_state.t
val stats : t -> stats

(** {1 Speculation} *)

val speculate : t -> (unit -> 'a) -> 'a
(** [speculate t f] runs [f ()] under {!Net_state.speculate} and also
    saves and restores the manager's own mutable truth — admission
    statistics, the reprotection queue and its counters — so a
    speculative admission (the service layer's what-if path) leaves no
    trace anywhere a later decision reads.  Undoes on both exits; an
    exception from [f] is re-raised afterwards. *)

(** {1 Serialization (checkpoints)}

    {!Net_state.Serial} extended with the manager's own mutable truth:
    admission stats, reprotection counters, and the reprotection queue.
    Queue entries carry their open dwell span's (trace, span) ids so a
    recovered manager closes the same spans an uncrashed run would. *)

module Serial : sig
  type reprotect_repr = {
    rr_id : int;
    rr_scheme : string;  (** {!Routing.scheme_name} form *)
    rr_count : int;
    rr_since : float;
    rr_trace : int;
    rr_span : int;
  }

  type repr = {
    m_state : Net_state.Serial.repr;
    m_stats : stats;
    m_rstats : reprotect_stats;
    m_reprotect : reprotect_repr list;
  }

  val dump : t -> repr

  val restore : t -> repr -> unit
  (** Overwrite a same-topology manager in place.  Raises
      [Invalid_argument] on shape mismatch or an unknown scheme name. *)
end

val apply : t -> Dr_sim.Scenario.item -> unit
(** Process one request or release event. *)

val run : t -> Dr_sim.Scenario.t -> unit
(** Replay a whole scenario (no sampling hooks; see
    {!Dr_exp.Runner} for measured runs). *)

val acceptance_ratio : t -> float
(** accepted / requests; 1.0 before any request. *)

(** {1 Reprotection queue} *)

val queue_reprotect :
  t -> id:int -> scheme:Routing.scheme -> ?backup_count:int -> now:float -> unit -> unit
(** Enqueue a live, backup-less connection for reprotection ([backup_count]
    backups wanted, default 1).  No-op if the connection is gone, already
    has a backup, or is already queued. *)

val drain_reprotect : t -> now:float -> int
(** Retry backup establishment for every queued connection (FIFO), keeping
    the ones that still cannot be protected.  Returns how many entries
    left the queue with a backup.  {!apply} calls this automatically after
    each release; failure drivers should call it after each repair. *)

val flush_reprotect : t -> now:float -> unit
(** End-of-run accounting: mark all remaining entries abandoned, charging
    their unprotected time up to [now], and empty the queue. *)

val reprotect_pending : t -> int
(** Entries currently waiting. *)

val reprotect_stats : t -> reprotect_stats

type reprotect_router =
  Routing.scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  existing:Dr_topo.Path.t list ->
  count:int ->
  Dr_topo.Path.t list
(** How {!drain_reprotect} searches for replacement backups. *)

val default_reprotect_router : reprotect_router
(** {!Routing.additional_backups} — the pre-SRLG behaviour and the
    default for every manager. *)

val chain_reprotect_router : reprotect_router
(** {!Routing.additional_chain_members} (paths only): replacements are
    SRLG-disjoint from the primary where feasible.  With a singleton
    model this selects exactly the same routes as the default. *)

val set_reprotect_router : t -> reprotect_router -> unit
(** Install the router used for subsequent {!drain_reprotect} calls. *)
