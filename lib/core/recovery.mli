(** Dynamic failure handling — DRTP steps 2–4 (detection, reporting &
    switching, resource reconfiguration) plus the reactive baseline the
    paper argues against (§1).

    The snapshot metric ({!Failure_eval}) asks {e whether} backups can
    activate; this module plays an actual failure forward and also answers
    {e how fast}, with an explicit signalling-latency model:

    - the node adjacent to the failed edge detects the failure after
      [detection_delay];
    - the failure report travels hop-by-hop up the primary towards the
      source ([link_delay] per hop);
    - {b DRTP}: the source activates the prepared backup by signalling
      along it ([link_delay] per backup hop) — no route computation, no
      admission test races; activation fails only on spare contention;
    - {b reactive}: the source computes a fresh route
      ([route_computation]), then signals along it; if no feasible route
      exists it backs off exponentially and retries (Banerjea's delayed
      retries) — but each retry only helps if resources have been freed
      meanwhile, so persistent shortage ends in connection loss.

    After switching, DRTP step 4 re-establishes dependability: promoted
    connections get a fresh backup, and surviving connections whose backup
    crossed the failed edge get their backup re-routed.

    {!fail_edge_drtp}, {!fail_edges_drtp} and {!fail_group_drtp} run one
    DRTP body: a single edge is the one-member edge set.  The entry point
    decides only how the state is failed ({!Net_state.fail_group} for an
    SRLG, {!Net_state.fail_edge} on each edge otherwise) and what the
    journal records: one edge records [failure-detected] and no chain
    events; an edge set records [group-failed] (group [-1] without a
    group), [chain-failover] and [chain-exhausted].  Step 4 tops backups up
    with {!Routing.additional_chain_members} and installs them with
    {!Net_state.replace_backups_drop}, so a surviving backup that an
    earlier activation left without room is dropped, and its connection
    reported unprotected, instead of raising. *)

type timing = {
  detection_delay : float;  (** seconds until the adjacent node notices *)
  link_delay : float;  (** per-hop signalling delay, seconds *)
  route_computation : float;  (** reactive route computation time, seconds *)
  retry_backoff : float;  (** reactive first-retry backoff, seconds; doubles *)
  max_retries : int;
}

val default_timing : timing
(** 10 ms detection, 1 ms per hop, 5 ms route computation, 100 ms initial
    backoff, 3 retries. *)

(** Retransmission policy for lossy control-plane signalling (only
    consulted when a fault plan is installed). *)
type retrans = {
  rto : float;  (** retransmission timeout before the first resend; doubles *)
  max_retransmits : int;  (** resends before giving up on the signal *)
}

val default_retrans : retrans
(** 50 ms RTO, 4 retransmissions. *)

type outcome =
  | Switched of { latency : float; reprotected : bool }
      (** Backup activated; [reprotected] = the connection still has at
          least one backup after the reconfiguration step. *)
  | Rerouted of { latency : float; retries : int }  (** reactive success *)
  | Lost of { latency : float }
      (** Connection dropped; [latency] is the time wasted discovering
          that. *)

val outcome_is_recovered : outcome -> bool

type report = {
  edge : int;
      (** the failed edge ([fail_group_drtp]: the group's first member
          edge, or -1 for an empty group) *)
  failed_edges : int list;
      (** every edge this event took down — [[edge]] for the single-edge
          entry points, the given set for {!fail_edges_drtp}, the group's
          member list for {!fail_group_drtp} *)
  outcomes : (int * outcome) list;  (** per affected connection id *)
  backups_rerouted : int;
      (** unaffected connections whose backup crossed the failed edge and
          was re-routed (step 4) *)
  backups_unprotected : int;
      (** ... for which no replacement backup could be found *)
  unprotected_ids : int list;
      (** live connections this failure left without any backup: step-4
          top-up failures plus reactive-fallback reroutes — the candidates
          for {!Manager}'s reprotection queue *)
  retransmits : int;  (** control messages retransmitted (fault plan only) *)
  messages_dropped : int;  (** control messages lost (fault plan only) *)
}

val recovered_fraction : report -> float
(** Recovered / affected; 1.0 when no connection was affected. *)

val fail_edge_drtp :
  Net_state.t ->
  scheme:Routing.scheme ->
  ?timing:timing ->
  ?reconfigure:bool ->
  ?backup_count:int ->
  ?faults:Dr_faults.Faults.t ->
  ?retrans:retrans ->
  edge:int ->
  unit ->
  report
(** Fail an edge under DRTP: detect, report, switch every affected
    connection to its highest-priority usable backup (in connection-id
    order — concurrent activations contend for spare bandwidth exactly as
    in {!Failure_eval}), then reconfigure ([reconfigure] defaults to
    [true]): promoted connections and connections whose backups died are
    topped back up to [backup_count] (default 1) backups where routes
    exist, and a surviving backup that no longer fits is dropped.  Under
    the singleton SRLG model the top-ups are {!Routing.additional_backups}'
    routes; under a shared-risk model they avoid the failed edge's SRLGs,
    as group top-ups do.  Journals [failure-detected] and no chain events.
    The edge is left marked failed; call {!Net_state.restore_edge} to
    repair it.

    With a [faults] plan installed, failure reports and activation signals
    are subject to loss: each lost copy is retransmitted after a doubling
    timeout ([retrans], default {!default_retrans}), and the slept backoff
    time is added to the phase that spent it.  A report whose
    retransmissions are exhausted falls back to a reactive reroute (the
    source only learns of the failure by timeout); an activation signal
    whose retransmissions are exhausted falls through to the next usable
    backup, and past the last backup to the reactive fallback.  With no
    plan — or a {!Dr_faults.Faults.zero_spec} plan — behaviour, latencies
    and journal output are bit-identical to the lossless code path. *)

val fail_edges_drtp :
  Net_state.t ->
  scheme:Routing.scheme ->
  ?timing:timing ->
  ?reconfigure:bool ->
  ?backup_count:int ->
  ?faults:Dr_faults.Faults.t ->
  ?retrans:retrans ->
  ?group:int ->
  edges:int list ->
  unit ->
  report
(** Fail an arbitrary edge set as one correlated event — the entry point
    {!fail_group_drtp} delegates to.  With [group] the set is failed as
    that SRLG (via {!Net_state.fail_group}); without it — regional bursts
    from {!Dr_resilience.Srlg.regional_schedule} carry no group identity —
    each edge is failed individually (restore with
    {!Net_state.restore_edge}) and the [group-failed] journal record
    carries group [-1].  Failover, fallback, timing and reconfiguration
    are those of {!fail_edge_drtp} over the whole set; [~edges:[e]]
    differs from [fail_edge_drtp ~edge:e] only in the journal. *)

val fail_group_drtp :
  Net_state.t ->
  scheme:Routing.scheme ->
  ?timing:timing ->
  ?reconfigure:bool ->
  ?backup_count:int ->
  ?faults:Dr_faults.Faults.t ->
  ?retrans:retrans ->
  group:int ->
  unit ->
  report
(** Fail a whole shared-risk group (correlated failure) under DRTP: every
    member edge goes down as one event, victims are the connections whose
    primary crosses {e any} member, and each victim fails over down its
    backup chain in priority order to the first member that survives the
    entire group and can get its bandwidth.  A victim whose chain is
    exhausted (no member survives — e.g. the group partitions the
    topology — or none can get bandwidth) is reported [Lost], never an
    exception; journal kinds [group-failed], [chain-failover] and
    [chain-exhausted] trace the walk.  Reconfiguration (step 4) tops
    chains back up to [backup_count] members with
    {!Routing.additional_chain_members}, so replacements avoid the
    still-failed group's SRLGs.  The group is left failed; restore with
    {!Net_state.restore_group}. *)

val fail_edge_reactive :
  Net_state.t -> ?timing:timing -> edge:int -> unit -> report
(** Fail an edge under the reactive baseline: affected connections release
    their routes and sequentially attempt re-establishment over min-hop
    feasible paths, with exponential-backoff retries on shortage. *)

val fail_edge_local_detour :
  Net_state.t -> ?timing:timing -> edge:int -> unit -> report
(** Fail an edge under SFI-style local restoration (the Zheng & Shin line
    of work the paper's §1 surveys): the router upstream of the failure
    splices a min-hop detour around the failed edge into the existing
    primary, drawing on {e free} bandwidth only (nothing was reserved in
    advance).  No failure report travels to the source, so the latency is
    detection + local route computation + detour signalling.  Loops the
    splice would create are removed.  Connections whose detour cannot be
    found or funded are dropped.  Reported as [Rerouted] outcomes. *)
