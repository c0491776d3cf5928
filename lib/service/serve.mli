(** The serve loop: a seeded open-loop request stream driven through the
    batched admission path, with interleaved what-if queries and failure
    probes — the throughput harness behind [drtp_sim serve].

    The loop replays a {!Dr_sim.Scenario} (arrivals and departures), packs
    consecutive requests into batches of [sv_batch] for {!Batch.admit}
    (flushing early at every release so ordering semantics are unchanged),
    and after every batch optionally injects speculative work: a burst of
    {!Service.what_if_admit} queries every [sv_what_if_every] batches, a
    {!Service.what_if_fail_edge} probe every [sv_probe_every], and a full
    {!Drtp.Net_state.check_invariants} audit every [sv_check_every].

    {b Determinism.}  The report splits into a deterministic half (all the
    counts — printed by {!pp_deterministic} and diffed in CI) and a
    wall-clock half ({!pp_timing}).  Everything runs on the calling
    domain.  What-if queries are drawn from a seeded generator and each
    speculates on the truth service in query order
    ({!Service.what_if_admit}: one admission, then its undo), which keeps
    speculative journal traffic out of the live journal and records one
    [what-if] event per query — so counts, journal bytes and trace ids are
    the same with what-ifs on or off, apart from those events.  Invariant
    violations are buffered into the report ([rp_violations]) instead of
    written to stderr mid-run, so stdout and stderr never interleave and
    each stream is byte-stable on its own.

    {b Durability} ([sv_wal]).  With a WAL path set, every admission and
    release is appended through {!Dr_persist.Persist} {e before} it mutates
    the manager (in {!Batch.locality_order} when [sv_reorder] commits in
    that order), checkpoints fire at batch boundaries once the WAL tail
    reaches [sv_checkpoint_every] records, and [sv_crash_every] kills the
    manager every N batches and rebuilds it via checkpoint restore +
    WAL-tail replay.  A crashed-and-recovered run's deterministic report —
    including the full state digest [rp_digest] — is bit-identical to the
    uncrashed run's, except for the [serve-crash:] accounting line.

    {b Overload control.}  [sv_queue_cap] bounds the admission queue
    (excess arrivals are shed with a journalled [request-shed] verdict,
    never stalled); [sv_deadline] sheds requests whose queue wait exceeds
    their deadline at flush time; [sv_overload_every]/[sv_overload_burst]
    inject seeded synthetic request bursts to provoke both.  All decisions
    are made on simulation time and seeded randomness, so shedding is
    deterministic. *)

type config = {
  sv_batch : int;  (** requests per batch *)
  sv_reorder : bool;  (** commit batches in {!Batch.locality_order} *)
  sv_what_if_every : int;  (** what-if burst every N batches; 0 = never *)
  sv_what_if_burst : int;  (** queries per burst *)
  sv_probe_every : int;  (** fail-edge probe every N batches; 0 = never *)
  sv_check_every : int;  (** invariant audit every N batches; 0 = final only *)
  sv_bw : int;  (** bandwidth units per what-if query *)
  sv_seed : int;  (** what-if/probe stream seed *)
  sv_warmup_frac : float;  (** leading fraction of latency samples discarded *)
  sv_wal : string option;  (** write-ahead log path; [None] = durability off *)
  sv_checkpoint_every : int;
      (** checkpoint once the WAL tail reaches N records (at the next
          batch boundary); 0 = never *)
  sv_wal_sample : int;  (** journal every Nth WAL append; 0 = never *)
  sv_crash_every : int;
      (** crash + recover the manager every N batches; 0 = never.
          Requires [sv_wal]. *)
  sv_queue_cap : int;  (** admission-queue bound; 0 = unbounded *)
  sv_deadline : float;
      (** max simulated queue wait before a request is shed; 0 = off *)
  sv_overload_every : int;  (** synthetic burst every N batches; 0 = off *)
  sv_overload_burst : int;  (** synthetic requests per burst *)
}

val default : config

type report = {
  rp_requests : int;
  rp_accepted : int;
  rp_rejected_no_primary : int;
  rp_rejected_no_backup : int;
  rp_releases : int;
  rp_batches : int;
  rp_what_ifs : int;
  rp_what_if_accepted : int;
  rp_fail_probes : int;
  rp_probe_affected : int;  (** sum of primaries the probed edges would cut *)
  rp_invariant_checks : int;
  rp_invariant_failures : int;
  rp_final_active : int;
  rp_lat_samples : int;  (** latency samples kept after warm-up discard *)
  rp_shed_queue : int;  (** requests shed at the queue bound *)
  rp_shed_deadline : int;  (** requests shed for exceeding their deadline *)
  rp_overload_injected : int;  (** synthetic burst requests injected *)
  rp_crashes : int;  (** crashes injected (and recovered from) *)
  rp_replayed : int;  (** WAL-tail records replayed across all recoveries *)
  rp_wal_records : int;  (** records appended across all handles *)
  rp_checkpoints : int;  (** checkpoints written *)
  rp_digest : string;
      (** MD5 hex of {!Dr_persist.State_digest.manager_digest} over the
          final manager — the crash-equivalence witness *)
  rp_violations : (int * string) list;
      (** buffered invariant violations (batch, message), oldest first *)
  rp_elapsed_s : float;
  rp_requests_per_sec : float;  (** sustained admissions/sec over the run *)
  rp_lat_p50_us : float;
  rp_lat_p95_us : float;
  rp_lat_p99_us : float;
  rp_alloc_mb : float;  (** words allocated (minor + direct major), as MB *)
  rp_alloc_kb_per_req : float;
  rp_major_collections : int;
}

val pp_deterministic : Format.formatter -> report -> unit
(** The diffable half: counts only, identical across machines for a fixed
    scenario and config. *)

val pp_timing : Format.formatter -> report -> unit
(** The wall-clock half: throughput, latency quantiles, allocation rate. *)

val run :
  config ->
  graph:Dr_topo.Graph.t ->
  capacity:int ->
  spare_policy:Drtp.Net_state.spare_policy ->
  route:Drtp.Routing.route_fn ->
  scenario:Dr_sim.Scenario.t ->
  report
(** Drive [scenario] through a fresh manager, on the calling domain.
    [route] is a link-state router (bounded flooding shares mutable flood
    statistics and is not supported here). *)
