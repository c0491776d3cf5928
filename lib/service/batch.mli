(** Batched admissions.

    A batch runs its requests through the {e exact} sequential admission
    path ({!Service.admit_now}, i.e. {!Drtp.Manager.apply}) back-to-back
    on one domain: per-request verdicts and the resulting state are
    byte-identical to admitting the same requests one by one.  What the
    batch amortises is everything {e around} an admission — the
    generation-stamped per-domain routing workspaces stay warm across the
    whole batch instead of being re-validated per call, and journal
    bookkeeping is batched into one [batch-done] event. *)

type request = {
  rq_conn : int;
  rq_time : float;  (** simulation arrival time, stamps journal events *)
  rq_src : int;
  rq_dst : int;
  rq_bw : int;
}

val locality_order : request array -> int array
(** The deterministic locality permutation: stable order by (src, dst),
    grouping admissions that search from the same root. *)

val admit :
  ?reorder:bool ->
  ?timings:float array ->
  Service.t ->
  request array ->
  Service.verdict array
(** Admit a batch; [verdicts.(i)] always corresponds to [reqs.(i)]
    regardless of execution order.

    [reorder] (default false) commits the batch in {!locality_order}
    instead of arrival order.  Reordering changes which request sees which
    residual state, so it is an explicit policy knob: the byte-identity
    guarantee versus sequential admission holds for the default order.

    [timings], when given (same length as [reqs]), is filled with each
    request's wall-clock admission latency in seconds, indexed like
    [reqs].  Raises [Invalid_argument] on a length mismatch. *)
