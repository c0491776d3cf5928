(** Reference (oracle) routing implementation — the pre-fast-path code,
    kept executable, with the Q term generalised to SRLG groups (the
    historical edge test under the singleton model).

    Same interface as {!Routing} (every type is an equation on
    {!Routing}'s, so values interoperate), but every query is computed the
    slow, obviously-correct way: fresh search arrays per call, set-based
    membership of edges and SRLG groups, scheme cost terms read link by
    link through {!Aplv}'s accessors rather than filled into a cost row in
    one pass.  Both sides read the same store, which
    {!Net_state.check_invariants} checks against the connection table.  No
    journal events: an oracle run must not perturb the observability of
    the live path it is checked against.

    Used by the differential harness ({!Routing_check},
    [drtp_sim check-routing], the qcheck differential suite) and by the
    benchmark's fast-vs-reference admission-throughput gate.  Any route or
    cost this module and {!Routing} disagree on — down to the last bit of
    the {!Routing.cost_parts} decomposition — is a bug in the fast path. *)

type scheme = Routing.scheme = Plsr | Dlsr | Spf

val scheme_name : scheme -> string

val epsilon : float
(** Equal to {!Routing.epsilon}. *)

val q_constant : float
(** Equal to {!Routing.q_constant}. *)

val find_primary :
  Net_state.t -> src:int -> dst:int -> bw:int -> Dr_topo.Path.t option
(** Pre-change {!Routing.find_primary}: BFS with per-call arrays. *)

type cost_parts = Routing.cost_parts = {
  q : float;
  conflict : float;
  eps : float;
}

val parts_total : cost_parts -> float

type link_verdict = Routing.link_verdict =
  | Dead
  | No_bandwidth of { required : int }
  | Cost of cost_parts

val backup_link_verdict :
  ?earlier_backups:Dr_topo.Path.t list ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  int ->
  link_verdict
(** Why link [l] cannot carry a backup of [primary] routed after
    [earlier_backups] (default none), or the decomposition of its cost:
    the independent pricing {!Routing.backup_verdicts} and
    {!Routing.backup_cost_row} are checked against. *)

val find_backup :
  ?max_hops:int ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  Dr_topo.Path.t option
(** Pre-change {!Routing.find_backup}: allocating Dijkstra (or the
    hop-bounded dynamic program), costs recomputed from the APLVs. *)

val find_backups :
  ?max_hops:int ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  count:int ->
  Dr_topo.Path.t list

val additional_backups :
  ?max_hops:int ->
  scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  existing:Dr_topo.Path.t list ->
  count:int ->
  Dr_topo.Path.t list

type reject_reason = Routing.reject_reason = No_primary | No_backup

type route_pair = Routing.route_pair = {
  primary : Dr_topo.Path.t;
  backups : Dr_topo.Path.t list;
}

type route_fn = Routing.route_fn

val link_state_route_fn :
  ?backup_count:int -> ?backup_hop_slack:int -> scheme -> with_backup:bool -> route_fn
(** Pre-change {!Routing.link_state_route_fn} — drop-in for
    {!Manager.create}'s [route] argument, so whole scenario replays can be
    driven against the oracle (the benchmark's reference side). *)
