(** Accumulated Primary-route Link Vector (paper §2.1, §3).

    For a link [L_i], the APLV records, for every potential failure point
    [j], how many primary channels cross [j] whose backup channels cross
    [L_i]:

    {v a_{i,j} = |{ P_k : P_k in PSET_i  and  j in LSET(P_k) }| v}

    Modelling note: the paper indexes APLV by link and fails one link at a
    time, while also declaring every connection between two nodes to be a
    pair of unidirectional links that share fate (a cable cut takes both
    directions).  We therefore index the vector by {e undirected edge} — the
    real failure domain — which coincides with the paper's per-link
    indexing whenever no two primaries use opposite directions of one edge
    (true of all the paper's examples).

    [a_{i,j}] answers two questions:
    - {b routing}: how many conflicts does choosing [L_i] for a new backup
      create, given where the new primary runs (D-LSR), or in aggregate
      (P-LSR's [‖APLV_i‖₁])?
    - {b multiplexing}: how much spare must [L_i] reserve so that any
      single failure can activate every backup that needs it —
      [max_j a_{i,j}] connections' worth (§5). *)

type t
(** A dense row: one count per failure edge, plus the cached
    [‖APLV_i‖₁] and backup count.  {!Net_state} keeps one row per
    directed link and reads every routing cost term from it. *)

val create : domains:int -> t
(** Empty vector over failure edges [0 .. domains-1] (no backups
    registered on the link).  Raises [Invalid_argument] if [domains] is
    negative. *)

val register : t -> edge_lset:int list -> unit
(** A backup joined this link; [edge_lset] is the (duplicate-free) edge set
    of its {e primary} route, carried by the backup-path register packet.
    Raises [Invalid_argument], leaving the vector unchanged, on a
    duplicate or out-of-range edge. *)

val unregister : t -> edge_lset:int list -> unit
(** The backup left (release packet).  Raises [Invalid_argument], leaving
    the vector unchanged, if some count would go negative, no backup is
    registered, or [edge_lset] has a duplicate or out-of-range edge. *)

val get : t -> int -> int
(** [get t j] is [a_{i,j}].  Raises [Invalid_argument] when [j] is not a
    failure edge of the row. *)

val clear : t -> unit
(** Unregister everything: back to {!create}'s empty vector, in place
    (checkpoint restore rebuilds every link's vector from scratch). *)

val norm1 : t -> int
(** [‖APLV_i‖₁ = Σ_j a_{i,j}] — P-LSR's scalar (maintained O(1)). *)

val max_element : t -> int
(** [max_j a_{i,j}], the spare requirement in connection counts; 0 when
    empty. *)

val backup_count : t -> int
(** [|PSET_i|]: how many backups are registered on this link. *)

val support : t -> int list
(** Failure points with non-zero count, sorted — the Conflict Vector's set
    of 1-bits. *)

val conflict_count_with : t -> edge_lset:int list -> int
(** D-LSR's cost term: [Σ_{j in edge_lset} (a_{i,j} > 0 ? 1 : 0)] — the
    number of links of the new primary that already conflict here. *)

val conflict_count_arr : t -> edges:int array -> n:int -> int
(** {!conflict_count_with} over the first [n] entries of [edges]: the
    allocation-free form the routing fast path uses. *)

val overlap_weight_with : t -> edge_lset:int list -> int
(** [Σ_{j in edge_lset} a_{i,j}] — how many existing conflicts a backup
    with this primary would meet on the link (used by tests and
    diagnostics). *)

val pp : Format.formatter -> t -> unit
