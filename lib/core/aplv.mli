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

val create : unit -> t
(** Empty vector (no backups registered on the link). *)

val register : t -> edge_lset:int list -> unit
(** A backup joined this link; [edge_lset] is the (duplicate-free) edge set
    of its {e primary} route, carried by the backup-path register packet. *)

val unregister : t -> edge_lset:int list -> unit
(** The backup left (release packet).  Raises [Invalid_argument] if some
    count would go negative. *)

val get : t -> int -> int
(** [get t j] is [a_{i,j}] (0 when absent). *)

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

val overlap_weight_with : t -> edge_lset:int list -> int
(** [Σ_{j in edge_lset} a_{i,j}] — how many existing conflicts a backup
    with this primary would meet on the link (used by tests and
    diagnostics). *)

val pp : Format.formatter -> t -> unit

(** {1 Per-SRLG aggregation}

    The resilience extension treats a shared-risk link group as one
    failure domain.  The mappings are passed as functions
    (see {!Dr_resilience.Srlg}) so this module stays representation
    agnostic.  With singleton groups ([groups_of_edge j = [j]],
    [edges_of_group g = [g]]) each aggregate reduces exactly to its
    per-edge original. *)

val group_support : t -> groups_of_edge:(int -> int list) -> int list
(** SRLG groups containing at least one conflicting failure point —
    {!support} lifted to groups, sorted and deduplicated. *)

val group_conflict_count_with :
  t -> groups:int list -> edges_of_group:(int -> int list) -> int
(** D-LSR's cost term lifted to failure domains: how many of the given
    groups have some member edge with [a_{i,j} > 0].  With singleton
    groups equals [conflict_count_with ~edge_lset:groups]. *)

val group_max_weight :
  t -> groups:int list -> edges_of_group:(int -> int list) -> int
(** [max_g Σ_{j in g} a_{i,j}] over the given groups — the worst single
    group failure's activation count on this link (the generalised §5
    spare rule, in connection counts).  With singleton groups equals the
    maximum [a_{i,j}] over [groups]. *)
