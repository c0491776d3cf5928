(** Accumulated Primary-route Link Vectors (paper §2.1, §3).

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
      [max_j a_{i,j}] connections' worth (§5).

    {b Layout.}  One value holds the APLV of {e every} directed link: a
    flat matrix, edge-major, with [a_{l,j}] at index [j * links + l], plus
    one array per link for the cached [‖APLV_l‖₁] and for the backup
    count.  A D-LSR backup search prices every link by
    [Σ_{j ∈ LSET(P_x)} (a_{l,j} > 0)]; edge-major, that is one contiguous
    scan of [links] entries per edge of the new primary
    ({!conflict_counts}), where a link-major layout would make it
    [|LSET|] scattered reads per link.  Readers of one link's vector
    ({!get}, {!support}, {!conflict_count_with}) stride through the
    matrix; whole-matrix readers should go column by column
    ({!blit_column}). *)

type t

val create : links:int -> edges:int -> t
(** All-zero matrix: [links] directed links over failure edges
    [0 .. edges-1] (no backups registered anywhere).  Raises
    [Invalid_argument] if either size is negative. *)

val register : t -> link:int -> edge_lset:int list -> unit
(** A backup joined [link]; [edge_lset] is the (duplicate-free) edge set
    of its {e primary} route, carried by the backup-path register packet.
    Raises [Invalid_argument], leaving the matrix unchanged, on a
    duplicate or out-of-range edge or an out-of-range link. *)

val unregister : t -> link:int -> edge_lset:int list -> unit
(** The backup left [link] (release packet).  Raises [Invalid_argument],
    leaving the matrix unchanged, if some count would go negative, no
    backup is registered on the link, or [edge_lset] has a duplicate or
    out-of-range edge. *)

val get : t -> link:int -> int -> int
(** [get t ~link j] is [a_{link,j}].  Raises [Invalid_argument] when
    [link] or [j] is out of range. *)

val clear : t -> unit
(** Unregister everything: back to {!create}'s empty matrix, in place
    (checkpoint restore rebuilds every vector from scratch). *)

val norm1 : t -> link:int -> int
(** [‖APLV_link‖₁ = Σ_j a_{link,j}] — P-LSR's scalar (maintained O(1)). *)

val max_element : t -> link:int -> int
(** [max_j a_{link,j}], the spare requirement in connection counts; 0
    when empty. *)

val backup_count : t -> link:int -> int
(** [|PSET_link|]: how many backups are registered on the link. *)

val support : t -> link:int -> int list
(** Failure points with non-zero count on the link, sorted — the
    Conflict Vector's set of 1-bits. *)

val conflict_count_with : t -> link:int -> edge_lset:int list -> int
(** D-LSR's cost term for one link:
    [Σ_{j in edge_lset} (a_{link,j} > 0 ? 1 : 0)] — the number of links
    of the new primary that already conflict there. *)

val conflict_counts : t -> edges:int array -> n:int -> into:int array -> unit
(** {!conflict_count_with} for {e every} link at once: overwrites
    [into.(l)], for each link [l], with the count over the first [n]
    entries of [edges].  One branch-free pass over the matrix column of
    each edge; allocates nothing.  Raises [Invalid_argument] if an edge is
    out of range or [into] is shorter than the link count. *)

val overlap_weight_with : t -> link:int -> edge_lset:int list -> int
(** [Σ_{j in edge_lset} a_{link,j}] — how many existing conflicts a
    backup with this primary would meet on the link (used by tests and
    diagnostics). *)

val blit_norms : t -> int array -> unit
(** [blit_norms t dst] copies every link's {!norm1} into
    [dst.(0 .. links-1)]: P-LSR's term for every link of a backup search
    in one read.  Raises [Invalid_argument] if [dst] is shorter than the
    link count. *)

val blit_column : t -> edge:int -> int array -> unit
(** [blit_column t ~edge dst] copies [a_{l,edge}] for every link [l] into
    [dst.(0 .. links-1)]: one contiguous read, the order whole-matrix
    audits should use.  Raises [Invalid_argument] if [edge] is out of
    range or [dst] is shorter than the link count. *)

val pp : link:int -> Format.formatter -> t -> unit
(** One link's vector: its support with counts, norm, maximum and backup
    count. *)
