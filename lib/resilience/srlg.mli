(** Shared-risk link groups (SRLGs) and correlated-failure schedules.

    The paper evaluates independent single-link failures only; real
    failures are correlated — a conduit cut, a line-card death or a
    regional event takes several edges down at once.  An SRLG model names
    these failure domains: each group is a set of undirected edges assumed
    to fail together, and one edge may sit in several groups (a fibre can
    share a duct on one segment and a bridge on another).

    Every edge is covered: edges not mentioned by any explicit group get
    an implicit singleton group, so the {e singleton model} — exactly one
    group per edge — reproduces the paper's independent-failure world and
    is the identity baseline the rest of the stack is gated against
    (k=1 + singletons must be bit-identical to the pre-SRLG behaviour).

    Group ids are dense, starting at 0, in construction order (explicit
    groups first, implicit singletons after, in edge order), so higher
    layers can use plain arrays indexed by group id — the same shape
    {!Dr_topo.Graph} gives links and edges. *)

type t

(** {1 Construction} *)

val create : edge_count:int -> groups:(string * int list) list -> t
(** Build a model over [edge_count] edges from named groups.  Member
    lists are deduplicated and sorted; raises [Invalid_argument] on an
    empty group or an out-of-range edge.  Edges covered by no group get
    implicit singleton groups (named ["edge-<e>"]) appended in edge
    order. *)

val singletons : edge_count:int -> t
(** One group per edge — the paper's independent single-link failure
    model.  [is_singleton (singletons ~edge_count)] holds. *)

val is_singleton : t -> bool
(** True iff group [i] is exactly [{i}] for every group — the model under
    which every SRLG-generalised computation must degrade to today's
    per-edge behaviour. *)

(** {1 Accessors} *)

val edge_count : t -> int
val group_count : t -> int

val group_name : t -> int -> string

val edges_of_group : t -> int -> int list
(** Member edges, sorted ascending. *)

val groups_of_edge : t -> int -> int list
(** Groups containing the edge, sorted ascending; never empty. *)

val groups_of_edge_arr : t -> int -> int array
(** Internal array form of {!groups_of_edge} (do not mutate) — the
    allocation-free read the routing fast path uses. *)

val groups_of_edges : t -> int list -> int list
(** Sorted, deduplicated union of {!groups_of_edge} over an edge list —
    the failure domains that can take a route down.  Under the singleton
    model this returns the input list itself (callers pass sorted edge
    LSETs), which is what keeps {!is_singleton} states bit-identical to
    the historical per-edge bookkeeping. *)

val mean_group_size : t -> float

val pp : Format.formatter -> t -> unit

(** {1 Generators} *)

val random_partition : seed:int -> edge_count:int -> mean_size:int -> t
(** Random disjoint SRLG assignment: a seeded permutation of the edges is
    cut into runs of uniform random size in [[1, 2·mean_size-1]] (mean
    [mean_size]).  [mean_size <= 1] returns {!singletons} exactly, so the
    density knob's low end is the identity model.  Deterministic in
    [seed]. *)

val random_overlay : seed:int -> edge_count:int -> extra:int -> size:int -> t
(** Singletons plus [extra] random overlapping groups of [size] distinct
    edges each — exercises edges belonging to several risk groups.
    Raises [Invalid_argument] if [size] exceeds [edge_count]. *)

val regional_grid : graph:Dr_topo.Graph.t -> cells:int -> t
(** Geographic SRLGs on an embedded topology: the unit square is cut into
    [cells × cells] tiles and every edge joins the group of the tile its
    midpoint falls in (groups named ["cell-<row>-<col>"]; empty tiles are
    dropped).  Raises [Invalid_argument] when the graph carries no
    coordinates. *)

val merge_groups : t -> int -> int -> t
(** [merge_groups t a b] coarsens the model: group [b]'s edges join group
    [a] and [b] disappears (ids above [b] shift down).  Spare
    requirements are monotone under this operation — the property test
    behind the generalised multiplexing rule.  Raises [Invalid_argument]
    on equal or out-of-range ids. *)

(** {1 Correlated-failure schedules}

    Seeded timelines of whole-group and regional failure events, the
    correlated counterparts of {!Dr_faults.Faults.flap_schedule}.  Bursts
    never overlap on an edge: a group (or disc) is only eligible while
    all its member edges are up, mirroring the single-link scheduler. *)

type burst = {
  fail_at : float;
  group : int option;  (** the failed group, or [None] for regional events *)
  edges : int list;  (** the edges the burst takes down, sorted *)
  repair_at : float;
}

val group_schedule :
  seed:int ->
  t ->
  mtbf:float ->
  mttr:float ->
  ?after:float ->
  horizon:float ->
  unit ->
  burst list
(** Poisson arrivals (network-wide mean inter-event time [mtbf]) each
    failing one uniformly-chosen fully-alive group for an exponential
    outage of mean [mttr].  Deterministic in [seed]; sorted by
    [fail_at]. *)

val regional_schedule :
  seed:int ->
  graph:Dr_topo.Graph.t ->
  radius:float ->
  mtbf:float ->
  mttr:float ->
  ?after:float ->
  horizon:float ->
  unit ->
  burst list
(** Regional events on an embedded topology: each arrival draws a disc
    center uniformly in the unit square and fails every currently-alive
    edge whose midpoint lies within [radius].  Arrivals hitting no alive
    edge are skipped.  Raises [Invalid_argument] without coordinates. *)

val merge_schedules : edge_count:int -> burst list -> burst list -> burst list
(** Merge two schedules by [fail_at] (stable: on ties, bursts from the
    first argument come first), dropping any burst that touches an edge
    still down from an earlier kept burst — composing group or regional
    events with the existing single-link flap schedules without ever
    double-failing an edge. *)
