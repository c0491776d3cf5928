(** Shortest-path algorithms over {!Graph}.

    Three variants are needed by the paper:
    - plain hop counts (BFS) for the bounded-flooding distance tables
      (paper §4.1) and for min-hop primary routing;
    - Dijkstra with arbitrary non-negative link costs for the P-LSR and
      D-LSR backup-route selection (paper §3.1–3.2), where the cost of a
      link encodes its conflict count;
    - Bellman–Ford, the distance-vector alternative the paper mentions for
      building distance tables; also usable as a cross-check oracle.

    A cost of [infinity] excludes a link entirely (our realisation of the
    paper's large constant [Q]).

    {b Workspaces.}  The single-pair queries {!min_hop_path} and
    {!dijkstra_path} are the routing hot path (every admission runs
    both), so they execute on a preallocated per-domain workspace:
    dist/prev/queue/heap storage reused across calls and invalidated by
    an epoch counter rather than refilled.  Each domain owns its
    workspace (via [Domain.DLS]), so concurrent searches from a
    [--jobs N] worker pool never share state.  Results never alias the
    workspace.

    {!dijkstra_path} reads its link costs from a row (a [float array]
    indexed by link id) and keeps its frontier in an {e indexed} binary
    heap of node ids ordered by (distance, insertion sequence number); a
    decrease-key takes a fresh sequence number.  So a search allocates
    nothing until it builds the returned path.  {!dijkstra}'s lazy heap
    ({!Dr_pqueue.Pqueue}) pushes a new entry per decrease instead and
    skips stale ones on pop; a node's stale entries have larger keys than
    its live one, so they pop only after it is settled.  Its live entries
    are exactly the indexed heap's, under the same (key, sequence) order:
    both searches settle the same nodes in the same order and resolve
    every cost tie alike, so they return the same paths, bit for bit —
    and so do the allocating implementations retained in
    {!Drtp.Routing_reference} as a differential oracle. *)

val unreachable : int
(** Sentinel hop count ([max_int]) for unreachable nodes. *)

val bfs_hops : Graph.t -> src:int -> int array
(** Minimum hop count from [src] to every node. *)

val bfs_hops_rev : Graph.t -> dst:int -> int array
(** Minimum hop count from every node {e to} [dst] (follows links
    backwards; equals [bfs_hops] on our symmetric graphs but is what the
    flooding distance test actually needs). *)

val hop_matrix : Graph.t -> int array array
(** All-pairs minimum hop counts; [m.(i).(j)] is the distance from [i] to
    [j].  This is the distance table every node keeps in §4.1. *)

val min_hop_path :
  Graph.t -> ?usable:(int -> bool) -> src:int -> dst:int -> unit -> Path.t option
(** Min-hop path using only links for which [usable] holds (default: all).
    Deterministic tie-breaking by link id. *)

type dijkstra_result = {
  dist : float array;  (** cost from the source; [infinity] = unreachable *)
  prev_link : int array;  (** incoming link on a shortest path; -1 at source/unreachable *)
}

val dijkstra : Graph.t -> cost:(int -> float) -> src:int -> dijkstra_result
(** Single-source Dijkstra.  [cost l] must be [>= 0.] or [infinity]; raises
    [Invalid_argument] on a negative cost. *)

val dijkstra_path :
  Graph.t -> cost:float array -> src:int -> dst:int -> (float * Path.t) option
(** Cheapest path and its cost, or [None] if unreachable (or [src = dst]).
    [cost.(l)] is link [l]'s cost, under {!dijkstra}'s rules; the path
    and its cost are those of [extract_path (dijkstra ...)].  Stops once
    [dst] is settled.  Raises [Invalid_argument] if [cost] is shorter
    than the link count, or on a negative cost met by the search. *)

val extract_path : Graph.t -> dijkstra_result -> dst:int -> Path.t option
(** Rebuild the path to [dst] from a Dijkstra run. *)

val bellman_ford :
  Graph.t -> cost:(int -> float) -> src:int -> (float array * int array, string) result
(** Bellman–Ford distances and predecessor links.  Returns [Error] when a
    negative-cost cycle is reachable. *)
