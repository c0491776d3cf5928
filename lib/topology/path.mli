(** Routes (channel paths) over directed links.

    A path is the ordered list of directed links a channel traverses.  The
    paper's [LSET_r] — "the set of links in route r" — is {!lset}.  Overlap
    between routes (the quantity both P-LSR and D-LSR minimise, and the
    tie-breaker of the bounded-flooding destination) is the size of the
    intersection of the two LSETs. *)

module Link_set : Set.S with type elt = int

type t = private { src : int; dst : int; links : int list }

val of_links : Graph.t -> int list -> t
(** Validate that the links are contiguous and non-empty and build a path.
    Raises [Invalid_argument] otherwise. *)

val of_nodes : Graph.t -> int list -> t
(** Build a path from a node sequence (at least two nodes); every
    consecutive pair must be an edge of the graph. *)

val src : t -> int
val dst : t -> int
val links : t -> int list
val hops : t -> int

val nodes : Graph.t -> t -> int list
(** The node sequence, source first, destination last. *)

val lset : t -> Link_set.t
(** [LSET] of the route: its links as a set. *)

val edge_set : t -> Link_set.t
(** Undirected edge ids crossed by the route. *)

val contains_link : t -> int -> bool

val crosses_edge : t -> int -> bool
(** True if the route uses either direction of undirected edge [e]. *)

val crosses_any_edge : t -> int list -> bool
(** True if the route uses either direction of any of the given edges.
    Allocates nothing; meant for the short failed-edge sets of failure
    evaluation (it scans the list once per hop). *)

val link_overlap : t -> t -> int
(** Number of directed links shared by two routes. *)

val edge_overlap : t -> t -> int
(** Number of undirected edges shared (used to decide whether two primaries
    "overlap" for conflict purposes, since a failure takes out both
    directions of an edge). *)

val is_simple : Graph.t -> t -> bool
(** No repeated nodes. *)

val pp : Format.formatter -> t -> unit
