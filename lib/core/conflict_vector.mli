(** Conflict Vector (paper §3.2) — D-LSR's abridged form of the APLV.

    [CV_i] is the bit vector with [c_{i,j} = 1] iff [a_{i,j} > 0]: it keeps
    the {e positions} of conflicts but drops the counts.  D-LSR distributes
    CVs in link-state advertisements (N bits per link instead of N
    integers); P-LSR distributes only [‖APLV‖₁] (one integer).

    In this implementation the CV is a materialised view over {!Aplv}: the
    routing code queries the APLV directly, while this module provides the
    packed representation used to measure the link-state database and
    advertisement sizes (the routing-overhead experiment). *)

type t
(** Immutable packed bit vector. *)

val of_aplv : Aplv.t -> link:int -> domains:int -> t
(** Snapshot the conflict bits of one link's APLV.  [domains] is the
    number of failure domains in the network (bit-vector length, the
    paper's N). *)

val of_bits : bool array -> t

val length : t -> int
(** Number of bits (N). *)

val get : t -> int -> bool
(** [get cv j] is [c_{i,j}]. *)

val popcount : t -> int

val conflict_count_with : t -> edge_lset:int list -> int
(** [Σ_{j in edge_lset} c_{i,j}] — exactly D-LSR's link-cost term, computed
    from the packed form. *)

val byte_size : t -> int
(** Size in bytes of the packed representation (advertisement payload). *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Renders as a 0/1 string, e.g. [1010010]. *)
