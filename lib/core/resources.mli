(** Per-link bandwidth accounting.

    Every directed link divides its capacity into three pools, exactly the
    quantities of the paper's notation (§2.1 and §4.1):

    - [prime_bw] — bandwidth reserved by primary channels;
    - [spare_bw] — bandwidth reserved as {e spare} for backup channels
      (shared by multiplexing, §5);
    - free — the un-allocated remainder, [capacity - prime_bw - spare_bw].

    Units are abstract integer "bandwidth units" (the paper's [bw_req] is
    constant per connection, so a unit is most naturally one connection's
    worth, but nothing here assumes that).

    A primary may be admitted on a link iff [free >= bw] (spare is {e not}
    stolen from backups: the paper's primary-flag test is
    [total_bw - (prime_bw + spare_bw) > bw_req]).  A backup route may use a
    link iff [available_for_backup = capacity - prime_bw >= bw], since a
    backup can share the existing spare pool. *)

type t

val create : link_count:int -> capacity:int -> t
(** Uniform capacity on every link (the paper's identical link
    capacities). *)

val create_heterogeneous : int array -> t
(** One capacity per link. *)

val link_count : t -> int
val capacity : t -> int -> int
val prime_bw : t -> int -> int
val spare_bw : t -> int -> int

val free : t -> int -> int
(** [capacity - prime_bw - spare_bw]. *)

val available_for_backup : t -> int -> int
(** [capacity - prime_bw]: un-allocated plus the shared spare pool. *)

val available_for_backup_into : t -> int array -> unit
(** [available_for_backup_into t dst] writes {!available_for_backup} of
    every link [l] into [dst.(l)], in one pass (the backup search prices
    every link per query).  Raises [Invalid_argument] if [dst] is shorter
    than {!link_count}. *)

val primary_feasible : t -> link:int -> bw:int -> bool
val backup_feasible : t -> link:int -> bw:int -> bool

val reserve_primary : t -> link:int -> bw:int -> unit
(** Raises [Invalid_argument] if [free < bw] — callers must test first. *)

val release_primary : t -> link:int -> bw:int -> unit

val grow_spare : t -> link:int -> want:int -> int
(** [grow_spare t ~link ~want] moves up to [want] units from free to spare
    and returns the amount actually moved ([min want free]). *)

val shrink_spare : t -> link:int -> amount:int -> unit
(** Return [amount] spare units to the free pool.  Raises
    [Invalid_argument] if the link holds less spare than that. *)

val spare_to_prime : t -> link:int -> bw:int -> unit
(** Backup activation: convert [bw] units of spare into primary reservation
    on this link (the promoted channel now carries traffic).  Raises
    [Invalid_argument] if [spare_bw < bw]. *)

val pools : t -> int array * int array
(** [(prime, spare)] as fresh copies — the raw material a checkpoint
    serialises. *)

val set_link : t -> link:int -> prime:int -> spare:int -> unit
(** Overwrite one link's prime and spare pools — how {!Net_state}'s undo
    log puts back the values a speculation changed.  Pool invariants are
    {e not} re-checked. *)

val set_pools : t -> prime:int array -> spare:int array -> unit
(** Overwrite both pools from arrays (checkpoint restore).  Raises
    [Invalid_argument] on a length mismatch; pool invariants are {e not}
    re-checked here — run {!check_invariants} after a full restore. *)

val total_capacity : t -> int
val total_prime : t -> int
val total_spare : t -> int

val check_invariants : t -> (unit, string) result
(** All pools non-negative and [prime + spare <= capacity] on every link. *)
