(** Canonical state digests — the bit-identity witness behind the
    crash-recovery gate.

    [digest] walks every accessor the equivalence oracles compare: per-link
    pools ({!Drtp.Resources}), APLV tables and norms, conflict counts,
    spare accounting, failure flags, the sorted connection table with full
    primary/backup routes, and the [aplv_updates] / [active_count]
    odometers.  [manager_digest] appends the admission and re-protection
    counters ({!Drtp.Manager.stats} / [reprotect_stats]) and the pending
    re-protect queue length.

    Two managers with equal [manager_digest]s are indistinguishable to
    every read path in the repo, which is exactly the property the
    durability layer must preserve across crash → checkpoint-restore →
    WAL-replay. *)

val digest : Dr_topo.Graph.t -> Drtp.Net_state.t -> string
(** Multi-line textual digest of one network state. *)

val manager_digest : Dr_topo.Graph.t -> Drtp.Manager.t -> string
(** [digest] of the manager's state plus its admission and re-protection
    counters. *)

val manager_hex : Dr_topo.Graph.t -> Drtp.Manager.t -> string
(** MD5 hex of {!manager_digest} — compact form for report lines and CI
    diffs. *)
