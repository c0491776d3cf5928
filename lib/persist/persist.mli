(** Durability driver: write-ahead logging, periodic checkpoints and
    crash recovery for a {!Drtp.Manager}.

    {b Protocol.}  Callers append a {!Wal.op} {e before} running the
    mutation it describes (write-ahead).  Every [checkpoint_every]
    appends, the handle first serialises the manager (covering exactly
    the ops already applied), atomically replaces the checkpoint file,
    and truncates the WAL — sequence numbers keep counting across
    truncation, so the checkpoint's [ck_wal_seq] cleanly partitions
    covered from to-replay records.  {!recover} restores the latest
    checkpoint (if any) into a fresh same-topology manager and replays
    the WAL tail through the exact live mutation paths, inside
    [Journal.discarding ~trace_seed:0] so the ambient causal context and
    clock are untouched — a recovered run's subsequent trace ids match an
    uncrashed run bit-for-bit.

    {b Journal events} (all sampled or one-shot, inside the usual
    disabled-cost budget): [wal-appended] every [wal_sample]-th append,
    [checkpoint-written] per checkpoint, [recovery-replayed] per
    {!recover}.

    See {!Wal} for the replay caveat: route functions must be stateless
    and deterministic (P-LSR / D-LSR / SPF). *)

type config = {
  wal_path : string;
  checkpoint_path : string;
  checkpoint_every : int;
      (** WAL appends between automatic checkpoints; [0] = never
          auto-checkpoint (call {!checkpoint} manually or not at all). *)
  wal_sample : int;
      (** journal a [wal-appended] event every Nth append; [0] = never. *)
}

val default_config : wal_path:string -> config
(** Checkpoint beside the WAL ([wal_path ^ ".ckpt"]), no auto-checkpoints,
    no journal sampling. *)

type t
(** An open durability handle (owns the WAL channel). *)

val create : config -> t
(** Start a fresh log: truncates the WAL and removes any stale
    checkpoint.  Raises [Invalid_argument] on negative knobs. *)

val config : t -> config

val wal_seq : t -> int
(** Last sequence number appended (0 before any append). *)

val checkpoint_seq : t -> int
(** WAL sequence covered by the most recent checkpoint. *)

val checkpoints : t -> int
(** Checkpoints written through this handle. *)

val appended : t -> int
(** Records appended through this handle. *)

val append : t -> manager:Drtp.Manager.t -> time:float -> Wal.op -> unit
(** Durably append one record ({e before} applying the op), flushing the
    channel; runs the automatic checkpoint first when due. *)

val checkpoint : t -> manager:Drtp.Manager.t -> time:float -> unit
(** Checkpoint now: dump the manager, atomically replace the checkpoint
    file, truncate the WAL. *)

val close : t -> unit

(** {1 Recovery} *)

type recovery = {
  rv_checkpoint_seq : int;  (** 0 when no checkpoint existed *)
  rv_replayed : int;  (** WAL-tail records replayed *)
  rv_wal_seq : int;  (** last sequence number seen (= resume point) *)
}

val recover : config -> manager:Drtp.Manager.t -> (recovery, string) result
(** Rebuild state into [manager] (fresh, same topology/policy/route as
    the crashed one): restore the checkpoint if present, verify WAL-tail
    CRCs and sequence continuity, replay the tail.  [Error] on
    corruption, gaps, or a replay raising. *)

val resume : config -> recovery -> t
(** Re-open the WAL for appending after a successful {!recover},
    continuing the sequence numbering where the log left off. *)
