(** Write-ahead op log: one compact, CRC-guarded JSONL record per
    state-mutating operation, written {e before} the in-memory mutation.

    A line looks like
    [{"seq":12,"t":"4028ae147ae147ae","op":"request","conn":3,...,"crc":913...}]:
    [seq] is monotone across the log's lifetime (checkpoint truncation
    does not reset it), [t] is the simulation time's exact IEEE-754 bits
    in hex, and [crc] is {!Crc32} of everything before the [,"crc":]
    marker — a torn tail or flipped bit fails decoding instead of
    replaying garbage.

    {b Grammar.}  The values are spelled as {!Codec} describes (canonical
    decimal ints, lower-case hex float bits, JSON strings), with the
    fields in this order and nothing else:
    {v
    {"seq":I,"t":"F","op":"NAME" FIELDS ,"crc":I}
      request          ,"conn":I,"src":I,"dst":I,"bw":I,"dur":"F"
      release          ,"conn":I
      fail-edge        ,"edge":I        restore-edge   ,"edge":I
      fail-group       ,"group":I       restore-group  ,"group":I
      promote          ,"conn":I,"index":I
      reroute          ,"conn":I,"links":[I,...]
      replace-backups  ,"conn":I,"backups":[[I,...],...]
      queue-reprotect  ,"conn":I,"scheme":"S","count":I
      drain-reprotect  (no fields)
    v}
    {!decode} accepts exactly the lines {!encode} writes:
    [decode line = Ok r] implies [encode r = line], so a hand-edited
    line whose CRC was recomputed is still rejected unless it is
    canonical.

    {b Replay caveat.}  {!replay} routes [Request]/[Release] through the
    exact [Manager.apply] path and assumes the manager's route functions
    are {e stateless and deterministic} (P-LSR, D-LSR, SPF).  Bounded
    flooding under fault injection carries hidden RNG state that is not
    checkpointed; do not combine it with crash recovery. *)

(** One state-mutating operation, mirroring every mutator of
    {!Drtp.Net_state} / {!Drtp.Manager} that the simulators drive. *)
type op =
  | Request of { conn : int; src : int; dst : int; bw : int; duration : float }
  | Release of { conn : int }
  | Fail_edge of { edge : int }
  | Restore_edge of { edge : int }
  | Fail_group of { group : int }
  | Restore_group of { group : int }
  | Promote of { conn : int; index : int }
  | Reroute of { conn : int; links : int list }
  | Replace_backups of { conn : int; backups : int list list }
  | Queue_reprotect of { conn : int; scheme : string; count : int }
  | Drain_reprotect

type record = { seq : int; time : float; op : op }

val op_name : op -> string
(** Stable kebab-case tag, e.g. ["fail-edge"] — the ["op"] field. *)

val op_of_event : Dr_sim.Scenario.event -> op
(** Lift a scenario event into its WAL op. *)

val encode : record -> string
(** One JSONL line, no trailing newline, CRC included. *)

val decode : string -> (record, string) result
(** Parse and CRC-verify one line (no newline).  Never raises; [Error]
    for any line {!encode} would not have written. *)

val load : string -> (record list, string) result
(** Read a whole log, oldest first; verifies every CRC and that sequence
    numbers strictly increase, and skips blank lines.  A missing file is
    an empty log; an [Error] names the file and the line number. *)

val replay : Drtp.Manager.t -> record -> unit
(** Re-execute one record against the manager: [Request]/[Release] via
    [Manager.apply] (the exact live path), the rest via the matching
    [Net_state] / [Manager] mutators.  May raise [Invalid_argument] on a
    record inconsistent with the state (as the live mutator would). *)
