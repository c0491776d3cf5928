(** Flight recorder: a typed, sim-time-stamped event journal covering the
    full DR-connection lifecycle — the simulator's one event stream.

    It answers "how many" through exact per-kind {!totals} (what
    [drtp_sim --metrics] prints) and {e why} through the events
    themselves: which backup D-LSR chose and what every candidate link's
    cost decomposed into (Q-overlap term, conflict term [Σc_{i,j}] or
    [‖APLV_i‖₁], ε tie-break), which links' spare pools [SC_i] moved and
    to what level, and where a failed connection's recovery latency was
    spent (detection, hop-by-hop reporting, backup activation — §4 of the
    paper).

    {b Recording model.}  Events go into the {e current buffer} — a
    bounded ring that overwrites its oldest entries, so a long run keeps a
    recent window plus a count of what it dropped, while the per-kind
    totals keep counting every event.  Each domain has its own current
    buffer (domain-local state), so worker domains of a
    {!Dr_parallel.Pool} never interleave entries: a parallel driver wraps
    each task in {!capture} and {!merge}s the captures index-keyed from
    the coordinator, which makes the merged journal byte-identical for any
    [--jobs] count.

    {b Timestamps} are simulation time, not wall-clock: drivers install
    the clock by calling {!set_now} (the event engine stamps each
    dispatch; {!Drtp.Manager} stamps each scenario item), so journals are
    deterministic and diffable across runs and job counts.

    {b Cost.}  Every probe is guarded by the {!on} switch: disabled cost
    is one load and one branch, inside the <= 2% disabled-instrumentation
    budget the bench harness enforces. *)

val on : bool ref
(** Master switch, exposed as a ref so hot paths can guard event
    construction with [if !Journal.on then ...].  Flip it with
    {!set_enabled}. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Events} *)

(** One link's backup-route cost, decomposed as the cost row the search
    ran on priced it ([Drtp.Routing.backup_verdicts]): the total is
    [lc_q +. lc_conflict +. lc_eps] in that association order, so the
    parts sum {e bit-exactly} to the row entry the search compared. *)
type link_cost = {
  lc_link : int;
  lc_q : float;  (** Q-penalty for sharing a failure domain with the
                     primary or an earlier backup *)
  lc_conflict : float;
      (** scheme conflict term: [‖APLV_i‖₁] (P-LSR), [Σ c_{i,j}] (D-LSR)
          or the constant 1 (SPF) *)
  lc_eps : float;  (** ε per-hop tie-break (0 for SPF) *)
}

val link_cost_total : link_cost -> float
(** [lc_q +. lc_conflict +. lc_eps] — bit-identical to the routing cost. *)

type event =
  | Request of { conn : int; src : int; dst : int; bw : int }
  | Admitted of { conn : int; backups : int; degraded : bool }
  | Rejected of { conn : int; reason : string }
  | Primary_chosen of { src : int; dst : int; bw : int; links : int list }
  | Backup_chosen of {
      src : int;
      dst : int;
      bw : int;
      scheme : string;
      rank : int;  (** 0 = first backup, 1 = second, ... *)
      links : link_cost list;  (** per-link cost decomposition *)
    }
  | Spare_change of { link : int; before : int; after : int }
      (** the link's spare pool [SC_i] moved (reservation, multiplexing
          adjustment, release reclaim or activation steal) *)
  | Flood_done of {
      src : int;
      dst : int;
      messages : int;
      candidates : int;
      truncated : bool;
    }
  | Cdp_sent of { node : int; hc : int }
  | Cdp_dropped of { node : int; reason : string }
      (** reason is ["ttl"], ["loop"] or ["bandwidth"] *)
  | Cdp_candidate of { hops : int; primary_ok : bool }
  | Failure_detected of { edge : int; victims : int }
  | Report_hop of { conn : int; hops : int; detection : float; report : float }
      (** failure report travelling [hops] links back to the source:
          detection and reporting components of the recovery latency *)
  | Backup_activated of {
      conn : int;
      index : int;
      detection : float;
      report : float;
      activation : float;
    }  (** per-phase latency decomposition; their sum is the paper's
          service-disruption time *)
  | Backup_contended of { conn : int }
      (** no surviving backup could get its bandwidth *)
  | Connection_lost of { conn : int; latency : float }
  | Rerouted of { conn : int; latency : float; retries : int }
  | Reprotected of { conn : int; fresh : int }
  | Teardown of { conn : int }
  | Message_dropped of { cls : string; id : int }
      (** a control-plane message was lost to fault injection; [cls] is a
          {!Dr_faults.Faults.cls_name} tag, [id] the affected connection
          (or destination node for CDP copies) *)
  | Retransmit of { cls : string; conn : int; attempt : int }
      (** retransmission [attempt] (1-based) of a lost control message
          after its backoff timeout *)
  | Flood_truncated of { src : int; dst : int; messages : int }
      (** a bounded flood hit [cdp_cap] and stopped expanding — its
          candidate set is incomplete, which silently skews BF routing *)
  | Reprotect_queued of { conn : int; pending : int }
      (** step 4 left the connection with no backup; it joined the
          manager's reprotection queue ([pending] entries now queued) *)
  | Group_failed of { group : int; edges : int; victims : int }
      (** an SRLG group failed as one correlated event, taking [edges]
          member edges down; [victims] is the group's
          protected-connection exposure (primaries crossing it) *)
  | Chain_built of { src : int; dst : int; members : int; disjoint : int }
      (** a k-resilient backup chain was selected; [disjoint] of its
          [members] are fully SRLG-disjoint from the primary and from the
          chain's earlier members (the rest are graceful fallbacks) *)
  | Chain_failover of { conn : int; depth : int; remaining : int }
      (** a group failure activated chain member [depth] (0-based
          priority), leaving [remaining] registered members — the
          connection's residual resilience *)
  | Chain_exhausted of { conn : int }
      (** no chain member survived the correlated failure (or none could
          get bandwidth); the connection is lost or queued for
          reprotection *)
  | Lsa_originated of { shard : int; link : int; lsa_seq : int }
      (** a shard originated a sequence-numbered link-state advertisement
          for one of its own links ({!Dr_shard.Shard_sim}) *)
  | Lsa_delivered of { shard : int; link : int; lsa_seq : int; lag : float }
      (** an LSA reached shard [shard]; [lag] is the convergence lag —
          delivery time minus the instant the link's state first diverged
          from its last advertisement (0 for pure periodic refreshes) *)
  | Shard_setup of { conn : int; shards : int; attempt : int }
      (** an inter-shard setup handshake was launched across [shards]
          involved shards (attempt 1 = first try, >1 = after crankback) *)
  | Shard_crankback of { conn : int; attempt : int; reason : string }
      (** an inter-shard setup was rejected against ground truth (the
          source routed on a stale view); the source cranks back and
          re-routes with the piggybacked fresh state *)
  | Stale_decision of { conn : int; age : float; divergent : bool }
      (** an inter-shard admission decision was taken on a view whose
          remote entries averaged [age] seconds old; [divergent] marks
          the route differing from the omniscient route *)
  | What_if of { conn : int; src : int; dst : int; verdict : string }
      (** a speculative admission probe ran against the live state and
          was undone: the truth is unchanged, [verdict] records what the
          admission would have returned ("accepted", "no-primary",
          "no-backup") *)
  | Batch_done of { size : int; accepted : int }
      (** the batched admission path committed [size] requests, of which
          [accepted] were admitted *)
  | Span_open of {
      trace : int;  (** 48-bit trace id drawn from the causal RNG *)
      span : int;  (** span id, unique within the trace *)
      parent : int;  (** enclosing span id, [-1] for a trace root *)
      cause : int;
          (** causal-predecessor span id ([-1] for none): the span whose
              completion triggered this one without containing it — e.g. a
              crankback attempt caused by the rejected previous attempt *)
      phase : string;  (** phase label, e.g. ["recovery"], ["report"] *)
      conn : int;  (** connection id, [-1] when not connection-scoped *)
      t0 : float;
          (** logical start time.  Distinct from the entry's [t] stamp
              because analytic recovery computes a whole latency
              decomposition at one simulation instant: [t0]/[dur] carry the
              reconstructed timeline. *)
    }
  | Span_close of { trace : int; span : int; dur : float }
      (** closes [span]; [dur] is the span's {e exact} duration as the
          emitting code computed it, so per-phase durations re-folded in
          emission order sum bit-exactly to the composed latency *)
  | Ring_dropped of { count : int }
      (** the bounded ring overwrote [count] entries before this export:
          the journal's oldest events (and any spans they carried) are
          gone.  Synthesised at export time, never recorded live. *)
  | Checkpoint_written of { seq : int; conns : int; bytes : int }
      (** the persistence layer serialised a checkpoint covering WAL
          records up to [seq]; [conns] connections, [bytes] on disk *)
  | Wal_appended of { seq : int; op : string }
      (** a write-ahead record was durably appended ({e sampled} — the
          persistence layer journals every [wal_sample]-th append, so the
          journal carries the WAL's progress without doubling it) *)
  | Crash_injected of { at_batch : int; wal_seq : int }
      (** fault injection killed the manager at a batch boundary; the WAL
          had [wal_seq] records — everything after the last checkpoint
          must come back through replay *)
  | Recovery_replayed of { checkpoint_seq : int; replayed : int; conns : int }
      (** recovery restored the checkpoint at [checkpoint_seq] and
          replayed [replayed] WAL-tail records through [Manager.apply],
          leaving [conns] live connections *)
  | Request_shed of { conn : int; reason : string; queued : int }
      (** overload control rejected the request without admission work;
          [reason] is ["queue-full"] or ["deadline"], [queued] the
          admission-queue depth at the decision *)

val kind_name : event -> string
(** Stable kebab-case kind tag, e.g. ["backup-chosen"]. *)

val all_kinds : string list
(** The documented set of kind tags — the schema contract CI checks. *)

type entry = { seq : int; time : float; event : event }
(** [seq] numbers appends into one buffer (monotone, survives ring
    overwrite so gaps reveal drops); [time] is the simulation time
    current when the event was recorded. *)

(** {1 Buffers} *)

type t
(** A bounded ring buffer of entries. *)

val create : ?capacity:int -> unit -> t
(** Default capacity {!default_capacity}. *)

val default_capacity : int

val capacity : t -> int
val length : t -> int

val recorded : t -> int
(** Total entries ever appended, including overwritten ones. *)

val dropped : t -> int
(** [recorded - length] once the ring has wrapped. *)

val totals : t -> (string * int) list
(** Exact per-kind event counts, one pair per kind in {!all_kinds} order
    (zeros included).  Counted when an event is recorded, so they include
    entries the ring has since overwritten, plus every event of the
    captures {!merge}d in (not the [Ring_dropped] marker a wrapped capture
    leads with). *)

val entries : t -> entry list
(** Oldest first. *)

val clear : t -> unit

(** {1 Recording} *)

val record : event -> unit
(** Append to the current domain's buffer, stamped with {!now}.  No-op
    while disabled. *)

val set_now : float -> unit
(** Install the simulation time used to stamp subsequent events (per
    domain). *)

val now : unit -> float

val current : unit -> t
(** The calling domain's current buffer. *)

(** {1 Causal spans}

    A lightweight causal-context layer over the journal: spans are
    [Span_open]/[Span_close] event pairs carrying a trace id, a parent
    edge (containment) and an optional cause edge (triggering), from
    which {!Dr_trace.Trace} reconstructs per-connection DAGs and critical
    paths.

    {b Determinism.}  Trace ids are drawn from a dedicated per-domain
    SplitMix64 stream (never shared with simulation RNGs, so tracing is
    behaviour-neutral), and span ids count up from a per-context counter.
    Parallel drivers hand each task a distinct [trace_seed] (via
    {!capture}) in task-index order, which keeps merged journals
    byte-identical for any [--jobs] count.

    {b Cost.}  Every operation is a no-op returning {!Causal.null} while
    the journal is disabled — same one-load-one-branch budget as
    {!record}. *)

module Causal : sig
  type span
  (** A handle to an open span: trace id + span id.  Copyable, cheap. *)

  val null : span
  (** The absent span: all operations on it are no-ops, and passing it as
      [?cause] means "no causal predecessor". *)

  val is_null : span -> bool
  val trace_id : span -> int
  val span_id : span -> int

  val of_ids : trace:int -> span:int -> span
  (** Rebuild a span handle from serialised (trace, span) ids — the
      persistence layer's checkpoint restore uses it so a recovered
      manager closes the {e same} spans the uncrashed run would.
      [of_ids ~trace:(-1) ~span:(-1)] is {!null}. *)

  val reset : seed:int -> unit
  (** Re-seed the calling domain's causal context (trace-id RNG, span
      counter, ambient stack).  Unpooled drivers call this once per run;
      pooled tasks get it implicitly from [capture ~trace_seed]. *)

  val alloc_trace_epochs : t -> int -> int
  (** [alloc_trace_epochs buf n] reserves a block of [n] distinct
      trace-seed epochs on the coordinator buffer [buf] and returns the
      first: give task [i] seed [base + i] (before any parallel
      dispatch) and the merged journal is independent of the job count.
      The counter is per-buffer — a journal's bytes depend only on the
      run that produced it, not on earlier runs in the same process —
      and advances across successive fan-outs into the same buffer, so
      seed streams never repeat within a journal.  {!clear} resets
      it. *)

  val root : ?cause:span -> ?conn:int -> ?t0:float -> string -> span
  (** Open a root span of a fresh trace.  [t0] defaults to {!now}.
      Returns {!null} (and records nothing) while disabled. *)

  val child : ?cause:span -> ?conn:int -> ?t0:float -> parent:span -> string -> span
  (** Open a span under [parent] (same trace).  {!null} parent begets a
      {!null} child, so call sites need no enabled-check of their own. *)

  val leaf : ?cause:span -> ?conn:int -> ?t0:float -> parent:span -> dur:float -> string -> unit
  (** [child] + immediate {!close}: a span with no children of its own. *)

  val close : span -> dur:float -> unit
  (** Close the span with its exact duration, as computed by the caller
      — the assembler folds these durations verbatim, preserving
      bit-exactness against composed latencies. *)

  val current : unit -> span
  (** Innermost span pushed by {!with_current} on this domain ({!null}
      when none): lets a callee (e.g. the flooding layer) attach children
      to its caller's span without a signature change. *)

  val with_current : span -> (unit -> 'a) -> 'a
  (** Run the thunk with the span pushed as the ambient {!current}
      (popped on exit, also on exception). *)
end

val with_buffer : t -> (unit -> 'a) -> 'a
(** Run the thunk with [t] installed as the current buffer (restored on
    exit, also on exception). *)

type captured
(** What a {!capture}d thunk recorded: its retained entries and its exact
    per-kind totals. *)

val captured_entries : captured -> entry list
(** Oldest first.  If the thunk wrapped its private ring, the list is
    prefixed with a [Ring_dropped] entry so the overwrite is not silent. *)

val capture : ?capacity:int -> ?trace_seed:int -> (unit -> 'a) -> 'a * captured
(** Run the thunk against a fresh buffer with simulation time reset to 0,
    and return what it recorded.  The worker-side half of deterministic
    parallel journalling: the coordinator {!merge}s each task's capture
    in task-index order.

    [trace_seed] additionally resets the causal context ({!Causal.reset})
    for the thunk's duration and restores it after — give each task a
    distinct, task-indexed seed (a per-cell seed or a
    {!Causal.alloc_trace_epochs} block) and span ids in the merged
    journal are byte-identical for any job count. *)

val discarding : ?trace_seed:int -> (unit -> 'a) -> 'a
(** {!capture} that keeps nothing: the thunk runs with the same clock
    reset, causal-context reset (given [trace_seed]) and restore, so its
    spans draw the same trace ids, but what it records is dropped as it is
    recorded and no ring is allocated. *)

val merge : t -> captured -> unit
(** Re-append a capture's entries (coordinator side) and add its totals.
    Sequence numbers are re-stamped by the receiving buffer; timestamps
    are kept.  The totals come from the capture, not from the re-appended
    entries, so they stay exact when the capture's ring wrapped. *)

(** {1 JSONL export} *)

val entry_to_json : entry -> string
(** One JSON object, no trailing newline:
    [{"seq":N,"t":<sim-s>,"kind":"...",...}] with event payload fields
    inlined at top level. *)

val write_jsonl : t -> out_channel -> unit
(** One line per retained entry, oldest first.  A buffer that wrapped its
    ring leads with a synthetic [ring-dropped] line (seq = total appended)
    announcing how many entries were overwritten. *)

val to_jsonl_string : t -> string

(** {1 JSONL reader}

    A minimal self-contained JSON parser (the repo carries no JSON
    dependency), enough to read journals back for [drtp_sim inspect] and
    the CI schema check. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_of_string : string -> (json, string) result

val mem : string -> json -> json option
(** Field lookup in an [Obj]. *)

type parsed = {
  p_seq : int;
  p_time : float;
  p_kind : string;
  p_fields : (string * json) list;
}

val parse_line : string -> (parsed, string) result
(** Parse one journal line and validate the envelope: an object carrying
    integer ["seq"], numeric ["t"] and a ["kind"] drawn from
    {!all_kinds}. *)

val fold_jsonl :
  string -> init:'a -> f:('a -> int -> (parsed, string) result -> 'a) -> ('a, string) result
(** Fold [f acc lineno result] over every line of a journal file;
    [Error] only for I/O failure. *)
