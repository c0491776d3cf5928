(** Admission control as a service: speculative what-if queries over the
    live {!Drtp.Net_state}.

    The paper's schemes decide admissions against the network truth; this
    layer lets a caller {e probe} that truth — "would this request be
    accepted?", "what breaks if link [L_i] fails?" — without mutating it.
    Speculative admissions run through the exact sequential
    {!Drtp.Manager.apply} path against the live state inside
    {!Drtp.Manager.speculate}, whose undo log puts back exactly what the
    admission changed; the verdict they return is therefore the verdict a
    real admission would get, by construction, and a what-if costs about
    one admission.

    Speculation is invisible to observability: journal events from the
    speculative run are captured into a throwaway ring and the
    causal-trace RNG is saved and restored, so what-ifs perturb neither
    journal bytes nor the trace ids of later real admissions.  Each
    completed what-if is recorded as a single [what-if] journal event. *)

type verdict =
  | Accepted of { backups : int; degraded : bool }
  | Rejected of Drtp.Routing.reject_reason

val verdict_name : verdict -> string
(** "accepted", "no-primary" or "no-backup". *)

val equal_verdict : verdict -> verdict -> bool

type t

val create : Drtp.Manager.t -> t
(** Wrap a manager.  Holds no copy of its state: what-ifs speculate on
    the manager itself. *)

val manager : t -> Drtp.Manager.t

val admit_now : t -> now:float -> conn:int -> src:int -> dst:int -> bw:int -> verdict
(** A {e real} admission through {!Drtp.Manager.apply} (stats, journal
    events and reprotection behaviour identical to a scenario replay),
    returning the verdict.  The building block of {!Batch.admit}. *)

val release_now : t -> now:float -> conn:int -> unit
(** A real release through {!Drtp.Manager.apply}. *)

val what_if_admit :
  ?conn:int -> t -> now:float -> src:int -> dst:int -> bw:int -> verdict
(** Speculative admission: admit, read the verdict, undo.  The truth
    (state, stats, reprotection queue, journal, trace ids) is
    bit-identical before and after, also when the admission raises (for
    example on a [conn] already in use), in which case the exception
    propagates.  Records one [what-if] journal event.  [conn] defaults to
    a probe id far above scenario connection ids. *)

val what_if_admit_set :
  ?first_conn:int -> t -> now:float -> (int * int * int) list -> verdict list
(** "Can I admit this set?": speculatively admit [(src, dst, bw)] requests
    {e in order} in one speculation — later verdicts see the earlier
    speculative admissions, exactly as a real burst would — then undo
    them all (on an exception too) and record one [what-if] event per
    request. *)

type fail_probe = {
  fp_edge : int;
  fp_affected : int;  (** primaries a failure of the edge would disable *)
  fp_activated : int;  (** backups that would win spare on all their links *)
}

val what_if_fail_edge : t -> edge:int -> fail_probe
(** "What breaks if [L_i] fails?" — served from the precomputed state via
    {!Drtp.Failure_eval.evaluate_edge}, which is hypothetical by
    construction (nothing mutated, nothing to undo). *)
