(** Domain-based worker pool for independent simulation tasks.

    The evaluation grid — {!Dr_exp.Sweep} cells, {!Dr_exp.Replicate}
    seeds, the double-failure Monte-Carlo — is embarrassingly parallel:
    every task builds its own manager and network state and only shares
    immutable inputs (the graph, a scenario).  The pool executes such
    tasks across OCaml 5 domains while keeping the {e observable} output
    identical to a sequential run:

    - {b Deterministic merging.}  {!map} collects results into an array
      keyed by task index, so the caller sees submission order regardless
      of completion order.  Running the same batch with [~jobs:1] and
      [~jobs:N] produces the same result array, element for element.
    - {b Coordinated callbacks.}  [on_result] is invoked {e only} from
      the domain that called {!map} (the coordinating domain), in strict
      task-index order — never concurrently, never out of order.
    - {b Crash containment.}  An exception inside a task is caught in the
      worker, the task is retried ([retries] more attempts, default one),
      and a still-failing task becomes an [Error] element rather than
      killing the batch or the pool.
    - {b Sharded, bounded queue.}  Each worker owns a queue shard;
      submission round-robins across shards and blocks once a shard holds
      [queue_bound] tasks, so a huge batch never materialises in memory.
      Idle workers steal from other shards.

    With [jobs = 1] no domains are spawned and tasks run inline in the
    submitting domain — the sequential path, byte-identical to the
    pre-pool code.  A pool is owned by one coordinating domain: calls to
    {!map} on the same pool must not overlap. *)

type t

type error = {
  index : int;  (** index of the failed task in its batch *)
  attempts : int;  (** executions attempted (1 + retries performed) *)
  message : string;  (** [Printexc.to_string] of the last exception *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [--jobs] default. *)

val create : ?jobs:int -> ?queue_bound:int -> ?retries:int -> unit -> t
(** Spawn a pool of [jobs] worker domains (default {!default_jobs}; [1]
    spawns none).  [queue_bound] (default 32) bounds each worker's queue
    shard; [retries] (default 1) is how many times a raising task is
    re-executed before it is reported as failed. *)

val jobs : t -> int

val map :
  ?on_result:(int -> ('b, error) result -> unit) ->
  t ->
  ('a -> 'b) ->
  'a array ->
  ('b, error) result array
(** [map pool f items] runs [f items.(i)] for every [i] and returns the
    results in index order.  Tasks must be independent: they may share
    immutable data but must not communicate or mutate shared state.
    [on_result] is called from the coordinating domain in index order as
    results become available (element [i] is reported only after every
    element before it). *)

val map_list :
  ?on_result:(int -> ('b, error) result -> unit) ->
  t ->
  ('a -> 'b) ->
  'a list ->
  ('b, error) result list

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Must not be called
    while a {!map} is in progress. *)

val with_pool :
  ?jobs:int -> ?queue_bound:int -> ?retries:int -> (t -> 'a) -> 'a
(** [create], run the function, always [shutdown]. *)
