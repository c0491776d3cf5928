type error = { index : int; attempts : int; message : string }

(* One queue shard per worker.  Submission round-robins across shards and
   blocks on [not_full] at [queue_bound]; workers drain their own shard
   first and steal from the others when it is empty. *)
type shard = {
  sm : Mutex.t;
  not_full : Condition.t;
  q : (unit -> unit) Queue.t;
}

type t = {
  jobs : int;
  queue_bound : int;
  retries : int;
  shards : shard array; (* empty when [jobs = 1] *)
  gm : Mutex.t; (* guards [stopped], [mapping] *)
  work_ready : Condition.t; (* workers sleep here when every shard is dry *)
  task_done : Condition.t; (* the coordinator sleeps here inside [map] *)
  mutable stopped : bool;
  mutable mapping : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()
let jobs pool = pool.jobs

(* Scan the shards starting at the worker's own; pop the first task found.
   Signalling [not_full] after unlocking is safe: the submitter re-checks
   the queue length in a predicate loop. *)
let try_pop pool i =
  let n = Array.length pool.shards in
  let rec scan k =
    if k >= n then None
    else begin
      let s = pool.shards.((i + k) mod n) in
      Mutex.lock s.sm;
      if Queue.is_empty s.q then begin
        Mutex.unlock s.sm;
        scan (k + 1)
      end
      else begin
        let task = Queue.pop s.q in
        Mutex.unlock s.sm;
        Condition.signal s.not_full;
        Some task
      end
    end
  in
  scan 0

let worker pool i =
  let next () =
    match try_pop pool i with
    | Some task -> Some task
    | None ->
        Mutex.lock pool.gm;
        let rec wait () =
          match try_pop pool i with
          | Some task ->
              Mutex.unlock pool.gm;
              Some task
          | None ->
              if pool.stopped then begin
                Mutex.unlock pool.gm;
                None
              end
              else begin
                Condition.wait pool.work_ready pool.gm;
                wait ()
              end
        in
        wait ()
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some task ->
        task ();
        Mutex.lock pool.gm;
        Condition.broadcast pool.task_done;
        Mutex.unlock pool.gm;
        loop ()
  in
  loop ()

let create ?jobs ?(queue_bound = 32) ?(retries = 1) () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  if queue_bound < 1 then invalid_arg "Pool.create: queue_bound must be >= 1";
  if retries < 0 then invalid_arg "Pool.create: retries must be >= 0";
  let pool =
    {
      jobs;
      queue_bound;
      retries;
      shards =
        (if jobs = 1 then [||]
         else
           Array.init jobs (fun _ ->
               {
                 sm = Mutex.create ();
                 not_full = Condition.create ();
                 q = Queue.create ();
               }));
      gm = Mutex.create ();
      work_ready = Condition.create ();
      task_done = Condition.create ();
      stopped = false;
      mapping = false;
      domains = [];
    }
  in
  if jobs > 1 then
    pool.domains <- List.init jobs (fun i -> Domain.spawn (fun () -> worker pool i));
  pool

let submit pool idx task =
  let s = pool.shards.(idx mod pool.jobs) in
  Mutex.lock s.sm;
  while Queue.length s.q >= pool.queue_bound do
    Condition.wait s.not_full s.sm
  done;
  Queue.push task s.q;
  Mutex.unlock s.sm;
  Mutex.lock pool.gm;
  Condition.signal pool.work_ready;
  Mutex.unlock pool.gm

(* Run one task with crash containment: catch, retry, and only then
   surface an [Error].  Runs inside a worker domain (or inline when
   [jobs = 1]) — it must never raise. *)
let run_task pool f x index =
  let rec attempt k =
    match f x with
    | v -> Ok v
    | exception e ->
        if k <= pool.retries then attempt (k + 1)
        else Error { index; attempts = k; message = Printexc.to_string e }
  in
  attempt 1

let map ?on_result pool f items =
  let n = Array.length items in
  let results = Array.make n None in
  let report i r =
    match on_result with None -> () | Some cb -> cb i r
  in
  if pool.jobs = 1 then
    for i = 0 to n - 1 do
      let r = run_task pool f items.(i) i in
      results.(i) <- Some r;
      report i r
    done
  else begin
    Mutex.lock pool.gm;
    if pool.stopped then begin
      Mutex.unlock pool.gm;
      invalid_arg "Pool.map: pool is shut down"
    end;
    if pool.mapping then begin
      Mutex.unlock pool.gm;
      invalid_arg "Pool.map: overlapping map on the same pool"
    end;
    pool.mapping <- true;
    Mutex.unlock pool.gm;
    for i = 0 to n - 1 do
      submit pool i (fun () -> results.(i) <- Some (run_task pool f items.(i) i))
    done;
    (* Collect in index order so [on_result] fires deterministically from
       this — the coordinating — domain.  A worker's result write happens
       before its [task_done] broadcast (both ordered by [gm]), so a slot
       observed as [None] here is re-checked after the next broadcast. *)
    Mutex.lock pool.gm;
    for i = 0 to n - 1 do
      while results.(i) = None do
        Condition.wait pool.task_done pool.gm
      done;
      match results.(i) with
      | None -> assert false
      | Some r ->
          Mutex.unlock pool.gm;
          report i r;
          Mutex.lock pool.gm
    done;
    pool.mapping <- false;
    Mutex.unlock pool.gm
  end;
  Array.map (function Some r -> r | None -> assert false) results

let map_list ?on_result pool f items =
  Array.to_list (map ?on_result pool f (Array.of_list items))

let shutdown pool =
  Mutex.lock pool.gm;
  if pool.stopped then Mutex.unlock pool.gm
  else begin
    pool.stopped <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.gm;
    List.iter Domain.join pool.domains;
    pool.domains <- []
  end

let with_pool ?jobs ?queue_bound ?retries f =
  let pool = create ?jobs ?queue_bound ?retries () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
