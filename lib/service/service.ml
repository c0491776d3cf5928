module Net_state = Drtp.Net_state
module Manager = Drtp.Manager
module Routing = Drtp.Routing
module Failure_eval = Drtp.Failure_eval
module Scenario = Dr_sim.Scenario
module J = Dr_obs.Journal

type verdict =
  | Accepted of { backups : int; degraded : bool }
  | Rejected of Routing.reject_reason

let verdict_name = function
  | Accepted _ -> "accepted"
  | Rejected r -> Routing.reject_reason_name r

let equal_verdict (a : verdict) (b : verdict) = a = b

type t = {
  manager : Manager.t;
  mutable next_probe_id : int;
      (* ids for journalled what-if probes, far above scenario conn ids *)
}

let create manager = { manager; next_probe_id = 900_000_000 }
let manager t = t.manager

(* One admission through the exact sequential path ({!Manager.apply} on a
   synthetic scenario item), with the verdict derived from the stats delta
   — so batched and speculative admissions cannot diverge from a plain
   scenario replay by construction. *)
let admit_now t ~now ~conn ~src ~dst ~bw =
  let st = Manager.stats t.manager in
  let accepted0 = st.Manager.accepted in
  let no_primary0 = st.Manager.rejected_no_primary in
  Manager.apply t.manager
    {
      Scenario.time = now;
      event = Scenario.Request { conn; src; dst; bw; duration = 0.0 };
    };
  if st.Manager.accepted > accepted0 then
    match Net_state.find (Manager.state t.manager) conn with
    | Some c ->
        Accepted
          { backups = List.length c.Net_state.backups; degraded = c.Net_state.degraded }
    | None -> assert false
  else if st.Manager.rejected_no_primary > no_primary0 then
    Rejected Routing.No_primary
  else Rejected Routing.No_backup

let release_now t ~now ~conn =
  Manager.apply t.manager
    { Scenario.time = now; event = Scenario.Release { conn } }

(* A speculation undoes the manager and its state on both exits
   ({!Manager.speculate}) and is isolated from the live journal with
   {!J.discarding}: its events are dropped as they are recorded and the
   causal-trace RNG is saved/restored, so a what-if perturbs neither the
   journal bytes nor the trace ids of subsequent real admissions. *)
let speculate t f = Manager.speculate t.manager (fun () -> J.discarding ~trace_seed:0 f)

let record_what_if ~conn ~src ~dst verdict =
  if !J.on then
    J.record (J.What_if { conn; src; dst; verdict = verdict_name verdict })

let what_if_admit ?conn t ~now ~src ~dst ~bw =
  let conn =
    match conn with
    | Some id -> id
    | None ->
        let id = t.next_probe_id in
        t.next_probe_id <- id + 1;
        id
  in
  let verdict = speculate t (fun () -> admit_now t ~now ~conn ~src ~dst ~bw) in
  record_what_if ~conn ~src ~dst verdict;
  verdict

let what_if_admit_set ?(first_conn = -1) t ~now reqs =
  let first =
    if first_conn >= 0 then first_conn
    else begin
      let id = t.next_probe_id in
      t.next_probe_id <- id + List.length reqs;
      id
    end
  in
  let verdicts =
    speculate t (fun () ->
        List.mapi
          (fun i (src, dst, bw) ->
            admit_now t ~now ~conn:(first + i) ~src ~dst ~bw)
          reqs)
  in
  if !J.on then
    List.iteri
      (fun i ((src, dst, _bw), verdict) ->
        record_what_if ~conn:(first + i) ~src ~dst verdict)
      (List.combine reqs verdicts);
  verdicts

type fail_probe = {
  fp_edge : int;
  fp_affected : int;  (** primaries a failure of the edge would disable *)
  fp_activated : int;  (** backups that would win spare on all their links *)
}

(* "What breaks if L_i fails?" is served straight from the precomputed
   state: {!Failure_eval.evaluate_edge} is hypothetical by construction
   (it never mutates), so nothing needs undoing. *)
let what_if_fail_edge t ~edge =
  let o = Failure_eval.evaluate_edge (Manager.state t.manager) ~edge in
  {
    fp_edge = edge;
    fp_affected = o.Failure_eval.affected;
    fp_activated = o.Failure_eval.activated;
  }
