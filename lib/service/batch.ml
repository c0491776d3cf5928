module J = Dr_obs.Journal

type request = {
  rq_conn : int;
  rq_time : float;
  rq_src : int;
  rq_dst : int;
  rq_bw : int;
}

(* Locality order: group requests by source, then destination, so
   consecutive admissions re-run Dijkstra/BFS from the same root with warm
   per-domain workspaces and a warm cache footprint.  Deterministic (ties
   broken by original index) and opt-in: reordering changes which request
   sees which residual state, so it is a policy knob, not a transparent
   optimisation. *)
let locality_order reqs =
  let n = Array.length reqs in
  let idx = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let ra = reqs.(a) and rb = reqs.(b) in
      match compare ra.rq_src rb.rq_src with
      | 0 -> (
          match compare ra.rq_dst rb.rq_dst with
          | 0 -> compare a b
          | c -> c)
      | c -> c)
    idx;
  idx

let admit ?(reorder = false) ?timings service reqs =
  let n = Array.length reqs in
  (match timings with
  | Some arr when Array.length arr <> n ->
      invalid_arg "Batch.admit: timings length mismatch"
  | _ -> ());
  let order = if reorder then locality_order reqs else Array.init n (fun i -> i) in
  let verdicts =
    Array.make n (Service.Rejected Drtp.Routing.No_primary)
  in
  let accepted = ref 0 in
  Array.iter
    (fun i ->
      let r = reqs.(i) in
      let t0 =
        match timings with Some _ -> Unix.gettimeofday () | None -> 0.0
      in
      let v =
        Service.admit_now service ~now:r.rq_time ~conn:r.rq_conn ~src:r.rq_src
          ~dst:r.rq_dst ~bw:r.rq_bw
      in
      (match timings with
      | Some arr -> arr.(i) <- Unix.gettimeofday () -. t0
      | None -> ());
      (match v with Service.Accepted _ -> incr accepted | Service.Rejected _ -> ());
      verdicts.(i) <- v)
    order;
  if !J.on && n > 0 then J.record (J.Batch_done { size = n; accepted = !accepted });
  verdicts
