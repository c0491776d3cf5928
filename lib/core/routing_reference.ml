(* Reference (oracle) implementation of the routing layer.

   This module is the routing code as it stood before the
   incremental fast path landed: per-query allocation of every search
   array, set-based membership tests, and scheme cost terms read through
   {!Aplv}'s per-link accessors on every Dijkstra relaxation (a list walk
   over the primary's LSET, not the fast path's per-query cost row).
   Both sides read the same APLV matrix; {!Net_state.check_invariants}
   is what checks that store against the connection table.  It is kept as
   an executable specification: the differential harness
   ({!Routing_check}, `drtp_sim check-routing`, the qcheck property suites)
   asserts that {!Routing} picks identical routes with bit-identical cost
   decompositions, and the benchmark reports the fast path's speedup
   against it.

   Three deliberate deltas from the historical code.  The Q term is
   SRLG-aware: a link shares the primary's (or an earlier backup's)
   failure domain when its edge belongs to a group one of their edges
   belongs to, the rule {!Routing} prices by; under the singleton model
   groups are edges, so this is the historical edge test bit for bit.
   Flight-recorder hooks are stripped (the oracle must not double-journal
   routes when run next to the live path).  The pre-workspace
   BFS/Dijkstra bodies are inlined here instead of calling
   {!Dr_topo.Shortest_path} (whose single-pair queries now run on the fast
   workspaces). *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Pqueue = Dr_pqueue.Pqueue
module Srlg = Dr_resilience.Srlg

type scheme = Routing.scheme = Plsr | Dlsr | Spf

let scheme_name = Routing.scheme_name
let epsilon = Routing.epsilon
let q_constant = Routing.q_constant

let link_alive state l =
  not (Net_state.edge_failed state ~edge:(Graph.edge_of_link l))

(* --- pre-workspace searches, verbatim ----------------------------------- *)

let unreachable = max_int

let min_hop_path g ~usable ~src ~dst =
  let n = Graph.node_count g in
  if src = dst then invalid_arg "Routing_reference.min_hop_path: src = dst";
  let dist = Array.make n unreachable in
  let prev = Array.make n (-1) in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if v = dst then found := true
    else
      Array.iter
        (fun l ->
          if usable l then begin
            let w = Graph.link_dst g l in
            if dist.(w) = unreachable then begin
              dist.(w) <- dist.(v) + 1;
              prev.(w) <- l;
              Queue.add w queue
            end
          end)
        (Graph.out_links g v)
  done;
  if dist.(dst) = unreachable then None
  else begin
    let rec rebuild v acc =
      if v = src then acc
      else
        let l = prev.(v) in
        rebuild (Graph.link_src g l) (l :: acc)
    in
    Some (Path.of_links g (rebuild dst []))
  end

let dijkstra_path g ~cost ~src ~dst =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let prev_link = Array.make n (-1) in
  let settled = Array.make n false in
  dist.(src) <- 0.0;
  let queue = Pqueue.create () in
  Pqueue.add queue ~key:0.0 src;
  let rec drain () =
    match Pqueue.pop queue with
    | None -> ()
    | Some (d, v) ->
        if not settled.(v) then begin
          settled.(v) <- true;
          Array.iter
            (fun l ->
              let c = cost l in
              if c < 0.0 then
                invalid_arg "Routing_reference.dijkstra: negative cost";
              if c < infinity then begin
                let w = Graph.link_dst g l in
                let nd = d +. c in
                if nd < dist.(w) then begin
                  dist.(w) <- nd;
                  prev_link.(w) <- l;
                  Pqueue.add queue ~key:nd w
                end
              end)
            (Graph.out_links g v)
        end;
        drain ()
  in
  drain ();
  if dist.(dst) = infinity then None
  else if prev_link.(dst) = -1 then None (* dst is the source itself *)
  else begin
    let rec rebuild v acc =
      let l = prev_link.(v) in
      if l = -1 then acc else rebuild (Graph.link_src g l) (l :: acc)
    in
    Some (dist.(dst), Path.of_links g (rebuild dst []))
  end

(* --- the routing layer, verbatim ----------------------------------------- *)

let find_primary state ~src ~dst ~bw =
  let resources = Net_state.resources state in
  let usable l =
    link_alive state l && Resources.primary_feasible resources ~link:l ~bw
  in
  min_hop_path (Net_state.graph state) ~usable ~src ~dst

type cost_parts = Routing.cost_parts = { q : float; conflict : float; eps : float }

let parts_total p = p.q +. p.conflict +. p.eps

type link_verdict = Routing.link_verdict =
  | Dead
  | No_bandwidth of { required : int }
  | Cost of cost_parts

let backup_link_verdict_general scheme state ~primary ~earlier_backups ~bw =
  let resources = Net_state.resources state in
  let primary_edges = Path.edge_set primary in
  let primary_edge_list = Path.Link_set.elements primary_edges in
  let primary_links = Path.lset primary in
  (* Exact per-link share counts over the earlier backups (multiplicity
     matters: admission requires fitting on top of every reservation). *)
  let earlier_share_count =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun b ->
        List.iter
          (fun l ->
            Hashtbl.replace tbl l
              (1 + Option.value (Hashtbl.find_opt tbl l) ~default:0))
          (Path.links b))
      earlier_backups;
    tbl
  in
  let earlier_edges =
    List.fold_left
      (fun acc b -> Path.Link_set.union acc (Path.edge_set b))
      Path.Link_set.empty earlier_backups
  in
  (* Failure domains are SRLG groups: a link shares the primary's (or an
     earlier backup's) fate when its edge belongs to any group one of
     their edges belongs to. *)
  let srlg = Net_state.srlg state in
  let group_set edges =
    Path.Link_set.fold
      (fun e acc ->
        Array.fold_left
          (fun acc g -> Path.Link_set.add g acc)
          acc
          (Srlg.groups_of_edge_arr srlg e))
      edges Path.Link_set.empty
  in
  let primary_groups = group_set primary_edges
  and earlier_groups = group_set earlier_edges in
  let shares groups e =
    Array.exists
      (fun g -> Path.Link_set.mem g groups)
      (Srlg.groups_of_edge_arr srlg e)
  in
  fun l ->
    let own_shares =
      (if Path.Link_set.mem l primary_links then 1 else 0)
      + Option.value (Hashtbl.find_opt earlier_share_count l) ~default:0
    in
    let required = bw * (1 + own_shares) in
    if not (link_alive state l) then Dead
    else if not (Resources.backup_feasible resources ~link:l ~bw:required) then
      No_bandwidth { required }
    else
      let q =
        let e = Graph.edge_of_link l in
        (if shares primary_groups e then q_constant else 0.0)
        +. if shares earlier_groups e then q_constant else 0.0
      in
      match scheme with
      | Spf -> Cost { q; conflict = 1.0; eps = 0.0 }
      | Plsr ->
          Cost
            {
              q;
              conflict = float_of_int (Aplv.norm1 (Net_state.aplv state) ~link:l);
              eps = epsilon;
            }
      | Dlsr ->
          Cost
            {
              q;
              conflict =
                float_of_int
                  (Aplv.conflict_count_with (Net_state.aplv state) ~link:l
                     ~edge_lset:primary_edge_list);
              eps = epsilon;
            }

let backup_link_verdict ?(earlier_backups = []) scheme state ~primary ~bw =
  backup_link_verdict_general scheme state ~primary ~earlier_backups ~bw

let backup_link_cost_general scheme state ~primary ~earlier_backups ~bw =
  let verdict =
    backup_link_verdict_general scheme state ~primary ~earlier_backups ~bw
  in
  fun l ->
    match verdict l with
    | Dead -> infinity
    | No_bandwidth _ -> infinity
    | Cost p -> parts_total p

let find_backup_general ?max_hops scheme state ~primary ~earlier_backups ~bw =
  let cost = backup_link_cost_general scheme state ~primary ~earlier_backups ~bw in
  let graph = Net_state.graph state in
  let src = Path.src primary and dst = Path.dst primary in
  match max_hops with
  | None -> (
      match dijkstra_path graph ~cost ~src ~dst with
      | None -> None
      | Some (_, p) -> Some p)
  | Some h -> (
      match
        Dr_topo.Constrained_path.cheapest_within_hops graph ~cost ~src ~dst
          ~max_hops:h
      with
      | None -> None
      | Some (_, p) -> Some p)

let find_backup ?max_hops scheme state ~primary ~bw =
  find_backup_general ?max_hops scheme state ~primary ~earlier_backups:[] ~bw

let collect_backups ?max_hops scheme state ~primary ~bw ~count ~existing =
  let rec collect earlier fresh k =
    if k = 0 then List.rev fresh
    else
      match
        find_backup_general ?max_hops scheme state ~primary
          ~earlier_backups:earlier ~bw
      with
      | None -> List.rev fresh
      | Some b ->
          if
            Path.links b = Path.links primary
            || List.exists (fun b' -> Path.links b' = Path.links b) earlier
          then List.rev fresh
          else collect (b :: earlier) (b :: fresh) (k - 1)
  in
  collect (List.rev existing) [] count

let find_backups ?max_hops scheme state ~primary ~bw ~count =
  collect_backups ?max_hops scheme state ~primary ~bw ~count ~existing:[]

let additional_backups ?max_hops scheme state ~primary ~bw ~existing ~count =
  collect_backups ?max_hops scheme state ~primary ~bw ~count ~existing

type reject_reason = Routing.reject_reason = No_primary | No_backup
type route_pair = Routing.route_pair = { primary : Path.t; backups : Path.t list }
type route_fn = Routing.route_fn

let link_state_route_fn ?(backup_count = 1) ?backup_hop_slack scheme ~with_backup
    : route_fn =
 fun state ~src ~dst ~bw ->
  match find_primary state ~src ~dst ~bw with
  | None -> Error No_primary
  | Some primary ->
      if not with_backup then Ok { primary; backups = [] }
      else (
        let max_hops =
          Option.map (fun slack -> Path.hops primary + slack) backup_hop_slack
        in
        match find_backups ?max_hops scheme state ~primary ~bw ~count:backup_count with
        | [] -> Error No_backup
        | backups -> Ok { primary; backups })
