module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Net_state = Drtp.Net_state
module Routing = Drtp.Routing

type t = {
  free : int array;
  avail : int array;
  norm1 : int array;
  cv : Drtp.Conflict_vector.t array;
}

let snapshot_link state l =
  let resources = Net_state.resources state in
  ( Drtp.Resources.free resources l,
    Drtp.Resources.available_for_backup resources l,
    Drtp.Aplv.norm1 (Net_state.aplv state) ~link:l,
    Net_state.conflict_vector state l )

let refresh_link t state l =
  let free, avail, norm1, cv = snapshot_link state l in
  t.free.(l) <- free;
  t.avail.(l) <- avail;
  t.norm1.(l) <- norm1;
  t.cv.(l) <- cv

type snapshot = {
  s_free : int;
  s_avail : int;
  s_norm1 : int;
  s_cv : Drtp.Conflict_vector.t;
}

let snapshot state l =
  let s_free, s_avail, s_norm1, s_cv = snapshot_link state l in
  { s_free; s_avail; s_norm1; s_cv }

let set_snapshot t l s =
  t.free.(l) <- s.s_free;
  t.avail.(l) <- s.s_avail;
  t.norm1.(l) <- s.s_norm1;
  t.cv.(l) <- s.s_cv

let create state =
  let links = Graph.link_count (Net_state.graph state) in
  let t =
    {
      free = Array.make links 0;
      avail = Array.make links 0;
      norm1 = Array.make links 0;
      cv =
        Array.init links (fun l -> Net_state.conflict_vector state l);
    }
  in
  for l = 0 to links - 1 do
    refresh_link t state l
  done;
  t

let refresh_all t state =
  for l = 0 to Array.length t.free - 1 do
    refresh_link t state l
  done

let free t l = t.free.(l)
let available_for_backup t l = t.avail.(l)
let norm1 t l = t.norm1.(l)
let conflict_vector t l = t.cv.(l)

let staleness_count t state =
  let resources = Net_state.resources state in
  let stale = ref 0 in
  for l = 0 to Array.length t.free - 1 do
    if t.free.(l) <> Drtp.Resources.free resources l then incr stale
  done;
  !stale

let link_alive state l =
  not (Net_state.edge_failed state ~edge:(Graph.edge_of_link l))

let find_primary t state ~src ~dst ~bw =
  let usable l = link_alive state l && t.free.(l) >= bw in
  Dr_topo.Shortest_path.min_hop_path (Net_state.graph state) ~usable ~src ~dst ()

(* Mirror of Drtp.Routing.backup_link_cost_general, reading the view. *)
let backup_cost t state ~scheme ~primary ~earlier ~bw =
  let primary_edges = Path.edge_set primary in
  let primary_edge_list = Path.Link_set.elements primary_edges in
  let primary_links = Path.lset primary in
  (* Exact per-link share counts over the earlier backups, mirroring
     {!Drtp.Routing}: multiplicity matters when two earlier members share
     a link. *)
  let earlier_share_count =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun b ->
        List.iter
          (fun l ->
            Hashtbl.replace tbl l
              (1 + Option.value (Hashtbl.find_opt tbl l) ~default:0))
          (Path.links b))
      earlier;
    tbl
  in
  let earlier_edges =
    List.fold_left
      (fun acc b -> Path.Link_set.union acc (Path.edge_set b))
      Path.Link_set.empty earlier
  in
  fun l ->
    let own_shares =
      (if Path.Link_set.mem l primary_links then 1 else 0)
      + Option.value (Hashtbl.find_opt earlier_share_count l) ~default:0
    in
    let required = bw * (1 + own_shares) in
    if not (link_alive state l) then infinity
    else if t.avail.(l) < required then infinity
    else
      let q =
        let e = Graph.edge_of_link l in
        (if Path.Link_set.mem e primary_edges then Routing.q_constant else 0.0)
        +.
        if Path.Link_set.mem e earlier_edges then Routing.q_constant else 0.0
      in
      match scheme with
      | Routing.Spf -> q +. 1.0
      | Routing.Plsr -> q +. float_of_int t.norm1.(l) +. Routing.epsilon
      | Routing.Dlsr ->
          q
          +. float_of_int
               (Drtp.Conflict_vector.conflict_count_with t.cv.(l)
                  ~edge_lset:primary_edge_list)
          +. Routing.epsilon

let find_backups t state ~scheme ~primary ~bw ~count =
  let graph = Net_state.graph state in
  let rec collect earlier fresh k =
    if k = 0 then List.rev fresh
    else
      let cost = backup_cost t state ~scheme ~primary ~earlier ~bw in
      match
        Dr_topo.Shortest_path.dijkstra_path graph
          ~cost:(Array.init (Graph.link_count graph) cost)
          ~src:(Path.src primary) ~dst:(Path.dst primary)
      with
      | None -> List.rev fresh
      | Some (_, b) ->
          if
            Path.links b = Path.links primary
            || List.exists (fun b' -> Path.links b' = Path.links b) earlier
          then List.rev fresh
          else collect (b :: earlier) (b :: fresh) (k - 1)
  in
  collect [] [] count

let route t state ~scheme ~backup_count ~src ~dst ~bw =
  match find_primary t state ~src ~dst ~bw with
  | None -> Error Routing.No_primary
  | Some primary -> (
      if backup_count = 0 then Ok { Routing.primary; backups = [] }
      else
        match find_backups t state ~scheme ~primary ~bw ~count:backup_count with
        | [] -> Error Routing.No_backup
        | backups -> Ok { Routing.primary; backups })
