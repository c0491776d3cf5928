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

(* The view hands Routing its advertised inputs; Routing prices and
   searches them. *)
let find_backups t state ~scheme ~primary ~bw ~count =
  let term =
    match scheme with
    | Routing.Dlsr ->
        let edge_lset = Path.Link_set.elements (Path.edge_set primary) in
        Array.map
          (fun cv -> Drtp.Conflict_vector.conflict_count_with cv ~edge_lset)
          t.cv
    | Routing.Plsr | Routing.Spf -> t.norm1
  in
  Routing.find_advertised_backups ~avail:t.avail ~term scheme state ~primary
    ~bw ~count

let route t state ~scheme ~backup_count ~src ~dst ~bw =
  match find_primary t state ~src ~dst ~bw with
  | None -> Error Routing.No_primary
  | Some primary -> (
      if backup_count = 0 then Ok { Routing.primary; backups = [] }
      else
        match find_backups t state ~scheme ~primary ~bw ~count:backup_count with
        | [] -> Error Routing.No_backup
        | backups -> Ok { Routing.primary; backups })
