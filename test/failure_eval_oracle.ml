(* Differential oracle for {!Drtp.Failure_eval}: the snapshot evaluation as
   it ran before the victim index and the budget row.  Every failure reads
   its victims from [Net_state]'s per-edge primary index
   ([primaries_crossing_edges]: a Hashtbl fold and a sort per failure) and
   keeps its link budgets in a fresh Hashtbl.  Slow and obviously
   faithful to the greedy walk of the interface; the property tests compare
   every entry point of the library against it field by field. *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Net_state = Drtp.Net_state
module Resources = Drtp.Resources
module FE = Drtp.Failure_eval

let activations ~spare_only state ~edges victims =
  match victims with
  | [] -> 0
  | _ ->
      let resources = Net_state.resources state in
      let budget = Hashtbl.create 32 in
      let budget_of l =
        match Hashtbl.find_opt budget l with
        | Some b -> b
        | None ->
            let b =
              Resources.spare_bw resources l
              + if spare_only then 0 else Resources.free resources l
            in
            Hashtbl.replace budget l b;
            b
      in
      let try_backup bw b =
        let links = Path.links b in
        if Path.crosses_any_edge b edges then false
        else if List.for_all (fun l -> budget_of l >= bw) links then begin
          List.iter (fun l -> Hashtbl.replace budget l (budget_of l - bw)) links;
          true
        end
        else false
      in
      List.fold_left
        (fun n (conn : Net_state.conn) ->
          if List.exists (try_backup conn.bw) conn.backups then n + 1 else n)
        0 victims

let evaluate_edges ?(spare_only = true) state ~edges =
  let victims = Net_state.primaries_crossing_edges state ~edges in
  (List.length victims, activations ~spare_only state ~edges victims)

let evaluate_edge ?spare_only state ~edge : FE.edge_outcome =
  let affected, activated = evaluate_edges ?spare_only state ~edges:[ edge ] in
  { edge; affected; activated }

let evaluate_node ?(spare_only = true) state ~node : FE.node_outcome =
  let edges =
    Array.to_list (Graph.out_links (Net_state.graph state) node)
    |> List.map Graph.edge_of_link
  in
  let endpoint, transit =
    List.partition
      (fun (c : Net_state.conn) -> c.src = node || c.dst = node)
      (Net_state.primaries_crossing_edges state ~edges)
  in
  {
    node;
    transit_affected = List.length transit;
    transit_activated = activations ~spare_only state ~edges transit;
    endpoint_lost = List.length endpoint;
  }

(* Sum the outcomes of a sequence of failures into a result without a
   per-edge list. *)
let tally outcomes : FE.result =
  List.fold_left
    (fun (r : FE.result) (affected, activated) ->
      if affected > 0 then
        {
          r with
          attempts = r.attempts + affected;
          successes = r.successes + activated;
          edges_evaluated = r.edges_evaluated + 1;
        }
      else r)
    FE.empty_result outcomes

let evaluate_nodes ?spare_only state =
  List.init
    (Graph.node_count (Net_state.graph state))
    (fun node ->
      let o = evaluate_node ?spare_only state ~node in
      (o.transit_affected, o.transit_activated))
  |> tally

let evaluate_edge_pair ?spare_only state ~edges:(e1, e2) : FE.pair_outcome =
  let affected, activated = evaluate_edges ?spare_only state ~edges:[ e1; e2 ] in
  { edges = (e1, e2); affected; activated }

let evaluate_double ?spare_only ?(samples = 200) ?(seed = 1) state =
  let edge_count = Graph.edge_count (Net_state.graph state) in
  if edge_count < 2 then invalid_arg "Failure_eval.evaluate_double: need >= 2 edges";
  let rng = Dr_rng.Splitmix64.create seed in
  List.init samples (fun _ ->
      let e1, e2 = Dr_rng.Dist.pick_distinct_pair rng edge_count in
      let o = evaluate_edge_pair ?spare_only state ~edges:(e1, e2) in
      (o.affected, o.activated))
  |> tally

let evaluate ?spare_only state : FE.result =
  let per_edge =
    List.init
      (Graph.edge_count (Net_state.graph state))
      (fun edge -> evaluate_edge ?spare_only state ~edge)
    |> List.filter (fun (o : FE.edge_outcome) -> o.affected > 0)
  in
  {
    (tally (List.map (fun (o : FE.edge_outcome) -> (o.affected, o.activated)) per_edge))
    with
    per_edge;
  }

let evaluate_group ?spare_only state ~group : FE.group_outcome =
  let edges = Dr_resilience.Srlg.edges_of_group (Net_state.srlg state) group in
  let affected, activated = evaluate_edges ?spare_only state ~edges in
  { group; affected; activated }

let evaluate_srlg ?spare_only state =
  List.init
    (Dr_resilience.Srlg.group_count (Net_state.srlg state))
    (fun group ->
      let o = evaluate_group ?spare_only state ~group in
      (o.affected, o.activated))
  |> tally
