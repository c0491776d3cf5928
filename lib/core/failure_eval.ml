module Graph = Dr_topo.Graph
module Path = Dr_topo.Path

type edge_outcome = { edge : int; affected : int; activated : int }

type result = {
  attempts : int;
  successes : int;
  edges_evaluated : int;
  per_edge : edge_outcome list;
}

let fault_tolerance r =
  if r.attempts = 0 then 1.0
  else float_of_int r.successes /. float_of_int r.attempts

let merge_results a b =
  {
    attempts = a.attempts + b.attempts;
    successes = a.successes + b.successes;
    edges_evaluated = a.edges_evaluated + b.edges_evaluated;
    per_edge = a.per_edge @ b.per_edge;
  }

let empty_result = { attempts = 0; successes = 0; edges_evaluated = 0; per_edge = [] }

(* The one activation walk behind every evaluation: [edges] fail at once
   and the [victims] (in connection-id order) try their backups in priority
   order.  A backup qualifies if it avoids every failed edge and finds
   [bw] of budget on each of its links — spare, plus free unless
   [spare_only] — and the first that qualifies takes that budget.  Returns
   how many victims activated. *)
let activations ~spare_only state ~edges victims =
  match victims with
  | [] -> 0
  | _ ->
      let resources = Net_state.resources state in
      (* Per-link budget of simultaneous activation grants, in bandwidth
         units.  Only links on some victim's backup matter; keep the
         budgets sparse. *)
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

let evaluate_edge ?spare_only state ~edge =
  let affected, activated = evaluate_edges ?spare_only state ~edges:[ edge ] in
  { edge; affected; activated }

type node_outcome = {
  node : int;
  transit_affected : int;
  transit_activated : int;
  endpoint_lost : int;
}

let evaluate_node ?(spare_only = true) state ~node =
  let edges =
    Array.to_list (Graph.out_links (Net_state.graph state) node)
    |> List.map Graph.edge_of_link
  in
  (* Connections that start or end at the node cannot be saved by any
     backup; only transit victims try theirs. *)
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

let evaluate_nodes ?spare_only state =
  let graph = Net_state.graph state in
  let attempts = ref 0 and successes = ref 0 and evaluated = ref 0 in
  for node = 0 to Graph.node_count graph - 1 do
    let o = evaluate_node ?spare_only state ~node in
    if o.transit_affected > 0 then begin
      incr evaluated;
      attempts := !attempts + o.transit_affected;
      successes := !successes + o.transit_activated
    end
  done;
  {
    attempts = !attempts;
    successes = !successes;
    edges_evaluated = !evaluated;
    per_edge = [];
  }

type pair_outcome = { edges : int * int; affected : int; activated : int }

let evaluate_edge_pair ?spare_only state ~edges:(e1, e2) =
  let affected, activated = evaluate_edges ?spare_only state ~edges:[ e1; e2 ] in
  { edges = (e1, e2); affected; activated }

let evaluate_double ?spare_only ?(samples = 200) ?(seed = 1) state =
  let graph = Net_state.graph state in
  let edge_count = Graph.edge_count graph in
  if edge_count < 2 then invalid_arg "Failure_eval.evaluate_double: need >= 2 edges";
  let rng = Dr_rng.Splitmix64.create seed in
  let attempts = ref 0 and successes = ref 0 and evaluated = ref 0 in
  for _ = 1 to samples do
    let e1, e2 = Dr_rng.Dist.pick_distinct_pair rng edge_count in
    let o = evaluate_edge_pair ?spare_only state ~edges:(e1, e2) in
    if o.affected > 0 then begin
      incr evaluated;
      attempts := !attempts + o.affected;
      successes := !successes + o.activated
    end
  done;
  {
    attempts = !attempts;
    successes = !successes;
    edges_evaluated = !evaluated;
    per_edge = [];
  }

let evaluate ?spare_only state =
  let graph = Net_state.graph state in
  let attempts = ref 0 and successes = ref 0 and evaluated = ref 0 in
  let per_edge = ref [] in
  Graph.iter_edges graph (fun e ->
      let outcome = evaluate_edge ?spare_only state ~edge:e in
      if outcome.affected > 0 then begin
        incr evaluated;
        attempts := !attempts + outcome.affected;
        successes := !successes + outcome.activated;
        per_edge := outcome :: !per_edge
      end);
  {
    attempts = !attempts;
    successes = !successes;
    edges_evaluated = !evaluated;
    per_edge = List.rev !per_edge;
  }

(* ---- correlated (SRLG) failures ---------------------------------------- *)

type group_outcome = { group : int; affected : int; activated : int }

let evaluate_group ?spare_only state ~group =
  let srlg = Net_state.srlg state in
  let edges = Dr_resilience.Srlg.edges_of_group srlg group in
  let affected, activated = evaluate_edges ?spare_only state ~edges in
  { group; affected; activated }

let evaluate_srlg ?spare_only state =
  let srlg = Net_state.srlg state in
  let attempts = ref 0 and successes = ref 0 and evaluated = ref 0 in
  for g = 0 to Dr_resilience.Srlg.group_count srlg - 1 do
    let o = evaluate_group ?spare_only state ~group:g in
    if o.affected > 0 then begin
      incr evaluated;
      attempts := !attempts + o.affected;
      successes := !successes + o.activated
    end
  done;
  {
    attempts = !attempts;
    successes = !successes;
    edges_evaluated = !evaluated;
    per_edge = [];
  }
