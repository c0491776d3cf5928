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

(* ---- the budget row ------------------------------------------------------ *)

(* The per-link activation budgets (in bandwidth units) of one evaluation
   call's failures, one failure at a time.  Each failure takes a new
   [epoch]: [budget.(l)] is what link [l] has left in it when
   [stamp.(l) = epoch], and is read afresh from the pools (spare, plus free
   unless [spare_only]) otherwise, so one row serves every failure of a
   call without being cleared.  A failed link has no budget at all
   ([min_int]): no backup crossing a failed edge fits. *)
type row = {
  resources : Resources.t;
  spare_only : bool;
  budget : int array;
  stamp : int array;
  mutable epoch : int;
}

let row ~spare_only state =
  let links = Graph.link_count (Net_state.graph state) in
  {
    resources = Net_state.resources state;
    spare_only;
    budget = Array.make links 0;
    stamp = Array.make links 0;
    epoch = 0;
  }

(* Start a failure of [edges]. *)
let fail r edges =
  r.epoch <- r.epoch + 1;
  List.iter
    (fun e ->
      let l1, l2 = Graph.links_of_edge e in
      r.stamp.(l1) <- r.epoch;
      r.budget.(l1) <- min_int;
      r.stamp.(l2) <- r.epoch;
      r.budget.(l2) <- min_int)
    edges

let budget r l =
  if r.stamp.(l) = r.epoch then r.budget.(l)
  else begin
    let b =
      Resources.spare_bw r.resources l
      + if r.spare_only then 0 else Resources.free r.resources l
    in
    r.stamp.(l) <- r.epoch;
    r.budget.(l) <- b;
    b
  end

(* A backup qualifies if each occurrence of each of its links finds [bw] of
   budget (so it avoids every failed edge); only then is it charged, [bw]
   per occurrence: a backup that uses a link twice needs [bw] there but
   draws [2 * bw]. *)
let rec fits r bw = function
  | [] -> true
  | l :: rest -> budget r l >= bw && fits r bw rest

let rec charge r bw = function
  | [] -> ()
  | l :: rest ->
      r.budget.(l) <- r.budget.(l) - bw;
      charge r bw rest

(* The first backup, in priority order, that qualifies takes its bandwidth. *)
let rec activate r bw = function
  | [] -> false
  | b :: rest ->
      let links = Path.links b in
      if fits r bw links then begin
        charge r bw links;
        true
      end
      else activate r bw rest

(* The one activation walk behind every evaluation: the [victims] of the
   current failure, in connection-id order, try their backups.  Returns how
   many activated. *)
let rec activations r n = function
  | [] -> n
  | (c : Net_state.conn) :: rest ->
      activations r (if activate r c.bw c.backups then n + 1 else n) rest

(* ---- the victim index ---------------------------------------------------- *)

(* The connection table, highest id first: a least-significant-digit radix
   sort, a byte a pass, on each id's distance below the largest (read as
   unsigned, so exact even when the ids span more than [max_int]).  A
   comparison sort would load two scattered records per comparison.  The
   buckets are lists, so everything it allocates is short-lived and small:
   arrays of the table's length would go straight to the major heap. *)
let by_descending_id state =
  let conns = ref [] and top = ref min_int in
  Net_state.iter_conns state (fun c ->
      conns := c :: !conns;
      top := max !top c.id);
  let top = !top in
  let width = List.fold_left (fun w (c : Net_state.conn) -> w lor (top - c.id)) 0 !conns in
  let buckets = Array.make 256 [] in
  let rec pass shift conns =
    if shift >= Sys.int_size || width lsr shift = 0 then conns
    else begin
      List.iter
        (fun (c : Net_state.conn) ->
          let d = ((top - c.id) lsr shift) land 255 in
          buckets.(d) <- c :: buckets.(d))
        conns;
      (* Each bucket holds its connections in reverse; consing them back
         from the last bucket down restores the order within a bucket. *)
      let sorted = ref [] in
      for d = 255 downto 0 do
        List.iter (fun c -> sorted := c :: !sorted) buckets.(d);
        buckets.(d) <- []
      done;
      pass (shift + 8) !sorted
    end
  in
  pass 0 !conns

(* Put [c] on key [k]'s list unless it already heads it.  Fed the
   connections highest id first, each list comes out in ascending id order
   with no repeats. *)
let add lists k c =
  match lists.(k) with c' :: _ when c' == c -> () | vs -> lists.(k) <- c :: vs

(* Every edge's victims: the connections whose primary crosses it. *)
let victims_by_edge state =
  let lists = Array.make (Graph.edge_count (Net_state.graph state)) [] in
  List.iter
    (fun (c : Net_state.conn) ->
      List.iter (fun l -> add lists (Graph.edge_of_link l) c) (Path.links c.primary))
    (by_descending_id state);
  lists

(* Every node's transit victims: the connections whose primary visits it
   (so crosses one of its incident edges) without starting or ending
   there. *)
let transit_by_node state =
  let graph = Net_state.graph state in
  let lists = Array.make (Graph.node_count graph) [] in
  List.iter
    (fun (c : Net_state.conn) ->
      let visit v = if v <> c.src && v <> c.dst then add lists v c in
      visit (Path.src c.primary);
      List.iter (fun l -> visit (Graph.link_dst graph l)) (Path.links c.primary))
    (by_descending_id state);
  lists

(* The victims of an edge set: the union of its members' lists, in id
   order. *)
let rec union a b =
  match (a, b) with
  | [], v | v, [] -> v
  | (x : Net_state.conn) :: a', (y : Net_state.conn) :: b' ->
      if x.id < y.id then x :: union a' b
      else if y.id < x.id then y :: union a b'
      else x :: union a' b'

(* ---- entry points -------------------------------------------------------- *)

(* [(affected, activated)] when [edges] fail at once and [victims], in id
   order, lose their primaries to it. *)
let outcome r ~edges victims =
  fail r edges;
  (List.length victims, activations r 0 victims)

(* Fold failures into a result that keeps no per-edge list: [outcome i]
   gives failure [i]'s [(affected, activated)]. *)
let tally n outcome =
  let attempts = ref 0 and successes = ref 0 and evaluated = ref 0 in
  for i = 0 to n - 1 do
    let affected, activated = outcome i in
    if affected > 0 then begin
      incr evaluated;
      attempts := !attempts + affected;
      successes := !successes + activated
    end
  done;
  {
    attempts = !attempts;
    successes = !successes;
    edges_evaluated = !evaluated;
    per_edge = [];
  }

let evaluate_edges ?(spare_only = true) state ~edges =
  match Net_state.primaries_crossing_edges state ~edges with
  | [] -> (0, 0)
  | victims -> outcome (row ~spare_only state) ~edges victims

let evaluate_edge ?spare_only state ~edge =
  let affected, activated = evaluate_edges ?spare_only state ~edges:[ edge ] in
  { edge; affected; activated }

type node_outcome = {
  node : int;
  transit_affected : int;
  transit_activated : int;
  endpoint_lost : int;
}

let node_edges graph node =
  Array.fold_right
    (fun l acc -> Graph.edge_of_link l :: acc)
    (Graph.out_links graph node) []

(* A node's failure takes out its incident edges.  Connections that start
   or end at the node cannot be saved by any backup; only transit victims
   try theirs. *)
let evaluate_node ?(spare_only = true) state ~node =
  let edges = node_edges (Net_state.graph state) node in
  let endpoint, transit =
    List.partition
      (fun (c : Net_state.conn) -> c.src = node || c.dst = node)
      (Net_state.primaries_crossing_edges state ~edges)
  in
  let transit_affected, transit_activated =
    outcome (row ~spare_only state) ~edges transit
  in
  { node; transit_affected; transit_activated; endpoint_lost = List.length endpoint }

let evaluate_nodes ?(spare_only = true) state =
  let graph = Net_state.graph state in
  let by_node = transit_by_node state and r = row ~spare_only state in
  tally (Graph.node_count graph) (fun node ->
      outcome r ~edges:(node_edges graph node) by_node.(node))

type pair_outcome = { edges : int * int; affected : int; activated : int }

let evaluate_edge_pair ?spare_only state ~edges:(e1, e2) =
  let affected, activated = evaluate_edges ?spare_only state ~edges:[ e1; e2 ] in
  { edges = (e1, e2); affected; activated }

let evaluate_double ?(spare_only = true) ?(samples = 200) ?(seed = 1) state =
  let edge_count = Graph.edge_count (Net_state.graph state) in
  if edge_count < 2 then invalid_arg "Failure_eval.evaluate_double: need >= 2 edges";
  let rng = Dr_rng.Splitmix64.create seed in
  let by_edge = victims_by_edge state and r = row ~spare_only state in
  tally samples (fun _ ->
      let e1, e2 = Dr_rng.Dist.pick_distinct_pair rng edge_count in
      outcome r ~edges:[ e1; e2 ] (union by_edge.(e1) by_edge.(e2)))

let evaluate ?(spare_only = true) state =
  let graph = Net_state.graph state in
  let by_edge = victims_by_edge state and r = row ~spare_only state in
  let per_edge = ref [] in
  let totals =
    tally (Graph.edge_count graph) (fun edge ->
        let affected, activated = outcome r ~edges:[ edge ] by_edge.(edge) in
        if affected > 0 then per_edge := { edge; affected; activated } :: !per_edge;
        (affected, activated))
  in
  { totals with per_edge = List.rev !per_edge }

(* ---- correlated (SRLG) failures ---------------------------------------- *)

type group_outcome = { group : int; affected : int; activated : int }

let evaluate_group ?spare_only state ~group =
  let srlg = Net_state.srlg state in
  let edges = Dr_resilience.Srlg.edges_of_group srlg group in
  let affected, activated = evaluate_edges ?spare_only state ~edges in
  { group; affected; activated }

let evaluate_srlg ?(spare_only = true) state =
  let srlg = Net_state.srlg state in
  let by_edge = victims_by_edge state and r = row ~spare_only state in
  tally (Dr_resilience.Srlg.group_count srlg) (fun g ->
      let edges = Dr_resilience.Srlg.edges_of_group srlg g in
      outcome r ~edges
        (List.fold_left (fun acc e -> union acc by_edge.(e)) [] edges))
