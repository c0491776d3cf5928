module Pqueue = Dr_pqueue.Pqueue

(* Yen's classic algorithm: the best path comes from Dijkstra; each further
   path is the cheapest "spur" deviation from an already-accepted path.
   The core is a lazy iterator — deviation candidates of the latest
   accepted path are generated only when the next path is demanded — and
   [k_shortest] just pulls it k times, so both produce the same sequence. *)

let path_cost cost p = List.fold_left (fun acc l -> acc +. cost l) 0.0 (Path.links p)

let prefix_links links i =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | l :: rest -> l :: take (n - 1) rest
  in
  take i links

type iterator = {
  graph : Graph.t;
  cost : int -> float;
  dst : int;
  mutable accepted : (float * Path.t) list; (* reverse acceptance order *)
  candidates : Path.t Pqueue.t;
  seen : (int list, unit) Hashtbl.t;
  mutable emitted : int;
  mutable exhausted : bool;
}

let iterator g ~cost ~src ~dst =
  let candidates = Pqueue.create () in
  let seen = Hashtbl.create 64 in
  let row = Array.init (Graph.link_count g) cost in
  match Shortest_path.dijkstra_path g ~cost:row ~src ~dst with
  | None ->
      {
        graph = g;
        cost;
        dst;
        accepted = [];
        candidates;
        seen;
        emitted = 0;
        exhausted = true;
      }
  | Some (c0, p0) ->
      Hashtbl.add seen (Path.links p0) ();
      {
        graph = g;
        cost;
        dst;
        accepted = [ (c0, p0) ];
        candidates;
        seen;
        emitted = 0;
        exhausted = false;
      }

(* Generate the spur deviations of the most recently accepted path into the
   candidate pool (duplicate-suppressed by link-list identity). *)
let expand_head it =
  let g = it.graph and cost = it.cost and dst = it.dst in
  let add_candidate c p =
    if not (Hashtbl.mem it.seen (Path.links p)) then begin
      Hashtbl.add it.seen (Path.links p) ();
      Pqueue.add it.candidates ~key:c p
    end
  in
  let _, last = List.hd it.accepted in
  let last_links = Path.links last in
  let last_nodes = Path.nodes g last in
  let hops = List.length last_links in
  for i = 0 to hops - 1 do
    let root = prefix_links last_links i in
    let spur_node = List.nth last_nodes i in
    (* Links banned at the spur node: the next link of every accepted path
       sharing this root. *)
    let banned_links = Hashtbl.create 8 in
    List.iter
      (fun (_, p) ->
        let links = Path.links p in
        if List.length links > i && prefix_links links i = root then
          Hashtbl.replace banned_links (List.nth links i) ())
      it.accepted;
    (* Nodes of the root prefix (except the spur node) are banned to keep
       paths loopless. *)
    let banned_nodes = Hashtbl.create 8 in
    List.iteri
      (fun j v -> if j < i then Hashtbl.replace banned_nodes v ())
      last_nodes;
    let spur_cost l =
      if Hashtbl.mem banned_links l then infinity
      else if Hashtbl.mem banned_nodes (Graph.link_src g l) then infinity
      else if Hashtbl.mem banned_nodes (Graph.link_dst g l) then infinity
      else cost l
    in
    if spur_node <> dst then
      let row = Array.init (Graph.link_count g) spur_cost in
      match Shortest_path.dijkstra_path g ~cost:row ~src:spur_node ~dst with
      | None -> ()
      | Some (_, spur) ->
          let total_links = root @ Path.links spur in
          let p = Path.of_links g total_links in
          if Path.is_simple g p then add_candidate (path_cost cost p) p
  done

let next it =
  if it.exhausted then None
  else if it.emitted = 0 then begin
    it.emitted <- 1;
    (* The Dijkstra-optimal path, already accepted at creation. *)
    Some (List.hd it.accepted)
  end
  else begin
    expand_head it;
    match Pqueue.pop it.candidates with
    | None ->
        it.exhausted <- true;
        None
    | Some (c, p) ->
        it.accepted <- (c, p) :: it.accepted;
        it.emitted <- it.emitted + 1;
        Some (c, p)
  end

let k_shortest g ~cost ~src ~dst ~k =
  if k <= 0 then []
  else begin
    let it = iterator g ~cost ~src ~dst in
    let rec pull n acc =
      if n = 0 then List.rev acc
      else match next it with None -> List.rev acc | Some r -> pull (n - 1) (r :: acc)
    in
    pull k []
  end
