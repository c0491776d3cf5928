module Link_set = Set.Make (Int)

type t = { src : int; dst : int; links : int list }

let of_links g links =
  match links with
  | [] -> invalid_arg "Path.of_links: empty path"
  | first :: _ ->
      let rec check prev_dst = function
        | [] -> prev_dst
        | l :: rest ->
            if Graph.link_src g l <> prev_dst then
              invalid_arg "Path.of_links: links are not contiguous";
            check (Graph.link_dst g l) rest
      in
      let src = Graph.link_src g first in
      let dst = check src links in
      { src; dst; links }

let of_nodes g nodes =
  match nodes with
  | [] | [ _ ] -> invalid_arg "Path.of_nodes: need at least two nodes"
  | first :: rest ->
      let rec build prev acc = function
        | [] -> List.rev acc
        | v :: tail -> (
            match Graph.find_link g ~src:prev ~dst:v with
            | None -> invalid_arg "Path.of_nodes: consecutive nodes not adjacent"
            | Some l -> build v (l :: acc) tail)
      in
      of_links g (build first [] rest)

let src p = p.src
let dst p = p.dst
let links p = p.links
let hops p = List.length p.links

let nodes g p = p.src :: List.map (fun l -> Graph.link_dst g l) p.links

let lset p = Link_set.of_list p.links

let edge_set p = Link_set.of_list (List.map Graph.edge_of_link p.links)

let contains_link p l = List.mem l p.links

let crosses_edge p e = List.exists (fun l -> Graph.edge_of_link l = e) p.links

let rec mem_edge (e : int) = function [] -> false | x :: rest -> x = e || mem_edge e rest

let rec links_cross edges = function
  | [] -> false
  | l :: rest -> mem_edge (Graph.edge_of_link l) edges || links_cross edges rest

let crosses_any_edge p edges = links_cross edges p.links

let link_overlap a b = Link_set.cardinal (Link_set.inter (lset a) (lset b))

let edge_overlap a b =
  Link_set.cardinal (Link_set.inter (edge_set a) (edge_set b))

let is_simple g p =
  let ns = nodes g p in
  let seen = Hashtbl.create 16 in
  List.for_all
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    ns

let pp ppf p =
  Format.fprintf ppf "%d->%d via [%a]" p.src p.dst
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       Format.pp_print_int)
    p.links
