module Graph = Dr_topo.Graph
module Sm = Dr_rng.Splitmix64

type t = {
  edge_count : int;
  names : string array; (* per group *)
  members : int array array; (* per group: sorted member edges *)
  owners : int array array; (* per edge: sorted containing groups *)
  singleton : bool;
}

let edge_count t = t.edge_count
let group_count t = Array.length t.members
let is_singleton t = t.singleton

let group_name t g = t.names.(g)
let edges_of_group t g = Array.to_list t.members.(g)
let groups_of_edge_arr t e = t.owners.(e)
let groups_of_edge t e = Array.to_list t.owners.(e)

let groups_of_edges t edges =
  if t.singleton then edges
  else
    List.concat_map (fun e -> groups_of_edge t e) edges
    |> List.sort_uniq compare

let mean_group_size t =
  let groups = group_count t in
  if groups = 0 then 0.0
  else
    let total = Array.fold_left (fun acc m -> acc + Array.length m) 0 t.members in
    float_of_int total /. float_of_int groups

let singletons ~edge_count =
  if edge_count < 0 then invalid_arg "Srlg.singletons: negative edge count";
  {
    edge_count;
    names = Array.init edge_count (Printf.sprintf "edge-%d");
    members = Array.init edge_count (fun e -> [| e |]);
    owners = Array.init edge_count (fun e -> [| e |]);
    singleton = true;
  }

let create ~edge_count ~groups =
  if edge_count < 0 then invalid_arg "Srlg.create: negative edge count";
  let explicit =
    List.map
      (fun (name, edges) ->
        let edges = List.sort_uniq compare edges in
        if edges = [] then
          invalid_arg (Printf.sprintf "Srlg.create: group %S is empty" name);
        List.iter
          (fun e ->
            if e < 0 || e >= edge_count then
              invalid_arg
                (Printf.sprintf "Srlg.create: group %S: edge %d out of range"
                   name e))
          edges;
        (name, Array.of_list edges))
      groups
  in
  let covered = Array.make edge_count false in
  List.iter
    (fun (_, m) -> Array.iter (fun e -> covered.(e) <- true) m)
    explicit;
  let implicit = ref [] in
  for e = edge_count - 1 downto 0 do
    if not covered.(e) then
      implicit := (Printf.sprintf "edge-%d" e, [| e |]) :: !implicit
  done;
  let all = Array.of_list (explicit @ !implicit) in
  let names = Array.map fst all and members = Array.map snd all in
  let owner_lists = Array.make edge_count [] in
  (* Reverse group order so each edge's owner list comes out ascending. *)
  for g = Array.length members - 1 downto 0 do
    Array.iter (fun e -> owner_lists.(e) <- g :: owner_lists.(e)) members.(g)
  done;
  let owners = Array.map Array.of_list owner_lists in
  let singleton =
    Array.length members = edge_count
    && Array.for_all Fun.id (Array.mapi (fun g m -> m = [| g |]) members)
  in
  { edge_count; names; members; owners; singleton }

let pp ppf t =
  Format.fprintf ppf "@[<v>srlg: %d groups over %d edges (mean size %.2f)@,"
    (group_count t) t.edge_count (mean_group_size t);
  Array.iteri
    (fun g m ->
      Format.fprintf ppf "%3d %-12s {%s}@," g t.names.(g)
        (String.concat "," (List.map string_of_int (Array.to_list m))))
    t.members;
  Format.fprintf ppf "@]"

(* ---- generators ---------------------------------------------------------- *)

let random_partition ~seed ~edge_count ~mean_size =
  if edge_count < 0 then invalid_arg "Srlg.random_partition: negative edge count";
  if mean_size <= 1 then singletons ~edge_count
  else begin
    let rng = Sm.create seed in
    let perm = Array.init edge_count Fun.id in
    for i = edge_count - 1 downto 1 do
      let j = Sm.int rng (i + 1) in
      let tmp = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- tmp
    done;
    let groups = ref [] in
    let i = ref 0 and gi = ref 0 in
    while !i < edge_count do
      let size = 1 + Sm.int rng ((2 * mean_size) - 1) in
      let size = min size (edge_count - !i) in
      let members = Array.to_list (Array.sub perm !i size) in
      groups := (Printf.sprintf "srlg-%d" !gi, members) :: !groups;
      incr gi;
      i := !i + size
    done;
    create ~edge_count ~groups:(List.rev !groups)
  end

let random_overlay ~seed ~edge_count ~extra ~size =
  if size > edge_count then
    invalid_arg "Srlg.random_overlay: group size exceeds edge count";
  if size <= 0 then invalid_arg "Srlg.random_overlay: group size must be positive";
  let rng = Sm.create seed in
  let base = List.init edge_count (fun e -> (Printf.sprintf "edge-%d" e, [ e ])) in
  let overlay =
    List.init extra (fun i ->
        (* Partial Fisher–Yates: the first [size] slots of a fresh
           permutation are a uniform distinct sample. *)
        let perm = Array.init edge_count Fun.id in
        for j = 0 to size - 1 do
          let k = j + Sm.int rng (edge_count - j) in
          let tmp = perm.(j) in
          perm.(j) <- perm.(k);
          perm.(k) <- tmp
        done;
        (Printf.sprintf "overlay-%d" i, Array.to_list (Array.sub perm 0 size)))
  in
  create ~edge_count ~groups:(base @ overlay)

let edge_midpoint graph coords e =
  let u, v = Graph.edge_endpoints graph e in
  let ux, uy = coords.(u) and vx, vy = coords.(v) in
  ((ux +. vx) /. 2.0, (uy +. vy) /. 2.0)

let regional_grid ~graph ~cells =
  if cells <= 0 then invalid_arg "Srlg.regional_grid: cells must be positive";
  match Graph.coords graph with
  | None -> invalid_arg "Srlg.regional_grid: graph has no coordinates"
  | Some coords ->
      let edge_count = Graph.edge_count graph in
      let tile x = min (cells - 1) (max 0 (int_of_float (x *. float_of_int cells))) in
      let buckets = Hashtbl.create 16 in
      (* Edges visited in id order, so each bucket's member list is sorted. *)
      Graph.iter_edges graph (fun e ->
          let mx, my = edge_midpoint graph coords e in
          let key = (tile my, tile mx) in
          Hashtbl.replace buckets key
            (e :: Option.value ~default:[] (Hashtbl.find_opt buckets key)));
      let groups =
        Hashtbl.fold (fun k es acc -> (k, List.rev es) :: acc) buckets []
        |> List.sort compare
        |> List.map (fun ((row, col), es) ->
               (Printf.sprintf "cell-%d-%d" row col, es))
      in
      create ~edge_count ~groups

let merge_groups t a b =
  let groups = group_count t in
  if a = b then invalid_arg "Srlg.merge_groups: cannot merge a group with itself";
  if a < 0 || a >= groups || b < 0 || b >= groups then
    invalid_arg "Srlg.merge_groups: group id out of range";
  let merged =
    List.sort_uniq compare (edges_of_group t a @ edges_of_group t b)
  in
  let rebuilt = ref [] in
  for g = groups - 1 downto 0 do
    if g = a then rebuilt := (t.names.(a), merged) :: !rebuilt
    else if g <> b then rebuilt := (t.names.(g), edges_of_group t g) :: !rebuilt
  done;
  create ~edge_count:t.edge_count ~groups:!rebuilt

(* ---- correlated-failure schedules ---------------------------------------- *)

type burst = {
  fail_at : float;
  group : int option;
  edges : int list;
  repair_at : float;
}

(* Shared scheduler core, mirroring {!Dr_faults.Faults.flap_schedule}:
   Poisson arrivals; each arrival asks [pick] for a victim edge set among
   the currently-alive edges, and a burst's edges stay ineligible until its
   exponential repair completes.  [pick] sees the rng so every draw stays
   on the single seeded stream. *)
let schedule ~seed ~edge_count ~mtbf ~mttr ~after ~horizon ~pick =
  if mtbf <= 0.0 then invalid_arg "Srlg: mtbf must be positive";
  if mttr <= 0.0 then invalid_arg "Srlg: mttr must be positive";
  if edge_count <= 0 then []
  else begin
    let rng = Sm.create seed in
    let repair_at = Array.make edge_count neg_infinity in
    let alive e t = repair_at.(e) <= t in
    let events = ref [] in
    let t = ref (after +. Dr_rng.Dist.exponential rng ~rate:(1.0 /. mtbf)) in
    while !t < horizon do
      (match pick rng ~alive:(fun e -> alive e !t) with
      | None -> ()
      | Some (group, edges) ->
          let repair = !t +. Dr_rng.Dist.exponential rng ~rate:(1.0 /. mttr) in
          List.iter (fun e -> repair_at.(e) <- repair) edges;
          events := { fail_at = !t; group; edges; repair_at = repair } :: !events);
      t := !t +. Dr_rng.Dist.exponential rng ~rate:(1.0 /. mtbf)
    done;
    List.rev !events
  end

let group_schedule ~seed t ~mtbf ~mttr ?(after = 0.0) ~horizon () =
  let groups = group_count t in
  let pick rng ~alive =
    let eligible =
      List.filter
        (fun g -> Array.for_all alive t.members.(g))
        (List.init groups Fun.id)
    in
    match eligible with
    | [] -> None
    | _ ->
        let g = List.nth eligible (Sm.int rng (List.length eligible)) in
        Some (Some g, edges_of_group t g)
  in
  schedule ~seed ~edge_count:t.edge_count ~mtbf ~mttr ~after ~horizon ~pick

let regional_schedule ~seed ~graph ~radius ~mtbf ~mttr ?(after = 0.0) ~horizon () =
  if radius <= 0.0 then invalid_arg "Srlg.regional_schedule: radius must be positive";
  match Graph.coords graph with
  | None -> invalid_arg "Srlg.regional_schedule: graph has no coordinates"
  | Some coords ->
      let edge_count = Graph.edge_count graph in
      let midpoints =
        Array.init edge_count (fun e -> edge_midpoint graph coords e)
      in
      let pick rng ~alive =
        let cx = Sm.float rng 1.0 and cy = Sm.float rng 1.0 in
        let hit = ref [] in
        for e = edge_count - 1 downto 0 do
          let mx, my = midpoints.(e) in
          let dx = mx -. cx and dy = my -. cy in
          if alive e && (dx *. dx) +. (dy *. dy) <= radius *. radius then
            hit := e :: !hit
        done;
        match !hit with [] -> None | edges -> Some (None, edges)
      in
      schedule ~seed ~edge_count ~mtbf ~mttr ~after ~horizon ~pick

let merge_schedules ~edge_count a b =
  (* Stable merge by fail time ([a] wins ties), then a linear pass that
     drops bursts colliding with an edge still down from a kept burst. *)
  let rec merge xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs', y :: ys' ->
        if x.fail_at <= y.fail_at then x :: merge xs' ys
        else y :: merge xs ys'
  in
  let repair_at = Array.make (max 1 edge_count) neg_infinity in
  List.filter
    (fun burst ->
      let ok =
        List.for_all
          (fun e ->
            if e < 0 || e >= edge_count then
              invalid_arg "Srlg.merge_schedules: edge out of range";
            repair_at.(e) <= burst.fail_at)
          burst.edges
      in
      if ok then
        List.iter (fun e -> repair_at.(e) <- burst.repair_at) burst.edges;
      ok)
    (merge a b)
