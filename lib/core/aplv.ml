type t = {
  counts : (int, int) Hashtbl.t;
  mutable norm1 : int;
  mutable backups : int;
}

let create () = { counts = Hashtbl.create 16; norm1 = 0; backups = 0 }

let get t j = Option.value ~default:0 (Hashtbl.find_opt t.counts j)

let check_no_duplicates edge_lset =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun j ->
      if Hashtbl.mem seen j then invalid_arg "Aplv: duplicate edge in LSET";
      Hashtbl.add seen j ())
    edge_lset

let register t ~edge_lset =
  check_no_duplicates edge_lset;
  List.iter
    (fun j ->
      Hashtbl.replace t.counts j (get t j + 1);
      t.norm1 <- t.norm1 + 1)
    edge_lset;
  t.backups <- t.backups + 1

let unregister t ~edge_lset =
  check_no_duplicates edge_lset;
  List.iter
    (fun j ->
      let c = get t j in
      if c <= 0 then invalid_arg "Aplv.unregister: count underflow";
      if c = 1 then Hashtbl.remove t.counts j else Hashtbl.replace t.counts j (c - 1);
      t.norm1 <- t.norm1 - 1)
    edge_lset;
  if t.backups <= 0 then invalid_arg "Aplv.unregister: no backup registered";
  t.backups <- t.backups - 1

let clear t =
  Hashtbl.reset t.counts;
  t.norm1 <- 0;
  t.backups <- 0

let norm1 t = t.norm1

let max_element t = Hashtbl.fold (fun _ c acc -> max c acc) t.counts 0

let backup_count t = t.backups

let support t =
  Hashtbl.fold (fun j c acc -> if c > 0 then j :: acc else acc) t.counts []
  |> List.sort compare

let conflict_count_with t ~edge_lset =
  List.fold_left (fun acc j -> if get t j > 0 then acc + 1 else acc) 0 edge_lset

let overlap_weight_with t ~edge_lset =
  List.fold_left (fun acc j -> acc + get t j) 0 edge_lset

let pp ppf t =
  let entries =
    Hashtbl.fold (fun j c acc -> (j, c) :: acc) t.counts [] |> List.sort compare
  in
  Format.fprintf ppf "@[<h>{";
  List.iteri
    (fun i (j, c) ->
      if i > 0 then Format.pp_print_string ppf "; ";
      Format.fprintf ppf "%d:%d" j c)
    entries;
  Format.fprintf ppf "} |.|=%d max=%d backups=%d@]" t.norm1 (max_element t) t.backups

(* ---- per-SRLG aggregation ------------------------------------------------ *)

(* The SRLG generalisation views a group of edges as one failure domain.
   These aggregations take the edge->groups mapping as a function so the
   module stays independent of the model's representation. *)

let group_support t ~groups_of_edge =
  support t |> List.concat_map groups_of_edge |> List.sort_uniq compare

let group_conflict_count_with t ~groups ~edges_of_group =
  List.fold_left
    (fun acc g ->
      if List.exists (fun j -> get t j > 0) (edges_of_group g) then acc + 1
      else acc)
    0 groups

let group_max_weight t ~groups ~edges_of_group =
  List.fold_left
    (fun acc g ->
      max acc
        (List.fold_left (fun s j -> s + get t j) 0 (edges_of_group g)))
    0 groups
