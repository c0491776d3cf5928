type t = {
  counts : int array; (* a_{i,j}, indexed by failure edge j *)
  mutable norm1 : int;
  mutable backups : int;
}

let create ~domains =
  if domains < 0 then invalid_arg "Aplv.create: negative size";
  { counts = Array.make domains 0; norm1 = 0; backups = 0 }

let get t j = t.counts.(j)

let rec mem_int (j : int) = function [] -> false | x :: rest -> x = j || mem_int j rest

(* Reject a bad LSET before touching the row, so a raising call changes
   nothing.  LSETs are a path's edges — a handful — so the quadratic
   duplicate scan is cheaper than any auxiliary table. *)
let rec validate t ~underflow = function
  | [] -> ()
  | j :: rest ->
      if j < 0 || j >= Array.length t.counts then invalid_arg "Aplv: edge out of range";
      if mem_int j rest then invalid_arg "Aplv: duplicate edge in LSET";
      if underflow && t.counts.(j) = 0 then invalid_arg "Aplv.unregister: count underflow";
      validate t ~underflow rest

let rec add counts d = function
  | [] -> 0
  | j :: rest ->
      counts.(j) <- counts.(j) + d;
      1 + add counts d rest

let register t ~edge_lset =
  validate t ~underflow:false edge_lset;
  t.norm1 <- t.norm1 + add t.counts 1 edge_lset;
  t.backups <- t.backups + 1

let unregister t ~edge_lset =
  validate t ~underflow:true edge_lset;
  if t.backups <= 0 then invalid_arg "Aplv.unregister: no backup registered";
  t.norm1 <- t.norm1 - add t.counts (-1) edge_lset;
  t.backups <- t.backups - 1

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.norm1 <- 0;
  t.backups <- 0

let norm1 t = t.norm1

let max_element t = Array.fold_left max 0 t.counts

let backup_count t = t.backups

let support t =
  let acc = ref [] in
  for j = Array.length t.counts - 1 downto 0 do
    if t.counts.(j) > 0 then acc := j :: !acc
  done;
  !acc

let conflict_count_with t ~edge_lset =
  List.fold_left (fun acc j -> if t.counts.(j) > 0 then acc + 1 else acc) 0 edge_lset

let conflict_count_arr t ~edges ~n =
  let acc = ref 0 in
  for k = 0 to n - 1 do
    if t.counts.(Array.unsafe_get edges k) > 0 then incr acc
  done;
  !acc

let overlap_weight_with t ~edge_lset =
  List.fold_left (fun acc j -> acc + t.counts.(j)) 0 edge_lset

let pp ppf t =
  Format.fprintf ppf "@[<h>{";
  List.iteri
    (fun i j ->
      if i > 0 then Format.pp_print_string ppf "; ";
      Format.fprintf ppf "%d:%d" j t.counts.(j))
    (support t);
  Format.fprintf ppf "} |.|=%d max=%d backups=%d@]" t.norm1 (max_element t) t.backups
