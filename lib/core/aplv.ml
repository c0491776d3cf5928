type t = {
  links : int;
  edges : int;
  counts : int array; (* a_{l,j} at j * links + l: edge-major *)
  norm1 : int array; (* per link: Σ_j a_{l,j} *)
  backups : int array; (* per link: registered backups *)
}

let create ~links ~edges =
  if links < 0 || edges < 0 then invalid_arg "Aplv.create: negative size";
  {
    links;
    edges;
    counts = Array.make (links * edges) 0;
    norm1 = Array.make links 0;
    backups = Array.make links 0;
  }

let check_link t link =
  if link < 0 || link >= t.links then invalid_arg "Aplv: link out of range"

let get t ~link j =
  check_link t link;
  if j < 0 || j >= t.edges then invalid_arg "Aplv.get: edge out of range";
  t.counts.((j * t.links) + link)

let rec mem_int (j : int) = function [] -> false | x :: rest -> x = j || mem_int j rest

(* Reject a bad LSET before touching the matrix, so a raising call changes
   nothing.  LSETs are a path's edges — a handful — so the quadratic
   duplicate scan is cheaper than any auxiliary table. *)
let rec validate t ~link ~underflow = function
  | [] -> ()
  | j :: rest ->
      if j < 0 || j >= t.edges then invalid_arg "Aplv: edge out of range";
      if mem_int j rest then invalid_arg "Aplv: duplicate edge in LSET";
      if underflow && t.counts.((j * t.links) + link) = 0 then
        invalid_arg "Aplv.unregister: count underflow";
      validate t ~link ~underflow rest

let rec add t ~link d = function
  | [] -> 0
  | j :: rest ->
      let i = (j * t.links) + link in
      t.counts.(i) <- t.counts.(i) + d;
      1 + add t ~link d rest

let register t ~link ~edge_lset =
  check_link t link;
  validate t ~link ~underflow:false edge_lset;
  t.norm1.(link) <- t.norm1.(link) + add t ~link 1 edge_lset;
  t.backups.(link) <- t.backups.(link) + 1

let unregister t ~link ~edge_lset =
  check_link t link;
  validate t ~link ~underflow:true edge_lset;
  if t.backups.(link) <= 0 then invalid_arg "Aplv.unregister: no backup registered";
  t.norm1.(link) <- t.norm1.(link) - add t ~link (-1) edge_lset;
  t.backups.(link) <- t.backups.(link) - 1

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Array.fill t.norm1 0 t.links 0;
  Array.fill t.backups 0 t.links 0

let norm1 t ~link = t.norm1.(link)

let backup_count t ~link = t.backups.(link)

let max_element t ~link =
  check_link t link;
  let m = ref 0 in
  for j = 0 to t.edges - 1 do
    m := max !m t.counts.((j * t.links) + link)
  done;
  !m

let support t ~link =
  check_link t link;
  let acc = ref [] in
  for j = t.edges - 1 downto 0 do
    if t.counts.((j * t.links) + link) > 0 then acc := j :: !acc
  done;
  !acc

let conflict_count_with t ~link ~edge_lset =
  List.fold_left (fun acc j -> if get t ~link j > 0 then acc + 1 else acc) 0 edge_lset

(* [into.(l) += (a_{l,j} > 0)] over column [j], for every edge of the
   query.  The ranges are checked once up front, so the inner loop is a
   plain sequential scan with no bounds tests and no branch. *)
let conflict_counts t ~edges ~n ~into =
  let links = t.links and counts = t.counts in
  if Array.length into < links then invalid_arg "Aplv.conflict_counts: short output";
  if n < 0 || n > Array.length edges then invalid_arg "Aplv.conflict_counts: bad n";
  for k = 0 to n - 1 do
    let j = edges.(k) in
    if j < 0 || j >= t.edges then invalid_arg "Aplv.conflict_counts: edge out of range"
  done;
  Array.fill into 0 links 0;
  for k = 0 to n - 1 do
    let base = Array.unsafe_get edges k * links in
    for l = 0 to links - 1 do
      Array.unsafe_set into l
        (Array.unsafe_get into l
        + Bool.to_int (Array.unsafe_get counts (base + l) > 0))
    done
  done

let overlap_weight_with t ~link ~edge_lset =
  List.fold_left (fun acc j -> acc + get t ~link j) 0 edge_lset

let blit_norms t dst = Array.blit t.norm1 0 dst 0 t.links

let blit_column t ~edge dst =
  if edge < 0 || edge >= t.edges then invalid_arg "Aplv.blit_column: edge out of range";
  Array.blit t.counts (edge * t.links) dst 0 t.links

let pp ~link ppf t =
  Format.fprintf ppf "@[<h>{";
  List.iteri
    (fun i j ->
      if i > 0 then Format.pp_print_string ppf "; ";
      Format.fprintf ppf "%d:%d" j (get t ~link j))
    (support t ~link);
  Format.fprintf ppf "} |.|=%d max=%d backups=%d@]" (norm1 t ~link)
    (max_element t ~link) (backup_count t ~link)
