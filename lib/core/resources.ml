type t = { capacity : int array; prime : int array; spare : int array }

let create ~link_count ~capacity =
  if link_count <= 0 then invalid_arg "Resources.create: no links";
  if capacity <= 0 then invalid_arg "Resources.create: capacity must be positive";
  {
    capacity = Array.make link_count capacity;
    prime = Array.make link_count 0;
    spare = Array.make link_count 0;
  }

let create_heterogeneous capacities =
  if Array.length capacities = 0 then invalid_arg "Resources.create_heterogeneous";
  Array.iter
    (fun c -> if c <= 0 then invalid_arg "Resources.create_heterogeneous: capacity <= 0")
    capacities;
  {
    capacity = Array.copy capacities;
    prime = Array.make (Array.length capacities) 0;
    spare = Array.make (Array.length capacities) 0;
  }

let link_count t = Array.length t.capacity
let capacity t l = t.capacity.(l)
let prime_bw t l = t.prime.(l)
let spare_bw t l = t.spare.(l)
let free t l = t.capacity.(l) - t.prime.(l) - t.spare.(l)
let available_for_backup t l = t.capacity.(l) - t.prime.(l)

let available_for_backup_into t dst =
  let n = Array.length t.capacity in
  if Array.length dst < n then
    invalid_arg "Resources.available_for_backup_into: short destination";
  for l = 0 to n - 1 do
    dst.(l) <- t.capacity.(l) - t.prime.(l)
  done

let primary_feasible t ~link ~bw = free t link >= bw
let backup_feasible t ~link ~bw = available_for_backup t link >= bw

let reserve_primary t ~link ~bw =
  if bw <= 0 then invalid_arg "Resources.reserve_primary: bw must be positive";
  if free t link < bw then invalid_arg "Resources.reserve_primary: insufficient free bandwidth";
  t.prime.(link) <- t.prime.(link) + bw

let release_primary t ~link ~bw =
  if bw <= 0 then invalid_arg "Resources.release_primary: bw must be positive";
  if t.prime.(link) < bw then invalid_arg "Resources.release_primary: releasing more than reserved";
  t.prime.(link) <- t.prime.(link) - bw

let grow_spare t ~link ~want =
  if want < 0 then invalid_arg "Resources.grow_spare: negative request";
  let granted = min want (free t link) in
  t.spare.(link) <- t.spare.(link) + granted;
  granted

let shrink_spare t ~link ~amount =
  if amount < 0 then invalid_arg "Resources.shrink_spare: negative amount";
  if t.spare.(link) < amount then invalid_arg "Resources.shrink_spare: not enough spare";
  t.spare.(link) <- t.spare.(link) - amount

let spare_to_prime t ~link ~bw =
  if bw <= 0 then invalid_arg "Resources.spare_to_prime: bw must be positive";
  if t.spare.(link) < bw then invalid_arg "Resources.spare_to_prime: not enough spare";
  t.spare.(link) <- t.spare.(link) - bw;
  t.prime.(link) <- t.prime.(link) + bw

(* ---- serialization hooks ------------------------------------------------- *)

(* Checkpointing (dr_persist) needs the raw pools: copies out, blits in;
   {!Net_state}'s undo log puts one link's saved values back.  Neither
   setter re-checks the pool invariants — callers run [check_invariants]
   after a full state restore. *)

let pools t = (Array.copy t.prime, Array.copy t.spare)

let set_link t ~link ~prime ~spare =
  t.prime.(link) <- prime;
  t.spare.(link) <- spare

let set_pools t ~prime ~spare =
  let n = Array.length t.prime in
  if Array.length prime <> n || Array.length spare <> n then
    invalid_arg "Resources.set_pools: link count mismatch";
  Array.blit prime 0 t.prime 0 n;
  Array.blit spare 0 t.spare 0 n

let sum arr = Array.fold_left ( + ) 0 arr
let total_capacity t = sum t.capacity
let total_prime t = sum t.prime
let total_spare t = sum t.spare

let check_invariants t =
  let bad = ref None in
  Array.iteri
    (fun l c ->
      if !bad = None then begin
        if t.prime.(l) < 0 then bad := Some (Printf.sprintf "link %d: negative prime" l)
        else if t.spare.(l) < 0 then bad := Some (Printf.sprintf "link %d: negative spare" l)
        else if t.prime.(l) + t.spare.(l) > c then
          bad := Some (Printf.sprintf "link %d: over-committed (%d + %d > %d)" l t.prime.(l) t.spare.(l) c)
      end)
    t.capacity;
  match !bad with None -> Ok () | Some msg -> Error msg
