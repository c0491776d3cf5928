type t = { bits : Bytes.t; length : int }

let make_empty length =
  { bits = Bytes.make ((length + 7) / 8) '\000'; length }

let set_bit t j =
  let byte = j / 8 and bit = j mod 8 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))

let get t j =
  if j < 0 || j >= t.length then invalid_arg "Conflict_vector.get: out of range";
  let byte = j / 8 and bit = j mod 8 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

let of_aplv aplv ~link ~domains =
  if domains < 0 then invalid_arg "Conflict_vector.of_aplv: negative size";
  let t = make_empty domains in
  List.iter
    (fun j ->
      if j >= domains then invalid_arg "Conflict_vector.of_aplv: domain out of range";
      set_bit t j)
    (Aplv.support aplv ~link);
  t

let of_bits bits =
  let t = make_empty (Array.length bits) in
  Array.iteri (fun j b -> if b then set_bit t j) bits;
  t

let length t = t.length

let popcount t =
  let count = ref 0 in
  for j = 0 to t.length - 1 do
    if get t j then incr count
  done;
  !count

let conflict_count_with t ~edge_lset =
  List.fold_left (fun acc j -> if get t j then acc + 1 else acc) 0 edge_lset

let byte_size t = Bytes.length t.bits

let equal a b = a.length = b.length && Bytes.equal a.bits b.bits

let pp ppf t =
  for j = 0 to t.length - 1 do
    Format.pp_print_char ppf (if get t j then '1' else '0')
  done
