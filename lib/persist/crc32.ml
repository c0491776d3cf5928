(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
   The repo carries no checksum dependency; WAL and checkpoint records
   carry one of these over their serialised prefix so a torn or corrupted
   line is detected at recovery time instead of silently replayed. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let mask32 = 0xFFFFFFFF

let update_sub crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update_sub";
  let crc = ref (crc lxor mask32) in
  for i = pos to pos + len - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc lxor mask32

let update crc s = update_sub crc s ~pos:0 ~len:(String.length s)
let string s = update 0 s
let sub s ~pos ~len = update_sub 0 s ~pos ~len
