(* The byte grammar that WAL records and checkpoints share, as a buffer
   writer and a cursor reader that invert each other.

   A line is one JSON object in a fixed field order with no whitespace,
   ending in [,"crc":N}], where N is the CRC-32 of every byte before
   [,"crc":].  Each value has one canonical spelling: an int in decimal
   ([-] only on negatives, no leading zero, no [-0]); a float as its
   IEEE-754 bits in lower-case hex without leading zeros (what [%Lx]
   prints); a string JSON-escaped exactly as [add_string] writes it; a 0/1
   flag as one digit.  The reader accepts only those spellings and raises
   only [Malformed], which [parse] turns into [Error] — so a schema built
   from matching [add_*] and reader calls reads back exactly the lines it
   writes. *)

(* ---- writer --------------------------------------------------------------- *)

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer n = { buf = Bytes.create (max n 16); len = 0 }

let reserve w n =
  if w.len + n > Bytes.length w.buf then begin
    let cap = ref (2 * Bytes.length w.buf) in
    while !cap < w.len + n do
      cap := 2 * !cap
    done;
    let b = Bytes.create !cap in
    Bytes.blit w.buf 0 b 0 w.len;
    w.buf <- b
  end

let add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let add_lit w s =
  let n = String.length s in
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

(* Digits of [n <= 0], most significant first: working on the negative
   side keeps [min_int] in range. *)
let rec add_neg_digits w n =
  if n <= -10 then add_neg_digits w (n / 10);
  add_char w (Char.unsafe_chr (48 - (n mod 10)))

let add_int w n =
  if n < 0 then begin
    add_char w '-';
    add_neg_digits w n
  end
  else add_neg_digits w (-n)

let hex_digits = "0123456789abcdef"
let nibble x i = Int64.to_int (Int64.shift_right_logical x (4 * i)) land 15

let add_bits w f =
  let x = Int64.bits_of_float f in
  let top = ref 15 in
  while !top > 0 && nibble x !top = 0 do
    decr top
  done;
  for i = !top downto 0 do
    add_char w (String.unsafe_get hex_digits (nibble x i))
  done

let add_string w s =
  add_char w '"';
  String.iter
    (function
      | '"' -> add_lit w "\\\""
      | '\\' -> add_lit w "\\\\"
      | '\n' -> add_lit w "\\n"
      | '\r' -> add_lit w "\\r"
      | '\t' -> add_lit w "\\t"
      | ch when ch < ' ' ->
          add_lit w "\\u00";
          add_char w hex_digits.[Char.code ch lsr 4];
          add_char w hex_digits.[Char.code ch land 15]
      | ch -> add_char w ch)
    s;
  add_char w '"'

let add_bit w b = add_char w (if b then '1' else '0')

let add_list w f xs =
  add_char w '[';
  List.iteri
    (fun i x ->
      if i > 0 then add_char w ',';
      f w x)
    xs;
  add_char w ']'

let add_array w f a =
  add_char w '[';
  Array.iteri
    (fun i x ->
      if i > 0 then add_char w ',';
      f w x)
    a;
  add_char w ']'

let add_ints w xs = add_list w add_int xs

let add_key w name =
  add_lit w ",\"";
  add_lit w name;
  add_lit w "\":"

let add_int_field w name v =
  add_key w name;
  add_int w v

let add_bits_field w name f =
  add_key w name;
  add_char w '"';
  add_bits w f;
  add_char w '"'

let add_string_field w name s =
  add_key w name;
  add_string w s

let crc_marker = ",\"crc\":"

let seal w =
  let crc = Crc32.sub (Bytes.unsafe_to_string w.buf) ~pos:0 ~len:w.len in
  add_lit w crc_marker;
  add_int w crc;
  add_char w '}'

let length w = w.len
let contents w = Bytes.sub_string w.buf 0 w.len
let output oc w = Stdlib.output oc w.buf 0 w.len

(* ---- reader --------------------------------------------------------------- *)

type cursor = { s : string; mutable pos : int; lim : int }

exception Malformed of string * int

let fail c msg = raise_notrace (Malformed (msg, c.pos))
let at c ch = c.pos < c.lim && String.unsafe_get c.s c.pos = ch

let char c ch =
  if at c ch then c.pos <- c.pos + 1 else fail c (Printf.sprintf "expected %C" ch)

let lit c l =
  let n = String.length l in
  if c.pos + n > c.lim then fail c (Printf.sprintf "expected %S" l);
  for i = 0 to n - 1 do
    if String.unsafe_get c.s (c.pos + i) <> String.unsafe_get l i then
      fail c (Printf.sprintf "expected %S" l)
  done;
  c.pos <- c.pos + n

let is_digit ch = ch >= '0' && ch <= '9'

let int c =
  let s = c.s in
  let neg = at c '-' in
  let p0 = if neg then c.pos + 1 else c.pos in
  if p0 >= c.lim || not (is_digit (String.unsafe_get s p0)) then
    fail c "expected integer";
  if String.unsafe_get s p0 = '0' then begin
    if neg then fail c "negative zero";
    if p0 + 1 < c.lim && is_digit (String.unsafe_get s (p0 + 1)) then
      fail c "leading zero";
    c.pos <- p0 + 1;
    0
  end
  else begin
    (* Accumulate on the negative side, which also holds min_int. *)
    let acc = ref 0 and p = ref p0 in
    while !p < c.lim && is_digit (String.unsafe_get s !p) do
      let d = Char.code (String.unsafe_get s !p) - 48 in
      if !acc < (min_int + d) / 10 then fail c "integer overflow";
      acc := (!acc * 10) - d;
      incr p
    done;
    if (not neg) && !acc = min_int then fail c "integer overflow";
    c.pos <- !p;
    if neg then !acc else - !acc
  end

let hex_value ch =
  match ch with
  | '0' .. '9' -> Char.code ch - 48
  | 'a' .. 'f' -> Char.code ch - 87
  | _ -> -1

let bits c =
  let s = c.s and p0 = c.pos in
  let p = ref p0 in
  while !p < c.lim && hex_value (String.unsafe_get s !p) >= 0 do
    incr p
  done;
  let n = !p - p0 in
  if n = 0 || n > 16 || (n > 1 && String.unsafe_get s p0 = '0') then
    fail c "expected float bits";
  (* Two 32-bit halves in native ints, so no Int64 is boxed per digit. *)
  let value a b =
    let v = ref 0 in
    for i = a to b - 1 do
      v := (!v lsl 4) lor hex_value (String.unsafe_get s i)
    done;
    !v
  in
  let split = max p0 (!p - 8) in
  let x =
    Int64.logor
      (Int64.shift_left (Int64.of_int (value p0 split)) 32)
      (Int64.of_int (value split !p))
  in
  c.pos <- !p;
  Int64.float_of_bits x

(* After a backslash: the escapes [add_string] writes, and only those. *)
let escape c b =
  let s = c.s and p = c.pos + 1 in
  if p >= c.lim then fail c "unterminated escape";
  match String.unsafe_get s p with
  | '"' -> Buffer.add_char b '"'; c.pos <- p + 1
  | '\\' -> Buffer.add_char b '\\'; c.pos <- p + 1
  | 'n' -> Buffer.add_char b '\n'; c.pos <- p + 1
  | 'r' -> Buffer.add_char b '\r'; c.pos <- p + 1
  | 't' -> Buffer.add_char b '\t'; c.pos <- p + 1
  | 'u' ->
      if
        p + 4 >= c.lim
        || String.unsafe_get s (p + 1) <> '0'
        || String.unsafe_get s (p + 2) <> '0'
      then fail c "bad \\u escape";
      let hi = hex_value (String.unsafe_get s (p + 3))
      and lo = hex_value (String.unsafe_get s (p + 4)) in
      let code = (hi lsl 4) lor lo in
      if hi < 0 || hi > 1 || lo < 0 || code = 0x09 || code = 0x0a || code = 0x0d
      then fail c "bad \\u escape";
      Buffer.add_char b (Char.chr code);
      c.pos <- p + 5
  | _ -> fail c "bad escape"

let string c =
  char c '"';
  let s = c.s and start = c.pos in
  let p = ref start in
  while
    !p < c.lim
    &&
    let ch = String.unsafe_get s !p in
    ch <> '"' && ch <> '\\' && ch >= ' '
  do
    incr p
  done;
  if !p < c.lim && String.unsafe_get s !p = '"' then begin
    c.pos <- !p + 1;
    String.sub s start (!p - start)
  end
  else begin
    let b = Buffer.create (!p - start + 16) in
    Buffer.add_substring b s start (!p - start);
    c.pos <- !p;
    let rec go () =
      if c.pos >= c.lim then fail c "unterminated string";
      match String.unsafe_get s c.pos with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
          escape c b;
          go ()
      | ch when ch < ' ' -> fail c "control character in string"
      | ch ->
          Buffer.add_char b ch;
          c.pos <- c.pos + 1;
          go ()
    in
    go ();
    Buffer.contents b
  end

let bit c =
  if at c '0' then begin
    c.pos <- c.pos + 1;
    false
  end
  else if at c '1' then begin
    c.pos <- c.pos + 1;
    true
  end
  else fail c "expected 0 or 1"

let[@tail_mod_cons] rec items c f =
  let x = f c in
  if at c ',' then begin
    c.pos <- c.pos + 1;
    x :: items c f
  end
  else [ x ]

let list c f =
  char c '[';
  if at c ']' then begin
    c.pos <- c.pos + 1;
    []
  end
  else begin
    let xs = items c f in
    char c ']';
    xs
  end

let array c f = Array.of_list (list c f)
let ints c = list c int

let key c name =
  lit c ",\"";
  lit c name;
  lit c "\":"

let int_field c name =
  key c name;
  int c

let bits_field c name =
  key c name;
  char c '"';
  let f = bits c in
  char c '"';
  f

let string_field c name =
  key c name;
  string c

let parse s ~pos ~len f =
  let close = pos + len - 1 in
  (* The trailer [,"crc":N}]: N's digits run back from the closing brace,
     so [int] below reads all of them or fails. *)
  let d = ref close in
  while !d > pos && is_digit s.[!d - 1] do
    decr d
  done;
  let m = !d - String.length crc_marker in
  if
    len < 1
    || s.[close] <> '}'
    || !d = close
    || m < pos
    || String.sub s m (String.length crc_marker) <> crc_marker
  then Error "no crc field"
  else
    let tc = { s; pos = !d; lim = close } in
    match int tc with
    | exception Malformed (msg, _) -> Error ("crc field: " ^ msg)
    | crc when crc <> Crc32.sub s ~pos ~len:(m - pos) -> Error "crc mismatch"
    | _ -> (
        let c = { s; pos; lim = m } in
        match
          let v = f c in
          if c.pos <> m then fail c "unexpected bytes";
          v
        with
        | v -> Ok v
        | exception Malformed (msg, at) ->
            Error (Printf.sprintf "%s at offset %d" msg (at - pos)))
