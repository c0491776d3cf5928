(** The byte grammar shared by {!Wal} records and {!Checkpoint} lines: a
    buffer writer and a cursor reader that invert each other.

    A line is one JSON object with its fields in a fixed order and no
    whitespace, ending in [,"crc":N}] where [N] is {!Crc32.sub} of every
    byte before [,"crc":].  Every value has one canonical spelling:
    - int: decimal over the full OCaml range, [-] only on negatives, no
      leading zero, no [-0];
    - float: the IEEE-754 bits in lower-case hex without leading zeros
      ([Printf "%Lx"] of [Int64.bits_of_float]), inside a JSON string;
    - string: a JSON string in which the quote, the backslash, newline,
      carriage return and tab take their two-byte escapes, every other
      byte below 0x20 a lower-case [\u00XX] escape, and every other byte
      is raw;
    - flag: [0] or [1];
    - list: [\[], elements separated by [,], [\]].

    The reader accepts only those spellings, so a schema written as
    matching [add_*] and reader calls satisfies
    [decode line = Ok v ⇒ encode v = line]. *)

(** {1 Writer} *)

type writer

val writer : int -> writer
(** An empty writer with room for about that many bytes; it grows. *)

val add_char : writer -> char -> unit
val add_lit : writer -> string -> unit
(** Raw bytes, not escaped. *)

val add_int : writer -> int -> unit
val add_bit : writer -> bool -> unit
val add_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val add_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val add_ints : writer -> int list -> unit

val add_key : writer -> string -> unit
(** [,"name":] — every field but an object's first. *)

val add_int_field : writer -> string -> int -> unit
val add_bits_field : writer -> string -> float -> unit
(** [,"name":"<bits>"]. *)

val add_string_field : writer -> string -> string -> unit

val seal : writer -> unit
(** Close the line: append [,"crc":N}] over everything written so far. *)

val length : writer -> int
val contents : writer -> string
val output : out_channel -> writer -> unit
(** Write the bytes to a channel without copying them into a string. *)

(** {1 Reader} *)

type cursor
(** A position inside one line's CRC-covered prefix. *)

val fail : cursor -> string -> 'a
(** Reject the line at the cursor's offset (inside {!parse}). *)

val char : cursor -> char -> unit
val lit : cursor -> string -> unit
val int : cursor -> int
val bit : cursor -> bool
val list : cursor -> (cursor -> 'a) -> 'a list
val array : cursor -> (cursor -> 'a) -> 'a array
val ints : cursor -> int list

val key : cursor -> string -> unit
(** Expect [,"name":]. *)

val int_field : cursor -> string -> int
val bits_field : cursor -> string -> float
val string_field : cursor -> string -> string

val parse :
  string -> pos:int -> len:int -> (cursor -> 'a) -> ('a, string) result
(** [parse s ~pos ~len read] checks that the [len] bytes at [pos] end in a
    canonical [,"crc":N}] trailer whose [N] matches the bytes before it,
    then runs [read] on a cursor over those bytes and requires it to
    consume all of them.  Whatever the bytes in the range, it does not
    raise: a malformed line is [Error] with the offset of the first byte
    that broke the grammar. *)
