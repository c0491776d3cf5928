(** CRC-32 (IEEE 802.3), table-driven — the checksum on every WAL and
    checkpoint record.  Values are non-negative and fit 32 bits, so they
    serialise as plain JSON integers. *)

val string : string -> int
(** Checksum of a whole string. *)

val sub : string -> pos:int -> len:int -> int
(** Checksum of the [len] bytes at [pos], without copying them
    ([sub s ~pos ~len = string (String.sub s pos len)]).  Raises
    [Invalid_argument] on a range outside [s]. *)

val update : int -> string -> int
(** Fold more bytes into a running checksum ([string s = update 0 s]). *)
