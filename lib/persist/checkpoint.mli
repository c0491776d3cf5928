(** Checkpoint files: a full {!Drtp.Manager.Serial.repr} as one
    CRC-guarded JSON line, written atomically (tmp + rename) so a crash
    mid-checkpoint can never destroy the previous checkpoint.

    A checkpoint records [ck_wal_seq], the WAL sequence number it covers:
    recovery restores the checkpoint and replays only WAL records with a
    larger sequence number.  Times serialise as exact IEEE-754 bits, so
    restore → dump round-trips bit-exactly.

    {b Grammar.}  Values as {!Codec} spells them (I an int, F float bits,
    S a string, B a 0/1 flag), fields in this order and nothing else:
    {v
    {"v":1,"wal_seq":I,"t":"F","prime":[I,...],"spare":[I,...],
     "failed":[B,...],"aplv_updates":I,
     "conns":[{"id":I,"src":I,"dst":I,"bw":I,"deg":B,"p":[I,...],
               "b":[[I,...],...]},...],
     "stats":[I,I,I,I,I,I,I],"rstats":[I,I,I,I],"ut":"F",
     "reprotect":[{"id":I,"scheme":"S","count":I,"since":"F",
                   "trace":I,"span":I},...],"crc":I}
    v}
    on one line, without the line breaks shown here.  {!decode} accepts
    exactly what {!encode} writes: [decode line = Ok c] implies
    [encode c = line]. *)

type t = {
  ck_wal_seq : int;  (** last WAL sequence number folded into this state *)
  ck_time : float;  (** simulation time at capture *)
  ck_repr : Drtp.Manager.Serial.repr;
}

val encode : t -> string
(** One JSON line, no trailing newline, CRC included. *)

val decode : string -> (t, string) result
(** Parse and CRC-verify one line.  Never raises. *)

val save : string -> t -> int
(** Write atomically (via [path ^ ".tmp"] + rename); returns bytes
    written including the newline. *)

val load : string -> (t option, string) result
(** Decode the file's first line.  [Ok None] if the file does not exist;
    [Error] on corruption. *)
