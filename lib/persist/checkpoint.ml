(* Checkpoint files: one Manager.Serial.repr serialised as a single
   CRC-guarded JSON line, written atomically (tmp + rename) so a crash
   mid-checkpoint leaves the previous checkpoint intact.  Floats (times)
   are stored as exact IEEE-754 bits in hex and the rest as integers,
   flags and strings in Codec's canonical spellings, so a round-trip is
   bit-exact by construction. *)

module C = Codec
open Drtp

type t = { ck_wal_seq : int; ck_time : float; ck_repr : Manager.Serial.repr }

let version = 1

(* ---- encoding ------------------------------------------------------------ *)

(* The writer and the reader below list the fields in the same order: the
   pair is the schema. *)

let write_conn w (c : Net_state.Serial.conn_repr) =
  C.add_lit w "{\"id\":";
  C.add_int w c.r_id;
  C.add_int_field w "src" c.r_src;
  C.add_int_field w "dst" c.r_dst;
  C.add_int_field w "bw" c.r_bw;
  C.add_key w "deg";
  C.add_bit w c.r_degraded;
  C.add_key w "p";
  C.add_ints w c.r_primary;
  C.add_key w "b";
  C.add_list w C.add_ints c.r_backups;
  C.add_char w '}'

let write_reprotect w (e : Manager.Serial.reprotect_repr) =
  C.add_lit w "{\"id\":";
  C.add_int w e.rr_id;
  C.add_string_field w "scheme" e.rr_scheme;
  C.add_int_field w "count" e.rr_count;
  C.add_bits_field w "since" e.rr_since;
  C.add_int_field w "trace" e.rr_trace;
  C.add_int_field w "span" e.rr_span;
  C.add_char w '}'

let write w { ck_wal_seq; ck_time; ck_repr = r } =
  let ns = r.Manager.Serial.m_state in
  C.add_lit w "{\"v\":";
  C.add_int w version;
  C.add_int_field w "wal_seq" ck_wal_seq;
  C.add_bits_field w "t" ck_time;
  C.add_key w "prime";
  C.add_array w C.add_int ns.Net_state.Serial.r_prime;
  C.add_key w "spare";
  C.add_array w C.add_int ns.Net_state.Serial.r_spare;
  C.add_key w "failed";
  C.add_array w C.add_bit ns.Net_state.Serial.r_failed;
  C.add_int_field w "aplv_updates" ns.Net_state.Serial.r_aplv_updates;
  C.add_key w "conns";
  C.add_list w write_conn ns.Net_state.Serial.r_conns;
  let st = r.Manager.Serial.m_stats in
  C.add_key w "stats";
  C.add_ints w
    [
      st.Manager.requests;
      st.Manager.accepted;
      st.Manager.rejected_no_primary;
      st.Manager.rejected_no_backup;
      st.Manager.released;
      st.Manager.degraded;
      st.Manager.unprotected;
    ];
  let rs = r.Manager.Serial.m_rstats in
  C.add_key w "rstats";
  C.add_ints w
    [ rs.Manager.queued; rs.Manager.drained; rs.Manager.attempts; rs.Manager.abandoned ];
  C.add_bits_field w "ut" rs.Manager.unprotected_time;
  C.add_key w "reprotect";
  C.add_list w write_reprotect r.Manager.Serial.m_reprotect;
  C.seal w

(* About the encoded size, so the writer does not regrow on the way. *)
let writer_for ck =
  let ns = ck.ck_repr.Manager.Serial.m_state in
  C.writer
    (256
    + (8 * Array.length ns.Net_state.Serial.r_prime)
    + (96 * List.length ns.Net_state.Serial.r_conns))

let encode ck =
  let w = writer_for ck in
  write w ck;
  C.contents w

(* ---- decoding ------------------------------------------------------------ *)

let read_conn c =
  C.lit c "{\"id\":";
  let r_id = C.int c in
  let r_src = C.int_field c "src" in
  let r_dst = C.int_field c "dst" in
  let r_bw = C.int_field c "bw" in
  C.key c "deg";
  let r_degraded = C.bit c in
  C.key c "p";
  let r_primary = C.ints c in
  C.key c "b";
  let r_backups = C.list c C.ints in
  C.char c '}';
  { Net_state.Serial.r_id; r_src; r_dst; r_bw; r_degraded; r_primary; r_backups }

let read_reprotect c =
  C.lit c "{\"id\":";
  let rr_id = C.int c in
  let rr_scheme = C.string_field c "scheme" in
  let rr_count = C.int_field c "count" in
  let rr_since = C.bits_field c "since" in
  let rr_trace = C.int_field c "trace" in
  let rr_span = C.int_field c "span" in
  C.char c '}';
  { Manager.Serial.rr_id; rr_scheme; rr_count; rr_since; rr_trace; rr_span }

let read c =
  C.lit c "{\"v\":";
  let v = C.int c in
  if v <> version then C.fail c (Printf.sprintf "unsupported version %d" v);
  let ck_wal_seq = C.int_field c "wal_seq" in
  let ck_time = C.bits_field c "t" in
  C.key c "prime";
  let r_prime = C.array c C.int in
  C.key c "spare";
  let r_spare = C.array c C.int in
  C.key c "failed";
  let r_failed = C.array c C.bit in
  let r_aplv_updates = C.int_field c "aplv_updates" in
  C.key c "conns";
  let r_conns = C.list c read_conn in
  C.key c "stats";
  let m_stats =
    match C.ints c with
    | [ requests; accepted; rejected_no_primary; rejected_no_backup; released;
        degraded; unprotected ] ->
        {
          Manager.requests;
          accepted;
          rejected_no_primary;
          rejected_no_backup;
          released;
          degraded;
          unprotected;
        }
    | _ -> C.fail c "stats arity"
  in
  C.key c "rstats";
  let queued, drained, attempts, abandoned =
    match C.ints c with
    | [ q; d; a; b ] -> (q, d, a, b)
    | _ -> C.fail c "rstats arity"
  in
  let unprotected_time = C.bits_field c "ut" in
  C.key c "reprotect";
  let m_reprotect = C.list c read_reprotect in
  {
    ck_wal_seq;
    ck_time;
    ck_repr =
      {
        Manager.Serial.m_state =
          { Net_state.Serial.r_prime; r_spare; r_failed; r_aplv_updates; r_conns };
        m_stats;
        m_rstats = { Manager.queued; drained; attempts; abandoned; unprotected_time };
        m_reprotect;
      };
  }

let decode_sub s ~pos ~len =
  Result.map_error (fun e -> "checkpoint: " ^ e) (C.parse s ~pos ~len read)

let decode line = decode_sub line ~pos:0 ~len:(String.length line)

(* ---- file I/O ------------------------------------------------------------ *)

let save path ck =
  let w = writer_for ck in
  write w ck;
  C.add_char w '\n';
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> C.output oc w);
  Sys.rename tmp path;
  C.length w

let load path =
  if not (Sys.file_exists path) then Ok None
  else
    let s = In_channel.with_open_bin path In_channel.input_all in
    if s = "" then Error (path ^ ": empty checkpoint file")
    else
      let len = Option.value (String.index_opt s '\n') ~default:(String.length s) in
      Result.map Option.some (decode_sub s ~pos:0 ~len)
