(* The differential oracle for the WAL and checkpoint codecs: the earlier
   implementations, which encode with Printf and decode through Journal's
   generic JSON tree.  They accept more than the schema codecs (they read
   every integer through a float, skip unknown keys and take the first of
   duplicated ones), so they are compared with the codecs only on lines
   the encoders wrote, and only for integers within ±2^53, where a float
   holds them exactly. *)

module J = Dr_obs.Journal
module Crc32 = Dr_persist.Crc32
module Wal = Dr_persist.Wal
module Checkpoint = Dr_persist.Checkpoint
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state

let hex_of_float f = Printf.sprintf "%Lx" (Int64.bits_of_float f)
let float_of_hex s = Int64.float_of_bits (Int64.of_string ("0x" ^ s))
let ( let* ) r f = Result.bind r f

let seal prefix = Printf.sprintf "%s,\"crc\":%d}" prefix (Crc32.string prefix)

(* The prefix before the last [,"crc":], if any. *)
let crc_prefix line =
  let marker = ",\"crc\":" in
  let mlen = String.length marker in
  let rec scan i =
    if i < 0 then None
    else if String.length line - i >= mlen && String.sub line i mlen = marker
    then Some (String.sub line 0 i)
    else scan (i - 1)
  in
  scan (String.length line - mlen)

(* Parse the tree and check the CRC, as both decoders did. *)
let checked_tree line =
  match crc_prefix line with
  | None -> Error "no crc field"
  | Some prefix -> (
      let* j = J.json_of_string line in
      match J.mem "crc" j with
      | Some (J.Num f) when Crc32.string prefix = int_of_float f -> Ok j
      | Some (J.Num _) -> Error "crc mismatch"
      | _ -> Error "missing field \"crc\"")

let field key j =
  match J.mem key j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" key)

let int_field key j =
  let* v = field key j in
  match v with
  | J.Num f -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "field %S: expected integer" key)

let str_field key j =
  let* v = field key j in
  match v with
  | J.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected string" key)

let hex_float_field key j =
  let* s = str_field key j in
  match float_of_hex s with
  | f -> Ok f
  | exception _ -> Error (Printf.sprintf "field %S: bad float bits" key)

let int_list_of key = function
  | J.Arr xs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | J.Num f :: tl -> go (int_of_float f :: acc) tl
        | _ -> Error (Printf.sprintf "field %S: expected integers" key)
      in
      go [] xs
  | _ -> Error (Printf.sprintf "field %S: expected array" key)

let ints_field key j =
  let* v = field key j in
  int_list_of key v

let arr_field key j =
  let* v = field key j in
  match v with
  | J.Arr xs -> Ok xs
  | _ -> Error (Printf.sprintf "field %S: expected array" key)

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
      let* y = f x in
      let* ys = map_result f tl in
      Ok (y :: ys)

let add_int_list b xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    xs;
  Buffer.add_char b ']'

(* ---- WAL ------------------------------------------------------------------ *)

module Wal_oracle = struct
  open Wal

  let add_op_fields b = function
    | Request r ->
        Buffer.add_string b
          (Printf.sprintf ",\"conn\":%d,\"src\":%d,\"dst\":%d,\"bw\":%d,\"dur\":\"%s\""
             r.conn r.src r.dst r.bw (hex_of_float r.duration))
    | Release r -> Buffer.add_string b (Printf.sprintf ",\"conn\":%d" r.conn)
    | Fail_edge r -> Buffer.add_string b (Printf.sprintf ",\"edge\":%d" r.edge)
    | Restore_edge r -> Buffer.add_string b (Printf.sprintf ",\"edge\":%d" r.edge)
    | Fail_group r -> Buffer.add_string b (Printf.sprintf ",\"group\":%d" r.group)
    | Restore_group r ->
        Buffer.add_string b (Printf.sprintf ",\"group\":%d" r.group)
    | Promote r ->
        Buffer.add_string b
          (Printf.sprintf ",\"conn\":%d,\"index\":%d" r.conn r.index)
    | Reroute r ->
        Buffer.add_string b (Printf.sprintf ",\"conn\":%d,\"links\":" r.conn);
        add_int_list b r.links
    | Replace_backups r ->
        Buffer.add_string b (Printf.sprintf ",\"conn\":%d,\"backups\":[" r.conn);
        List.iteri
          (fun i bk ->
            if i > 0 then Buffer.add_char b ',';
            add_int_list b bk)
          r.backups;
        Buffer.add_char b ']'
    | Queue_reprotect r ->
        Buffer.add_string b
          (Printf.sprintf ",\"conn\":%d,\"scheme\":%S,\"count\":%d" r.conn
             r.scheme r.count)
    | Drain_reprotect -> ()

  let encode { seq; time; op } =
    let b = Buffer.create 96 in
    Buffer.add_string b
      (Printf.sprintf "{\"seq\":%d,\"t\":\"%s\",\"op\":\"%s\"" seq
         (hex_of_float time) (op_name op));
    add_op_fields b op;
    seal (Buffer.contents b)

  let decode_op name j =
    match name with
    | "request" ->
        let* conn = int_field "conn" j in
        let* src = int_field "src" j in
        let* dst = int_field "dst" j in
        let* bw = int_field "bw" j in
        let* duration = hex_float_field "dur" j in
        Ok (Request { conn; src; dst; bw; duration })
    | "release" ->
        let* conn = int_field "conn" j in
        Ok (Release { conn })
    | "fail-edge" ->
        let* edge = int_field "edge" j in
        Ok (Fail_edge { edge })
    | "restore-edge" ->
        let* edge = int_field "edge" j in
        Ok (Restore_edge { edge })
    | "fail-group" ->
        let* group = int_field "group" j in
        Ok (Fail_group { group })
    | "restore-group" ->
        let* group = int_field "group" j in
        Ok (Restore_group { group })
    | "promote" ->
        let* conn = int_field "conn" j in
        let* index = int_field "index" j in
        Ok (Promote { conn; index })
    | "reroute" ->
        let* conn = int_field "conn" j in
        let* links = ints_field "links" j in
        Ok (Reroute { conn; links })
    | "replace-backups" ->
        let* conn = int_field "conn" j in
        let* bv = arr_field "backups" j in
        let* backups = map_result (int_list_of "backups") bv in
        Ok (Replace_backups { conn; backups })
    | "queue-reprotect" ->
        let* conn = int_field "conn" j in
        let* scheme = str_field "scheme" j in
        let* count = int_field "count" j in
        Ok (Queue_reprotect { conn; scheme; count })
    | "drain-reprotect" -> Ok Drain_reprotect
    | other -> Error (Printf.sprintf "unknown op %S" other)

  let decode line =
    let* j = checked_tree line in
    let* seq = int_field "seq" j in
    let* time = hex_float_field "t" j in
    let* name = str_field "op" j in
    let* op = decode_op name j in
    Ok { seq; time; op }
end

(* ---- checkpoint ----------------------------------------------------------- *)

module Checkpoint_oracle = struct
  open Checkpoint

  let version = 1

  let add_int_array b arr = add_int_list b (Array.to_list arr)

  let encode { ck_wal_seq; ck_time; ck_repr = r } =
    let b = Buffer.create (1 lsl 12) in
    Buffer.add_string b
      (Printf.sprintf "{\"v\":%d,\"wal_seq\":%d,\"t\":\"%s\"" version ck_wal_seq
         (hex_of_float ck_time));
    let ns = r.Manager.Serial.m_state in
    Buffer.add_string b ",\"prime\":";
    add_int_array b ns.Net_state.Serial.r_prime;
    Buffer.add_string b ",\"spare\":";
    add_int_array b ns.Net_state.Serial.r_spare;
    Buffer.add_string b ",\"failed\":";
    add_int_array b
      (Array.map (fun v -> if v then 1 else 0) ns.Net_state.Serial.r_failed);
    Buffer.add_string b
      (Printf.sprintf ",\"aplv_updates\":%d" ns.Net_state.Serial.r_aplv_updates);
    Buffer.add_string b ",\"conns\":[";
    List.iteri
      (fun i (c : Net_state.Serial.conn_repr) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "{\"id\":%d,\"src\":%d,\"dst\":%d,\"bw\":%d,\"deg\":%d,\"p\":"
             c.r_id c.r_src c.r_dst c.r_bw
             (if c.r_degraded then 1 else 0));
        add_int_list b c.r_primary;
        Buffer.add_string b ",\"b\":[";
        List.iteri
          (fun j bk ->
            if j > 0 then Buffer.add_char b ',';
            add_int_list b bk)
          c.r_backups;
        Buffer.add_string b "]}")
      ns.Net_state.Serial.r_conns;
    Buffer.add_char b ']';
    let st = r.Manager.Serial.m_stats in
    Buffer.add_string b
      (Printf.sprintf ",\"stats\":[%d,%d,%d,%d,%d,%d,%d]" st.Manager.requests
         st.Manager.accepted st.Manager.rejected_no_primary
         st.Manager.rejected_no_backup st.Manager.released st.Manager.degraded
         st.Manager.unprotected);
    let rs = r.Manager.Serial.m_rstats in
    Buffer.add_string b
      (Printf.sprintf ",\"rstats\":[%d,%d,%d,%d],\"ut\":\"%s\"" rs.Manager.queued
         rs.Manager.drained rs.Manager.attempts rs.Manager.abandoned
         (hex_of_float rs.Manager.unprotected_time));
    Buffer.add_string b ",\"reprotect\":[";
    List.iteri
      (fun i (e : Manager.Serial.reprotect_repr) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "{\"id\":%d,\"scheme\":%S,\"count\":%d,\"since\":\"%s\",\"trace\":%d,\"span\":%d}"
             e.rr_id e.rr_scheme e.rr_count (hex_of_float e.rr_since) e.rr_trace
             e.rr_span))
      r.Manager.Serial.m_reprotect;
    Buffer.add_char b ']';
    seal (Buffer.contents b)

  let int_array_field key j =
    let* xs = ints_field key j in
    Ok (Array.of_list xs)

  let decode_conn cj =
    let* r_id = int_field "id" cj in
    let* r_src = int_field "src" cj in
    let* r_dst = int_field "dst" cj in
    let* r_bw = int_field "bw" cj in
    let* deg = int_field "deg" cj in
    let* r_primary = ints_field "p" cj in
    let* bv = arr_field "b" cj in
    let* r_backups = map_result (int_list_of "b") bv in
    Ok
      {
        Net_state.Serial.r_id;
        r_src;
        r_dst;
        r_bw;
        r_degraded = deg <> 0;
        r_primary;
        r_backups;
      }

  let decode_reprotect ej =
    let* rr_id = int_field "id" ej in
    let* rr_scheme = str_field "scheme" ej in
    let* rr_count = int_field "count" ej in
    let* rr_since = hex_float_field "since" ej in
    let* rr_trace = int_field "trace" ej in
    let* rr_span = int_field "span" ej in
    Ok { Manager.Serial.rr_id; rr_scheme; rr_count; rr_since; rr_trace; rr_span }

  let decode line =
    let* j = checked_tree line in
    let* v = int_field "v" j in
    if v <> version then Error (Printf.sprintf "unsupported version %d" v)
    else
      let* ck_wal_seq = int_field "wal_seq" j in
      let* ck_time = hex_float_field "t" j in
      let* r_prime = int_array_field "prime" j in
      let* r_spare = int_array_field "spare" j in
      let* failed = int_array_field "failed" j in
      let* r_aplv_updates = int_field "aplv_updates" j in
      let* conns = arr_field "conns" j in
      let* r_conns = map_result decode_conn conns in
      let* stats = int_array_field "stats" j in
      let* rstats = int_array_field "rstats" j in
      let* unprotected_time = hex_float_field "ut" j in
      let* rp = arr_field "reprotect" j in
      let* m_reprotect = map_result decode_reprotect rp in
      if Array.length stats <> 7 then Error "stats arity"
      else if Array.length rstats <> 4 then Error "rstats arity"
      else
        Ok
          {
            ck_wal_seq;
            ck_time;
            ck_repr =
              {
                Manager.Serial.m_state =
                  {
                    Net_state.Serial.r_prime;
                    r_spare;
                    r_failed = Array.map (fun v -> v <> 0) failed;
                    r_aplv_updates;
                    r_conns;
                  };
                m_stats =
                  {
                    Manager.requests = stats.(0);
                    accepted = stats.(1);
                    rejected_no_primary = stats.(2);
                    rejected_no_backup = stats.(3);
                    released = stats.(4);
                    degraded = stats.(5);
                    unprotected = stats.(6);
                  };
                m_rstats =
                  {
                    Manager.queued = rstats.(0);
                    drained = rstats.(1);
                    attempts = rstats.(2);
                    abandoned = rstats.(3);
                    unprotected_time;
                  };
                m_reprotect;
              };
          }
end
