(* Write-ahead op log: every state-mutating operation serialised as one
   compact JSONL record *before* the in-memory mutation runs.  Records
   carry a monotone sequence number, the simulation time (as exact IEEE-754
   bits, hex-encoded — "%.17g" round-trips but bits are simpler to verify),
   and a CRC-32 over the line's prefix, so recovery detects torn tails and
   bit rot instead of replaying garbage.

   Replay feeds [Request]/[Release] through the exact [Manager.apply] path
   the live run used (so admission stats, re-protection drains and journal
   spans evolve identically) and the remaining ops through the corresponding
   [Net_state] / [Manager] mutators.  Replay assumes the manager's route
   functions are stateless and deterministic (P-LSR / D-LSR): a route fn
   with hidden RNG state (bounded flooding under fault injection) is not
   checkpointed and must not be combined with crash recovery. *)

module J = Dr_obs.Journal
open Dr_sim
open Drtp

type op =
  | Request of { conn : int; src : int; dst : int; bw : int; duration : float }
  | Release of { conn : int }
  | Fail_edge of { edge : int }
  | Restore_edge of { edge : int }
  | Fail_group of { group : int }
  | Restore_group of { group : int }
  | Promote of { conn : int; index : int }
  | Reroute of { conn : int; links : int list }
  | Replace_backups of { conn : int; backups : int list list }
  | Queue_reprotect of { conn : int; scheme : string; count : int }
  | Drain_reprotect

type record = { seq : int; time : float; op : op }

let op_name = function
  | Request _ -> "request"
  | Release _ -> "release"
  | Fail_edge _ -> "fail-edge"
  | Restore_edge _ -> "restore-edge"
  | Fail_group _ -> "fail-group"
  | Restore_group _ -> "restore-group"
  | Promote _ -> "promote"
  | Reroute _ -> "reroute"
  | Replace_backups _ -> "replace-backups"
  | Queue_reprotect _ -> "queue-reprotect"
  | Drain_reprotect -> "drain-reprotect"

(* ---- encoding ------------------------------------------------------------ *)

let hex_of_float f = Printf.sprintf "%Lx" (Int64.bits_of_float f)
let float_of_hex s = Int64.float_of_bits (Int64.of_string ("0x" ^ s))

let add_ints b key links =
  Buffer.add_string b (Printf.sprintf ",%S:[" key);
  List.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int l))
    links;
  Buffer.add_char b ']'

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
      Buffer.add_string b (Printf.sprintf ",\"conn\":%d,\"index\":%d" r.conn r.index)
  | Reroute r ->
      Buffer.add_string b (Printf.sprintf ",\"conn\":%d" r.conn);
      add_ints b "links" r.links
  | Replace_backups r ->
      Buffer.add_string b (Printf.sprintf ",\"conn\":%d,\"backups\":[" r.conn);
      List.iteri
        (fun i bk ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '[';
          List.iteri
            (fun j l ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_string b (string_of_int l))
            bk;
          Buffer.add_char b ']')
        r.backups;
      Buffer.add_char b ']'
  | Queue_reprotect r ->
      Buffer.add_string b
        (Printf.sprintf ",\"conn\":%d,\"scheme\":%S,\"count\":%d" r.conn r.scheme
           r.count)
  | Drain_reprotect -> ()

let encode { seq; time; op } =
  let b = Buffer.create 96 in
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"t\":\"%s\",\"op\":\"%s\"" seq (hex_of_float time)
       (op_name op));
  add_op_fields b op;
  let prefix = Buffer.contents b in
  Printf.sprintf "%s,\"crc\":%d}" prefix (Crc32.string prefix)

(* ---- decoding ------------------------------------------------------------ *)

let crc_marker = ",\"crc\":"

let find_crc_prefix line =
  (* The CRC is the last field we wrote, so search from the end. *)
  let mlen = String.length crc_marker in
  let rec scan i =
    if i < 0 then None
    else if String.length line - i >= mlen && String.sub line i mlen = crc_marker
    then Some (String.sub line 0 i)
    else scan (i - 1)
  in
  scan (String.length line - mlen)

let ( let* ) r f = Result.bind r f

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

let ints_field key j =
  let* v = field key j in
  match v with
  | J.Arr xs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | J.Num f :: tl -> go (int_of_float f :: acc) tl
        | _ -> Error (Printf.sprintf "field %S: expected integer array" key)
      in
      go [] xs
  | _ -> Error (Printf.sprintf "field %S: expected array" key)

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
      let* v = field "backups" j in
      let* backups =
        match v with
        | J.Arr xs ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | J.Arr ys :: tl ->
                  let rec inner acc2 = function
                    | [] -> Ok (List.rev acc2)
                    | J.Num f :: t2 -> inner (int_of_float f :: acc2) t2
                    | _ -> Error "field \"backups\": expected integer arrays"
                  in
                  let* one = inner [] ys in
                  go (one :: acc) tl
              | _ -> Error "field \"backups\": expected arrays"
            in
            go [] xs
        | _ -> Error "field \"backups\": expected array"
      in
      Ok (Replace_backups { conn; backups })
  | "queue-reprotect" ->
      let* conn = int_field "conn" j in
      let* scheme = str_field "scheme" j in
      let* count = int_field "count" j in
      Ok (Queue_reprotect { conn; scheme; count })
  | "drain-reprotect" -> Ok Drain_reprotect
  | other -> Error (Printf.sprintf "unknown op %S" other)

let decode line =
  match find_crc_prefix line with
  | None -> Error "no crc field"
  | Some prefix -> (
      let* j = J.json_of_string line in
      let* crc = int_field "crc" j in
      if Crc32.string prefix <> crc then Error "crc mismatch"
      else
        let* seq = int_field "seq" j in
        let* time = hex_float_field "t" j in
        let* name = str_field "op" j in
        let* op = decode_op name j in
        Ok { seq; time; op })

let load path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc lineno last_seq =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | line when String.trim line = "" -> go acc (lineno + 1) last_seq
          | line -> (
              match decode line with
              | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
              | Ok r ->
                  if r.seq <= last_seq then
                    Error
                      (Printf.sprintf "%s:%d: sequence %d not increasing (after %d)"
                         path lineno r.seq last_seq)
                  else go (r :: acc) (lineno + 1) r.seq)
        in
        go [] 1 min_int)
  end

(* ---- replay -------------------------------------------------------------- *)

let op_of_event (ev : Scenario.event) =
  match ev with
  | Scenario.Request r ->
      Request
        { conn = r.conn; src = r.src; dst = r.dst; bw = r.bw; duration = r.duration }
  | Scenario.Release r -> Release { conn = r.conn }

let replay manager { seq = _; time; op } =
  let st = Manager.state manager in
  let graph = Net_state.graph st in
  match op with
  | Request { conn; src; dst; bw; duration } ->
      Manager.apply manager
        { Scenario.time; event = Scenario.Request { conn; src; dst; bw; duration } }
  | Release { conn } ->
      Manager.apply manager { Scenario.time; event = Scenario.Release { conn } }
  | Fail_edge { edge } -> Net_state.fail_edge st ~edge
  | Restore_edge { edge } -> Net_state.restore_edge st ~edge
  | Fail_group { group } -> Net_state.fail_group st ~group
  | Restore_group { group } -> Net_state.restore_group st ~group
  | Promote { conn; index } -> Net_state.promote_backup st ~id:conn ~index ()
  | Reroute { conn; links } ->
      Net_state.reroute_primary st ~id:conn
        ~primary:(Dr_topo.Path.of_links graph links)
  | Replace_backups { conn; backups } ->
      ignore
        (Net_state.replace_backups_drop st ~id:conn
           ~backups:(List.map (Dr_topo.Path.of_links graph) backups)
          : Dr_topo.Path.t list)
  | Queue_reprotect { conn; scheme; count } -> (
      match Routing.scheme_of_string scheme with
      | Ok s ->
          Manager.queue_reprotect manager ~id:conn ~scheme:s ~backup_count:count
            ~now:time ()
      | Error e -> invalid_arg ("Wal.replay: bad scheme in record: " ^ e))
  | Drain_reprotect -> ignore (Manager.drain_reprotect manager ~now:time : int)
