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

module C = Codec
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

(* One writer and one reader per op, in the same field order: the pair is
   the schema. *)

let write_op w = function
  | Request r ->
      C.add_int_field w "conn" r.conn;
      C.add_int_field w "src" r.src;
      C.add_int_field w "dst" r.dst;
      C.add_int_field w "bw" r.bw;
      C.add_bits_field w "dur" r.duration
  | Release r -> C.add_int_field w "conn" r.conn
  | Fail_edge r -> C.add_int_field w "edge" r.edge
  | Restore_edge r -> C.add_int_field w "edge" r.edge
  | Fail_group r -> C.add_int_field w "group" r.group
  | Restore_group r -> C.add_int_field w "group" r.group
  | Promote r ->
      C.add_int_field w "conn" r.conn;
      C.add_int_field w "index" r.index
  | Reroute r ->
      C.add_int_field w "conn" r.conn;
      C.add_key w "links";
      C.add_ints w r.links
  | Replace_backups r ->
      C.add_int_field w "conn" r.conn;
      C.add_key w "backups";
      C.add_list w C.add_ints r.backups
  | Queue_reprotect r ->
      C.add_int_field w "conn" r.conn;
      C.add_string_field w "scheme" r.scheme;
      C.add_int_field w "count" r.count
  | Drain_reprotect -> ()

let encode { seq; time; op } =
  let w = C.writer 128 in
  C.add_lit w "{\"seq\":";
  C.add_int w seq;
  C.add_bits_field w "t" time;
  C.add_string_field w "op" (op_name op);
  write_op w op;
  C.seal w;
  C.contents w

(* ---- decoding ------------------------------------------------------------ *)

let read_op c name =
  match name with
  | "request" ->
      let conn = C.int_field c "conn" in
      let src = C.int_field c "src" in
      let dst = C.int_field c "dst" in
      let bw = C.int_field c "bw" in
      let duration = C.bits_field c "dur" in
      Request { conn; src; dst; bw; duration }
  | "release" -> Release { conn = C.int_field c "conn" }
  | "fail-edge" -> Fail_edge { edge = C.int_field c "edge" }
  | "restore-edge" -> Restore_edge { edge = C.int_field c "edge" }
  | "fail-group" -> Fail_group { group = C.int_field c "group" }
  | "restore-group" -> Restore_group { group = C.int_field c "group" }
  | "promote" ->
      let conn = C.int_field c "conn" in
      let index = C.int_field c "index" in
      Promote { conn; index }
  | "reroute" ->
      let conn = C.int_field c "conn" in
      C.key c "links";
      Reroute { conn; links = C.ints c }
  | "replace-backups" ->
      let conn = C.int_field c "conn" in
      C.key c "backups";
      Replace_backups { conn; backups = C.list c C.ints }
  | "queue-reprotect" ->
      let conn = C.int_field c "conn" in
      let scheme = C.string_field c "scheme" in
      let count = C.int_field c "count" in
      Queue_reprotect { conn; scheme; count }
  | "drain-reprotect" -> Drain_reprotect
  | other -> C.fail c (Printf.sprintf "unknown op %S" other)

let read_record c =
  C.lit c "{\"seq\":";
  let seq = C.int c in
  let time = C.bits_field c "t" in
  let name = C.string_field c "op" in
  { seq; time; op = read_op c name }

let decode_sub s ~pos ~len = C.parse s ~pos ~len read_record
let decode line = decode_sub line ~pos:0 ~len:(String.length line)

let blank s ~pos ~len =
  let rec go i =
    i = pos + len
    || (match s.[i] with ' ' | '\t' | '\r' | '\012' -> true | _ -> false)
       && go (i + 1)
  in
  go pos

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    (* One read of the whole file; each line is decoded where it lies. *)
    let s = In_channel.with_open_bin path In_channel.input_all in
    let n = String.length s in
    let rec go acc lineno last_seq pos =
      if pos >= n then Ok (List.rev acc)
      else
        let eol = Option.value (String.index_from_opt s pos '\n') ~default:n in
        let len = eol - pos in
        if blank s ~pos ~len then go acc (lineno + 1) last_seq (eol + 1)
        else
          match decode_sub s ~pos ~len with
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e)
          | Ok r ->
              if r.seq <= last_seq then
                Error
                  (Printf.sprintf "%s:%d: sequence %d not increasing (after %d)"
                     path lineno r.seq last_seq)
              else go (r :: acc) (lineno + 1) r.seq (eol + 1)
    in
    go [] 1 min_int 0

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
