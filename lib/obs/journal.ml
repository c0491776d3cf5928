module Rng = Dr_rng.Splitmix64

let on = ref false
let enabled () = !on
let set_enabled b = on := b

(* ---- events ------------------------------------------------------------- *)

type link_cost = {
  lc_link : int;
  lc_q : float;
  lc_conflict : float;
  lc_eps : float;
}

let link_cost_total lc = lc.lc_q +. lc.lc_conflict +. lc.lc_eps

type event =
  | Request of { conn : int; src : int; dst : int; bw : int }
  | Admitted of { conn : int; backups : int; degraded : bool }
  | Rejected of { conn : int; reason : string }
  | Primary_chosen of { src : int; dst : int; bw : int; links : int list }
  | Backup_chosen of {
      src : int;
      dst : int;
      bw : int;
      scheme : string;
      rank : int;
      links : link_cost list;
    }
  | Spare_change of { link : int; before : int; after : int }
  | Flood_done of {
      src : int;
      dst : int;
      messages : int;
      candidates : int;
      truncated : bool;
    }
  | Cdp_sent of { node : int; hc : int }
  | Cdp_dropped of { node : int; reason : string }
  | Cdp_candidate of { hops : int; primary_ok : bool }
  | Failure_detected of { edge : int; victims : int }
  | Report_hop of { conn : int; hops : int; detection : float; report : float }
  | Backup_activated of {
      conn : int;
      index : int;
      detection : float;
      report : float;
      activation : float;
    }
  | Backup_contended of { conn : int }
  | Connection_lost of { conn : int; latency : float }
  | Rerouted of { conn : int; latency : float; retries : int }
  | Reprotected of { conn : int; fresh : int }
  | Teardown of { conn : int }
  | Message_dropped of { cls : string; id : int }
  | Retransmit of { cls : string; conn : int; attempt : int }
  | Flood_truncated of { src : int; dst : int; messages : int }
  | Reprotect_queued of { conn : int; pending : int }
  | Group_failed of { group : int; edges : int; victims : int }
  | Chain_built of { src : int; dst : int; members : int; disjoint : int }
  | Chain_failover of { conn : int; depth : int; remaining : int }
  | Chain_exhausted of { conn : int }
  | Lsa_originated of { shard : int; link : int; lsa_seq : int }
  | Lsa_delivered of { shard : int; link : int; lsa_seq : int; lag : float }
  | Shard_setup of { conn : int; shards : int; attempt : int }
  | Shard_crankback of { conn : int; attempt : int; reason : string }
  | Stale_decision of { conn : int; age : float; divergent : bool }
  | What_if of { conn : int; src : int; dst : int; verdict : string }
  | Batch_done of { size : int; accepted : int }
  | Span_open of {
      trace : int;
      span : int;
      parent : int;
      cause : int;
      phase : string;
      conn : int;
      t0 : float;
    }
  | Span_close of { trace : int; span : int; dur : float }
  | Ring_dropped of { count : int }
  | Checkpoint_written of { seq : int; conns : int; bytes : int }
  | Wal_appended of { seq : int; op : string }
  | Crash_injected of { at_batch : int; wal_seq : int }
  | Recovery_replayed of { checkpoint_seq : int; replayed : int; conns : int }
  | Request_shed of { conn : int; reason : string; queued : int }

let kind_names =
  [|
    "request"; "admitted"; "rejected"; "primary-chosen"; "backup-chosen";
    "spare-change"; "flood-done"; "cdp-sent"; "cdp-dropped"; "cdp-candidate";
    "failure-detected"; "report-hop"; "backup-activated"; "backup-contended";
    "connection-lost"; "rerouted"; "reprotected"; "teardown";
    "message-dropped"; "retransmit"; "flood-truncated"; "reprotect-queued";
    "group-failed"; "chain-built"; "chain-failover"; "chain-exhausted";
    "lsa-originated"; "lsa-delivered"; "shard-setup"; "shard-crankback";
    "stale-decision"; "what-if"; "batch-done"; "span-open"; "span-close";
    "ring-dropped"; "checkpoint-written"; "wal-appended"; "crash-injected";
    "recovery-replayed"; "request-shed";
  |]

let all_kinds = Array.to_list kind_names

let kind_index = function
  | Request _ -> 0
  | Admitted _ -> 1
  | Rejected _ -> 2
  | Primary_chosen _ -> 3
  | Backup_chosen _ -> 4
  | Spare_change _ -> 5
  | Flood_done _ -> 6
  | Cdp_sent _ -> 7
  | Cdp_dropped _ -> 8
  | Cdp_candidate _ -> 9
  | Failure_detected _ -> 10
  | Report_hop _ -> 11
  | Backup_activated _ -> 12
  | Backup_contended _ -> 13
  | Connection_lost _ -> 14
  | Rerouted _ -> 15
  | Reprotected _ -> 16
  | Teardown _ -> 17
  | Message_dropped _ -> 18
  | Retransmit _ -> 19
  | Flood_truncated _ -> 20
  | Reprotect_queued _ -> 21
  | Group_failed _ -> 22
  | Chain_built _ -> 23
  | Chain_failover _ -> 24
  | Chain_exhausted _ -> 25
  | Lsa_originated _ -> 26
  | Lsa_delivered _ -> 27
  | Shard_setup _ -> 28
  | Shard_crankback _ -> 29
  | Stale_decision _ -> 30
  | What_if _ -> 31
  | Batch_done _ -> 32
  | Span_open _ -> 33
  | Span_close _ -> 34
  | Ring_dropped _ -> 35
  | Checkpoint_written _ -> 36
  | Wal_appended _ -> 37
  | Crash_injected _ -> 38
  | Recovery_replayed _ -> 39
  | Request_shed _ -> 40

let kind_name e = kind_names.(kind_index e)

type entry = { seq : int; time : float; event : event }

(* ---- ring buffer -------------------------------------------------------- *)

let default_capacity = 1 lsl 18

type t = {
  ring : entry option array;
  totals : int array; (* events recorded per kind, indexed by [kind_index] *)
  mutable appended : int; (* total ever appended; next seq *)
  mutable trace_epochs : int; (* next per-buffer trace-seed epoch *)
}

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Journal.create: capacity must be >= 1";
  {
    ring = Array.make capacity None;
    totals = Array.make (Array.length kind_names) 0;
    appended = 0;
    trace_epochs = 0;
  }

let capacity t = Array.length t.ring
let length t = min t.appended (Array.length t.ring)
let recorded t = t.appended
let dropped t = max 0 (t.appended - Array.length t.ring)

(* A ring of capacity 0 is the private sink of [discarding]: it counts and
   keeps nothing. *)
let push t ~time event =
  let cap = Array.length t.ring in
  if cap > 0 then
    t.ring.(t.appended mod cap) <- Some { seq = t.appended; time; event };
  t.appended <- t.appended + 1

(* Every live recording goes through here: the per-kind count is taken
   before the ring can overwrite the entry, so [totals] stays exact. *)
let append t ~time event =
  let k = kind_index event in
  t.totals.(k) <- t.totals.(k) + 1;
  push t ~time event

let totals t = List.mapi (fun i kind -> (kind, t.totals.(i))) all_kinds

let entries t =
  let cap = Array.length t.ring in
  let n = length t in
  let first = t.appended - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let clear t =
  Array.fill t.ring 0 (Array.length t.ring) None;
  Array.fill t.totals 0 (Array.length t.totals) 0;
  t.appended <- 0;
  t.trace_epochs <- 0

(* ---- per-domain recording context --------------------------------------- *)

(* Each domain records into its own buffer with its own simulation clock, so
   pool workers never interleave entries; drivers that fan tasks out wrap
   each task in [capture] and re-append in task-index order, which is what
   makes journal output byte-identical across --jobs counts. *)
type ctx = {
  mutable buf : t;
  mutable sim_now : float;
  (* causal-tracing state: a dedicated RNG for trace ids (never shared with
     the simulation streams, so tracing cannot perturb behaviour), a span-id
     counter, and the ambient current-span stack used to thread causality
     across module boundaries without signature churn *)
  mutable c_rng : Rng.t;
  mutable c_next_span : int;
  mutable c_stack : (int * int) list; (* (trace, span) *)
}

let ctx_key =
  Domain.DLS.new_key (fun () ->
      {
        buf = create ();
        sim_now = 0.0;
        c_rng = Rng.create 0;
        c_next_span = 0;
        c_stack = [];
      })

let ctx () = Domain.DLS.get ctx_key

let set_now time = (ctx ()).sim_now <- time
let now () = (ctx ()).sim_now
let current () = (ctx ()).buf

let record event =
  if !on then
    let c = ctx () in
    append c.buf ~time:c.sim_now event

(* ---- causal spans -------------------------------------------------------- *)

module Causal = struct
  type span = { sp_trace : int; sp_id : int }

  let null = { sp_trace = -1; sp_id = -1 }
  let is_null s = s.sp_id < 0
  let trace_id s = s.sp_trace
  let span_id s = s.sp_id
  let of_ids ~trace ~span = { sp_trace = trace; sp_id = span }

  let reset ~seed =
    let c = ctx () in
    c.c_rng <- Rng.create seed;
    c.c_next_span <- 0;
    c.c_stack <- []

  (* Per-buffer, not process-global: a journal's bytes must depend only
     on the run that produced it, never on how many runs preceded it in
     the same process. *)
  let alloc_trace_epochs t n =
    if n < 0 then invalid_arg "Causal.alloc_trace_epochs: n must be >= 0";
    let base = t.trace_epochs in
    t.trace_epochs <- base + n;
    base

  (* Trace ids are the top 48 bits of a SplitMix64 draw: always a
     non-negative OCaml int, and collisions between independently seeded
     tasks are negligible. *)
  let fresh_trace c =
    Int64.to_int (Int64.shift_right_logical (Rng.next_int64 c.c_rng) 16)

  let fresh_span c =
    let id = c.c_next_span in
    c.c_next_span <- id + 1;
    id

  let open_span c ~trace ~parent ~cause ~conn ~t0 phase =
    let id = fresh_span c in
    append c.buf ~time:c.sim_now
      (Span_open
         {
           trace;
           span = id;
           parent;
           cause = (if is_null cause then -1 else cause.sp_id);
           phase;
           conn;
           t0 = (match t0 with Some t -> t | None -> c.sim_now);
         });
    { sp_trace = trace; sp_id = id }

  let root ?(cause = null) ?(conn = -1) ?t0 phase =
    if not !on then null
    else
      let c = ctx () in
      open_span c ~trace:(fresh_trace c) ~parent:(-1) ~cause ~conn ~t0 phase

  let child ?(cause = null) ?(conn = -1) ?t0 ~parent phase =
    if (not !on) || is_null parent then null
    else
      let c = ctx () in
      open_span c ~trace:parent.sp_trace ~parent:parent.sp_id ~cause ~conn ~t0
        phase

  let close s ~dur =
    if !on && not (is_null s) then
      record (Span_close { trace = s.sp_trace; span = s.sp_id; dur })

  let leaf ?cause ?conn ?t0 ~parent ~dur phase =
    let s = child ?cause ?conn ?t0 ~parent phase in
    close s ~dur

  let current () =
    if not !on then null
    else
      match (ctx ()).c_stack with
      | [] -> null
      | (tr, id) :: _ -> { sp_trace = tr; sp_id = id }

  let with_current s f =
    if (not !on) || is_null s then f ()
    else begin
      let c = ctx () in
      c.c_stack <- (s.sp_trace, s.sp_id) :: c.c_stack;
      let pop () =
        match c.c_stack with [] -> () | _ :: tl -> c.c_stack <- tl
      in
      match f () with
      | v ->
          pop ();
          v
      | exception e ->
          pop ();
          raise e
    end
end

let with_buffer buf f =
  let c = ctx () in
  let saved = c.buf in
  c.buf <- buf;
  match f () with
  | v ->
      c.buf <- saved;
      v
  | exception e ->
      c.buf <- saved;
      raise e

type captured = { c_entries : entry list; c_totals : int array }

let captured_entries c = c.c_entries

(* Run [f] against [buf] with the clock reset to 0 and, given a seed, a
   fresh causal context; both are restored on either exit. *)
let isolated buf ?trace_seed f =
  let c = ctx () in
  let saved_now = c.sim_now in
  let saved_rng = c.c_rng in
  let saved_span = c.c_next_span in
  let saved_stack = c.c_stack in
  c.sim_now <- 0.0;
  (match trace_seed with
  | Some seed ->
      c.c_rng <- Rng.create seed;
      c.c_next_span <- 0;
      c.c_stack <- []
  | None -> ());
  let finish () =
    c.sim_now <- saved_now;
    match trace_seed with
    | Some _ ->
        c.c_rng <- saved_rng;
        c.c_next_span <- saved_span;
        c.c_stack <- saved_stack
    | None -> ()
  in
  match with_buffer buf f with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let capture ?capacity ?trace_seed f =
  let buf = create ?capacity () in
  let v = isolated buf ?trace_seed f in
  let es = entries buf in
  (* Surface ring overwrite instead of silently handing back a window:
     downstream consumers (trace assembly in particular) must know the
     DAG may be missing its oldest spans. *)
  let c_entries =
    if dropped buf > 0 then
      { seq = 0; time = 0.0; event = Ring_dropped { count = dropped buf } }
      :: es
    else es
  in
  (v, { c_entries; c_totals = buf.totals })

let discarding ?trace_seed f =
  let sink =
    { ring = [||]; totals = Array.make (Array.length kind_names) 0; appended = 0;
      trace_epochs = 0 }
  in
  isolated sink ?trace_seed f

(* The entries are re-appended uncounted and the task's exact totals added
   instead: counting the entries would miss what the task's ring overwrote
   and would count the [Ring_dropped] marker as an event. *)
let merge t c =
  List.iter (fun e -> push t ~time:e.time e.event) c.c_entries;
  Array.iteri (fun i n -> t.totals.(i) <- t.totals.(i) + n) c.c_totals

(* ---- JSONL writer -------------------------------------------------------- *)

let buf_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"'

(* JSON has no NaN/Infinity literals; journal floats are always finite, but
   clamp defensively. *)
let buf_json_float b v =
  if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.17g" v)
  else Buffer.add_string b "null"

let field b ~first name writer =
  if not !first then Buffer.add_char b ',';
  first := false;
  buf_json_string b name;
  Buffer.add_char b ':';
  writer b

let int_field b first name v =
  field b ~first name (fun b -> Buffer.add_string b (string_of_int v))

let float_field b first name v = field b ~first name (fun b -> buf_json_float b v)

let str_field b first name v = field b ~first name (fun b -> buf_json_string b v)

let bool_field b first name v =
  field b ~first name (fun b -> Buffer.add_string b (string_of_bool v))

let int_list_field b first name vs =
  field b ~first name (fun b ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int v))
        vs;
      Buffer.add_char b ']')

let link_cost_list_field b first name lcs =
  field b ~first name (fun b ->
      Buffer.add_char b '[';
      List.iteri
        (fun i lc ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '{';
          let f = ref true in
          int_field b f "link" lc.lc_link;
          float_field b f "q" lc.lc_q;
          float_field b f "conflict" lc.lc_conflict;
          float_field b f "eps" lc.lc_eps;
          float_field b f "total" (link_cost_total lc);
          Buffer.add_char b '}')
        lcs;
      Buffer.add_char b ']')

let add_event_fields b first = function
  | Request { conn; src; dst; bw } ->
      int_field b first "conn" conn;
      int_field b first "src" src;
      int_field b first "dst" dst;
      int_field b first "bw" bw
  | Admitted { conn; backups; degraded } ->
      int_field b first "conn" conn;
      int_field b first "backups" backups;
      bool_field b first "degraded" degraded
  | Rejected { conn; reason } ->
      int_field b first "conn" conn;
      str_field b first "reason" reason
  | Primary_chosen { src; dst; bw; links } ->
      int_field b first "src" src;
      int_field b first "dst" dst;
      int_field b first "bw" bw;
      int_list_field b first "links" links
  | Backup_chosen { src; dst; bw; scheme; rank; links } ->
      int_field b first "src" src;
      int_field b first "dst" dst;
      int_field b first "bw" bw;
      str_field b first "scheme" scheme;
      int_field b first "rank" rank;
      link_cost_list_field b first "links" links
  | Spare_change { link; before; after } ->
      int_field b first "link" link;
      int_field b first "before" before;
      int_field b first "after" after
  | Flood_done { src; dst; messages; candidates; truncated } ->
      int_field b first "src" src;
      int_field b first "dst" dst;
      int_field b first "messages" messages;
      int_field b first "candidates" candidates;
      bool_field b first "truncated" truncated
  | Cdp_sent { node; hc } ->
      int_field b first "node" node;
      int_field b first "hc" hc
  | Cdp_dropped { node; reason } ->
      int_field b first "node" node;
      str_field b first "reason" reason
  | Cdp_candidate { hops; primary_ok } ->
      int_field b first "hops" hops;
      bool_field b first "primary_ok" primary_ok
  | Failure_detected { edge; victims } ->
      int_field b first "edge" edge;
      int_field b first "victims" victims
  | Report_hop { conn; hops; detection; report } ->
      int_field b first "conn" conn;
      int_field b first "hops" hops;
      float_field b first "detection_s" detection;
      float_field b first "report_s" report
  | Backup_activated { conn; index; detection; report; activation } ->
      int_field b first "conn" conn;
      int_field b first "index" index;
      float_field b first "detection_s" detection;
      float_field b first "report_s" report;
      float_field b first "activation_s" activation
  | Backup_contended { conn } -> int_field b first "conn" conn
  | Connection_lost { conn; latency } ->
      int_field b first "conn" conn;
      float_field b first "latency_s" latency
  | Rerouted { conn; latency; retries } ->
      int_field b first "conn" conn;
      float_field b first "latency_s" latency;
      int_field b first "retries" retries
  | Reprotected { conn; fresh } ->
      int_field b first "conn" conn;
      int_field b first "fresh" fresh
  | Teardown { conn } -> int_field b first "conn" conn
  | Message_dropped { cls; id } ->
      str_field b first "cls" cls;
      int_field b first "id" id
  | Retransmit { cls; conn; attempt } ->
      str_field b first "cls" cls;
      int_field b first "conn" conn;
      int_field b first "attempt" attempt
  | Flood_truncated { src; dst; messages } ->
      int_field b first "src" src;
      int_field b first "dst" dst;
      int_field b first "messages" messages
  | Reprotect_queued { conn; pending } ->
      int_field b first "conn" conn;
      int_field b first "pending" pending
  | Group_failed { group; edges; victims } ->
      int_field b first "group" group;
      int_field b first "edges" edges;
      int_field b first "victims" victims
  | Chain_built { src; dst; members; disjoint } ->
      int_field b first "src" src;
      int_field b first "dst" dst;
      int_field b first "members" members;
      int_field b first "disjoint" disjoint
  | Chain_failover { conn; depth; remaining } ->
      int_field b first "conn" conn;
      int_field b first "depth" depth;
      int_field b first "remaining" remaining
  | Chain_exhausted { conn } -> int_field b first "conn" conn
  | Lsa_originated { shard; link; lsa_seq } ->
      int_field b first "shard" shard;
      int_field b first "link" link;
      int_field b first "lsa_seq" lsa_seq
  | Lsa_delivered { shard; link; lsa_seq; lag } ->
      int_field b first "shard" shard;
      int_field b first "link" link;
      int_field b first "lsa_seq" lsa_seq;
      float_field b first "lag_s" lag
  | Shard_setup { conn; shards; attempt } ->
      int_field b first "conn" conn;
      int_field b first "shards" shards;
      int_field b first "attempt" attempt
  | Shard_crankback { conn; attempt; reason } ->
      int_field b first "conn" conn;
      int_field b first "attempt" attempt;
      str_field b first "reason" reason
  | Stale_decision { conn; age; divergent } ->
      int_field b first "conn" conn;
      float_field b first "age_s" age;
      bool_field b first "divergent" divergent
  | What_if { conn; src; dst; verdict } ->
      int_field b first "conn" conn;
      int_field b first "src" src;
      int_field b first "dst" dst;
      str_field b first "verdict" verdict
  | Batch_done { size; accepted } ->
      int_field b first "size" size;
      int_field b first "accepted" accepted
  | Span_open { trace; span; parent; cause; phase; conn; t0 } ->
      int_field b first "trace" trace;
      int_field b first "span" span;
      int_field b first "parent" parent;
      int_field b first "cause" cause;
      str_field b first "phase" phase;
      int_field b first "conn" conn;
      float_field b first "t0_s" t0
  | Span_close { trace; span; dur } ->
      int_field b first "trace" trace;
      int_field b first "span" span;
      float_field b first "dur_s" dur
  | Ring_dropped { count } -> int_field b first "count" count
  | Checkpoint_written { seq; conns; bytes } ->
      int_field b first "seq_wal" seq;
      int_field b first "conns" conns;
      int_field b first "bytes" bytes
  | Wal_appended { seq; op } ->
      int_field b first "seq_wal" seq;
      str_field b first "op" op
  | Crash_injected { at_batch; wal_seq } ->
      int_field b first "at_batch" at_batch;
      int_field b first "wal_seq" wal_seq
  | Recovery_replayed { checkpoint_seq; replayed; conns } ->
      int_field b first "checkpoint_seq" checkpoint_seq;
      int_field b first "replayed" replayed;
      int_field b first "conns" conns
  | Request_shed { conn; reason; queued } ->
      int_field b first "conn" conn;
      str_field b first "reason" reason;
      int_field b first "queued" queued

let entry_to_json e =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  let first = ref true in
  int_field b first "seq" e.seq;
  float_field b first "t" e.time;
  str_field b first "kind" (kind_name e.event);
  add_event_fields b first e.event;
  Buffer.add_char b '}';
  Buffer.contents b

(* A wrapped ring leads its export with a [ring-dropped] line (seq =
   total appended, so it never clashes with a retained entry's seq) — the
   reader side uses it to warn that the oldest events are gone. *)
let export_entries t =
  let es = entries t in
  if dropped t > 0 then
    { seq = recorded t; time = 0.0; event = Ring_dropped { count = dropped t } }
    :: es
  else es

let write_jsonl t oc =
  List.iter
    (fun e ->
      output_string oc (entry_to_json e);
      output_char oc '\n')
    (export_entries t)

let to_jsonl_string t =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (entry_to_json e);
      Buffer.add_char b '\n')
    (export_entries t);
  Buffer.contents b

(* ---- JSONL reader -------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" ch)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape");
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "bad \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              let code =
                try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
              in
              (* Journal output only escapes control characters, so plain
                 byte emission is enough for round-tripping our own files. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_string b (Printf.sprintf "\\u%04x" code);
              pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape %C" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let mem name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

type parsed = {
  p_seq : int;
  p_time : float;
  p_kind : string;
  p_fields : (string * json) list;
}

let parse_line line =
  match json_of_string line with
  | Error msg -> Error msg
  | Ok (Obj fields as j) -> (
      match (mem "seq" j, mem "t" j, mem "kind" j) with
      | Some (Num seq), Some (Num t), Some (Str kind) ->
          if Float.is_integer seq && seq >= 0.0 then
            if List.mem kind all_kinds then
              Ok { p_seq = int_of_float seq; p_time = t; p_kind = kind; p_fields = fields }
            else Error (Printf.sprintf "unknown event kind %S" kind)
          else Error "\"seq\" is not a non-negative integer"
      | _ -> Error "missing or ill-typed \"seq\"/\"t\"/\"kind\" field")
  | Ok _ -> Error "line is not a JSON object"

let fold_jsonl file ~init ~f =
  match open_in file with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let acc = ref init in
          let lineno = ref 0 in
          (try
             while true do
               let line = input_line ic in
               incr lineno;
               if String.trim line <> "" then
                 acc := f !acc !lineno (parse_line line)
             done
           with End_of_file -> ());
          Ok !acc)
