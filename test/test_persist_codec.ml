(* The WAL and checkpoint codecs: round trips over the full int range and
   arbitrary float bits and strings, agreement with the earlier tree
   decoders and Printf encoders (Persist_oracle), strictness against
   hand-edited lines whose CRC was recomputed, and byte-corruption fuzzing
   (flips, truncations, insertions, deletions, splices) of valid lines:
   decoding never raises, and a line it accepts is exactly the encoding of
   what it returned. *)

module Wal = Dr_persist.Wal
module Checkpoint = Dr_persist.Checkpoint
module Manager = Drtp.Manager
module Net_state = Drtp.Net_state
module Oracle = Persist_oracle
module G = QCheck.Gen

let property ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ---- equality with floats compared by their bits ------------------------ *)

let bits = Int64.bits_of_float

let same_op a b =
  match (a, b) with
  | Wal.Request x, Wal.Request y ->
      x.conn = y.conn && x.src = y.src && x.dst = y.dst && x.bw = y.bw
      && bits x.duration = bits y.duration
  | _ -> a = b

let same_record (a : Wal.record) (b : Wal.record) =
  a.seq = b.seq && bits a.time = bits b.time && same_op a.op b.op

let ck_view (ck : Checkpoint.t) =
  let r = ck.ck_repr in
  let rs = r.m_rstats in
  ( (ck.ck_wal_seq, bits ck.ck_time, r.m_state, r.m_stats),
    (rs.queued, rs.drained, rs.attempts, rs.abandoned, bits rs.unprotected_time),
    List.map
      (fun (e : Manager.Serial.reprotect_repr) ->
        (e.rr_id, e.rr_scheme, e.rr_count, bits e.rr_since, e.rr_trace, e.rr_span))
      r.m_reprotect )

let same_checkpoint a b = ck_view a = ck_view b

(* ---- generators ----------------------------------------------------------- *)

let full_int =
  G.oneof
    [
      G.int;
      G.small_signed_int;
      G.oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1 lsl 53 ];
    ]

(* The tree oracle reads integers through floats: exact within ±2^53. *)
let safe_int = G.oneof [ G.int_range (-(1 lsl 53)) (1 lsl 53); G.small_signed_int ]

let any_float =
  G.oneof
    [
      G.map Int64.float_of_bits G.ui64;
      G.float;
      G.oneofl [ 0.0; -0.0; Float.nan; Float.infinity; 4.9e-324; 1.0 /. 3.0 ];
    ]

let any_string = G.string_size ~gen:G.char (G.int_range 0 10)

(* Strings that neither OCaml's %S nor JSON escapes. *)
let plain_string =
  let chars =
    List.filter
      (fun c -> c <> '"' && c <> '\\')
      (List.init 95 (fun i -> Char.chr (0x20 + i)))
  in
  G.oneof
    [
      G.oneofl [ "P-LSR"; "D-LSR"; "SPF" ];
      G.string_size ~gen:(G.oneofl chars) (G.int_range 0 10);
    ]

let scheme_of str = G.oneof [ G.oneofl [ "P-LSR"; "D-LSR"; "SPF" ]; str ]

let op_gen ~num ~str =
  let open G in
  let ints = list_size (int_range 0 6) num in
  oneof
    [
      (let+ conn, src, dst, bw = quad num num num num and+ duration = any_float in
       Wal.Request { conn; src; dst; bw; duration });
      map (fun conn -> Wal.Release { conn }) num;
      map (fun edge -> Wal.Fail_edge { edge }) num;
      map (fun edge -> Wal.Restore_edge { edge }) num;
      map (fun group -> Wal.Fail_group { group }) num;
      map (fun group -> Wal.Restore_group { group }) num;
      map2 (fun conn index -> Wal.Promote { conn; index }) num num;
      map2 (fun conn links -> Wal.Reroute { conn; links }) num ints;
      map2
        (fun conn backups -> Wal.Replace_backups { conn; backups })
        num
        (list_size (int_range 0 3) ints);
      map3
        (fun conn scheme count -> Wal.Queue_reprotect { conn; scheme; count })
        num (scheme_of str) num;
      return Wal.Drain_reprotect;
    ]

let record_gen ~num ~str =
  G.map3 (fun seq time op -> { Wal.seq; time; op }) num any_float (op_gen ~num ~str)

let conn_gen ~num =
  let open G in
  let ints = list_size (int_range 0 6) num in
  let+ r_id, r_src, r_dst, r_bw = quad num num num num
  and+ r_degraded = bool
  and+ r_primary = ints
  and+ r_backups = list_size (int_range 0 3) ints in
  { Net_state.Serial.r_id; r_src; r_dst; r_bw; r_degraded; r_primary; r_backups }

let reprotect_gen ~num ~str =
  let open G in
  let+ rr_id, rr_count, rr_trace, rr_span = quad num num num num
  and+ rr_scheme = scheme_of str
  and+ rr_since = any_float in
  { Manager.Serial.rr_id; rr_scheme; rr_count; rr_since; rr_trace; rr_span }

let checkpoint_gen ~num ~str =
  let open G in
  let arr = array_size (int_range 0 8) num in
  let+ ck_wal_seq = num
  and+ ck_time = any_float
  and+ r_prime = arr
  and+ r_spare = arr
  and+ r_failed = array_size (int_range 0 8) bool
  and+ r_aplv_updates = num
  and+ r_conns = list_size (int_range 0 4) (conn_gen ~num)
  and+ st = array_size (return 7) num
  and+ rs = array_size (return 4) num
  and+ unprotected_time = any_float
  and+ m_reprotect = list_size (int_range 0 3) (reprotect_gen ~num ~str) in
  {
    Checkpoint.ck_wal_seq;
    ck_time;
    ck_repr =
      {
        Manager.Serial.m_state =
          { Net_state.Serial.r_prime; r_spare; r_failed; r_aplv_updates; r_conns };
        m_stats =
          {
            Manager.requests = st.(0);
            accepted = st.(1);
            rejected_no_primary = st.(2);
            rejected_no_backup = st.(3);
            released = st.(4);
            degraded = st.(5);
            unprotected = st.(6);
          };
        m_rstats =
          {
            Manager.queued = rs.(0);
            drained = rs.(1);
            attempts = rs.(2);
            abandoned = rs.(3);
            unprotected_time;
          };
        m_reprotect;
      };
  }

let wal_arb g = QCheck.make ~print:Wal.encode g
let ck_arb g = QCheck.make ~print:Checkpoint.encode g

(* ---- byte corruption ------------------------------------------------------ *)

(* Recompute the CRC over whatever precedes the last [,"crc":], so a
   mutation reaches the schema reader instead of stopping at the checksum. *)
let reseal line =
  match Oracle.crc_prefix line with Some p -> Oracle.seal p | None -> line

let interesting = "0123456789-.eE+,:\"{}[]\\/ uxabcdefABCDEF_\000\255"

(* Near-misses of the canonical spellings. *)
let tokens =
  [| "-0"; "00"; ".5"; "e9"; "\\u0041"; "\\u000a"; "\\u001F"; "\\/"; "\\b";
     ",\"x\":1"; "[]"; "\"\""; "4611686018427387904" |]

let mutate rng line other =
  let n = String.length line in
  let pos () = Random.State.int rng (n + 1) in
  let piece () =
    match Random.State.int rng 3 with
    | 0 -> String.make 1 interesting.[Random.State.int rng (String.length interesting)]
    | 1 -> tokens.(Random.State.int rng (Array.length tokens))
    | _ -> String.make 1 (Char.chr (Random.State.int rng 256))
  in
  let ins i s = String.sub line 0 i ^ s ^ String.sub line i (n - i) in
  match Random.State.int rng 6 with
  | 0 when n > 0 ->
      let b = Bytes.of_string line and i = Random.State.int rng n in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)));
      Bytes.to_string b
  | 1 -> String.sub line 0 (Random.State.int rng (n + 1))
  | 2 -> ins (pos ()) (piece ())
  | 3 ->
      let i = pos () in
      let j = i + Random.State.int rng (n - i + 1) in
      String.sub line 0 i ^ String.sub line j (n - j)
  | 4 ->
      (* Splice: a piece of another valid line over a piece of this one. *)
      let m = String.length other in
      let a = Random.State.int rng (m + 1) in
      let b = a + Random.State.int rng (m - a + 1) in
      let i = pos () in
      let j = i + Random.State.int rng (n - i + 1) in
      String.sub line 0 i ^ String.sub other a (b - a) ^ String.sub line j (n - j)
  | _ ->
      (* Duplicate a piece in place, e.g. a whole field. *)
      let i = pos () in
      let j = i + Random.State.int rng (min 24 (n - i) + 1) in
      ins j (String.sub line i (j - i))

(* [decode] on the raw and on the resealed mutant: no exception, and any
   accepted line is exactly the encoding of the value returned. *)
let fuzz_ok ~decode ~encode ~seed ~rounds line other =
  let rng = Random.State.make [| seed |] in
  let check l =
    match decode l with
    | exception e ->
        QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) l
    | Error _ -> ()
    | Ok v ->
        if encode v <> l then QCheck.Test.fail_reportf "accepted non-canonical %S" l
  in
  for _ = 1 to rounds do
    let m = mutate rng line other in
    check m;
    check (reseal m)
  done;
  true

(* ---- WAL properties ------------------------------------------------------- *)

let prop_wal_round_trip =
  property "wal: decode (encode r) = r, full int range"
    (wal_arb (record_gen ~num:full_int ~str:any_string))
    (fun r ->
      match Wal.decode (Wal.encode r) with
      | Ok r' -> same_record r r'
      | Error e -> QCheck.Test.fail_reportf "rejected: %s" e)

let prop_wal_oracle =
  property "wal: reader = tree oracle on encoder output"
    (wal_arb (record_gen ~num:safe_int ~str:any_string))
    (fun r ->
      let line = Wal.encode r in
      match (Wal.decode line, Oracle.Wal_oracle.decode line) with
      | Ok a, Ok b -> same_record a b && same_record a r
      | Error e, _ | _, Error e -> QCheck.Test.fail_reportf "rejected: %s" e)

let prop_wal_printf_bytes =
  property "wal: encoder = Printf encoder when no string needs escaping"
    (wal_arb (record_gen ~num:full_int ~str:plain_string))
    (fun r -> Wal.encode r = Oracle.Wal_oracle.encode r)

let prop_wal_fuzz =
  property ~count:150 "wal: corrupted lines never raise, accepted = canonical"
    (QCheck.pair
       (wal_arb (record_gen ~num:full_int ~str:any_string))
       (wal_arb (record_gen ~num:full_int ~str:any_string)))
    (fun (r, r2) ->
      fuzz_ok ~decode:Wal.decode ~encode:Wal.encode ~seed:(Hashtbl.hash r.Wal.seq)
        ~rounds:20 (Wal.encode r) (Wal.encode r2))

(* ---- checkpoint properties ------------------------------------------------ *)

let prop_ck_round_trip =
  property ~count:100 "checkpoint: decode (encode c) = c, full int range"
    (ck_arb (checkpoint_gen ~num:full_int ~str:any_string))
    (fun ck ->
      match Checkpoint.decode (Checkpoint.encode ck) with
      | Ok ck' -> same_checkpoint ck ck'
      | Error e -> QCheck.Test.fail_reportf "rejected: %s" e)

let prop_ck_oracle =
  property ~count:100 "checkpoint: reader = tree oracle on encoder output"
    (ck_arb (checkpoint_gen ~num:safe_int ~str:any_string))
    (fun ck ->
      let line = Checkpoint.encode ck in
      match (Checkpoint.decode line, Oracle.Checkpoint_oracle.decode line) with
      | Ok a, Ok b -> same_checkpoint a b && same_checkpoint a ck
      | Error e, _ | _, Error e -> QCheck.Test.fail_reportf "rejected: %s" e)

let prop_ck_printf_bytes =
  property ~count:100
    "checkpoint: encoder = Printf encoder when no string needs escaping"
    (ck_arb (checkpoint_gen ~num:full_int ~str:plain_string))
    (fun ck -> Checkpoint.encode ck = Oracle.Checkpoint_oracle.encode ck)

let prop_ck_fuzz =
  property ~count:60 "checkpoint: corrupted lines never raise, accepted = canonical"
    (QCheck.pair
       (ck_arb (checkpoint_gen ~num:full_int ~str:any_string))
       (ck_arb (checkpoint_gen ~num:full_int ~str:any_string)))
    (fun (ck, ck2) ->
      fuzz_ok ~decode:Checkpoint.decode ~encode:Checkpoint.encode
        ~seed:(Hashtbl.hash ck.Checkpoint.ck_wal_seq) ~rounds:25
        (Checkpoint.encode ck) (Checkpoint.encode ck2))

(* ---- strictness ----------------------------------------------------------- *)

let request =
  {
    Wal.seq = 12;
    time = 0.1;
    op = Wal.Request { conn = 7; src = 0; dst = 3; bw = 1; duration = 9.0 };
  }

(* Replace the first [a] by [b] in the line; [edit] also recomputes the
   CRC. *)
let raw_edit line a b =
  match Astring.String.cut ~sep:a line with
  | Some (l, r) -> l ^ b ^ r
  | None -> Alcotest.failf "%S not in %S" a line

let edit line a b = reseal (raw_edit line a b)

let test_wal_strict () =
  let line = Wal.encode request in
  Alcotest.(check bool) "resealing a valid line changes nothing" true
    (reseal line = line);
  List.iter
    (fun (what, a, b) ->
      match Wal.decode (edit line a b) with
      | Error _ -> ()
      | Ok r -> Alcotest.failf "%s accepted as %s" what (Wal.encode r))
    [
      ("fractional int", "\"conn\":7", "\"conn\":7.9");
      ("exponent int", "\"conn\":7", "\"conn\":1e300");
      ("duplicated key", "\"conn\":7", "\"conn\":7,\"conn\":8");
      ("underscore in bits", "\"t\":\"3fb999999999999a\"", "\"t\":\"1_0\"");
      ("upper-case bits", "\"t\":\"3fb999999999999a\"", "\"t\":\"3FB999999999999A\"");
      ("leading zero in bits", "\"t\":\"3fb999999999999a\"", "\"t\":\"03fb999999999999a\"");
      ("20-digit int", "\"conn\":7", "\"conn\":12345678901234567890");
      ("just past max_int", "\"conn\":7", "\"conn\":4611686018427387904");
      ("leading zero", "\"conn\":7", "\"conn\":07");
      ("negative zero", "\"src\":0", "\"src\":-0");
      ("plus sign", "\"conn\":7", "\"conn\":+7");
      ("whitespace", "\"conn\":7", "\"conn\": 7");
      ("reordered fields", "\"src\":0,\"dst\":3", "\"dst\":3,\"src\":0");
      ("unknown field", "\"bw\":1", "\"bw\":1,\"x\":1");
      ("missing field", ",\"bw\":1", "");
      ("escaped op name", "\"request\"", "\"requ\\u0065st\"");
    ];
  Alcotest.(check bool) "crc with a leading zero" true
    (Result.is_error (Wal.decode (raw_edit line ",\"crc\":" ",\"crc\":0")))

let test_checkpoint_strict () =
  let ck =
    {
      Checkpoint.ck_wal_seq = 5;
      ck_time = 2.0;
      ck_repr =
        {
          Manager.Serial.m_state =
            {
              Net_state.Serial.r_prime = [| 1; 2 |];
              r_spare = [| 0; 1 |];
              r_failed = [| false; true |];
              r_aplv_updates = 3;
              r_conns =
                [
                  {
                    Net_state.Serial.r_id = 4;
                    r_src = 0;
                    r_dst = 1;
                    r_bw = 1;
                    r_degraded = false;
                    r_primary = [ 0 ];
                    r_backups = [ [ 1 ] ];
                  };
                ];
            };
          m_stats =
            {
              Manager.requests = 1;
              accepted = 1;
              rejected_no_primary = 0;
              rejected_no_backup = 0;
              released = 0;
              degraded = 0;
              unprotected = 0;
            };
          m_rstats =
            {
              Manager.queued = 0;
              drained = 0;
              attempts = 0;
              abandoned = 0;
              unprotected_time = 0.0;
            };
          m_reprotect = [];
        };
    }
  in
  let line = Checkpoint.encode ck in
  (match Checkpoint.decode line with
  | Ok ck' -> Alcotest.(check bool) "round trip" true (same_checkpoint ck ck')
  | Error e -> Alcotest.failf "rejected: %s" e);
  List.iter
    (fun (what, a, b) ->
      match Checkpoint.decode (edit line a b) with
      | Error _ -> ()
      | Ok c -> Alcotest.failf "%s accepted as %s" what (Checkpoint.encode c))
    [
      ("flag 2", "\"failed\":[0,1]", "\"failed\":[0,2]");
      ("degraded 2", "\"deg\":0", "\"deg\":2");
      ("stats arity", "\"stats\":[1,", "\"stats\":[");
      ("version 2", "\"v\":1", "\"v\":2");
      ("duplicated key", "\"aplv_updates\":3", "\"aplv_updates\":3,\"aplv_updates\":4");
      ("fractional int", "\"wal_seq\":5", "\"wal_seq\":5.0");
      ("trailing comma", "\"prime\":[1,2]", "\"prime\":[1,2,]");
    ]

let test_int_extremes () =
  List.iter
    (fun v ->
      let r =
        {
          Wal.seq = v;
          time = 1.0;
          op = Wal.Replace_backups { conn = v; backups = [ [ min_int; max_int ]; [ v ] ] };
        }
      in
      match Wal.decode (Wal.encode r) with
      | Ok r' -> Alcotest.(check bool) (string_of_int v) true (same_record r r')
      | Error e -> Alcotest.failf "%d rejected: %s" v e)
    [ min_int; max_int; min_int + 1; max_int - 1; 0; -1 ]

(* OCaml's %S wrote "\001" and "\195\169", which JSON does not have: the
   WAL accepted a record recovery then refused. *)
let awkward_strings = [ "a\001b"; "caf\xc3\xa9"; "q\"uote\\back\nnl\ttab\r\x7f"; "" ]

let test_string_round_trip () =
  List.iter
    (fun scheme ->
      let r = { Wal.seq = 1; time = 0.0; op = Wal.Queue_reprotect { conn = 2; scheme; count = 1 } } in
      (match Wal.decode (Wal.encode r) with
      | Ok r' -> Alcotest.(check bool) ("wal " ^ String.escaped scheme) true (r = r')
      | Error e -> Alcotest.failf "wal %S rejected: %s" scheme e);
      let entry =
        { Manager.Serial.rr_id = 2; rr_scheme = scheme; rr_count = 1; rr_since = 0.5;
          rr_trace = 9; rr_span = 3 }
      in
      let ck =
        {
          Checkpoint.ck_wal_seq = 1;
          ck_time = 0.0;
          ck_repr =
            {
              Manager.Serial.m_state =
                { Net_state.Serial.r_prime = [||]; r_spare = [||]; r_failed = [||];
                  r_aplv_updates = 0; r_conns = [] };
              m_stats =
                { Manager.requests = 0; accepted = 0; rejected_no_primary = 0;
                  rejected_no_backup = 0; released = 0; degraded = 0; unprotected = 0 };
              m_rstats =
                { Manager.queued = 1; drained = 0; attempts = 0; abandoned = 0;
                  unprotected_time = 0.0 };
              m_reprotect = [ entry ];
            };
        }
      in
      match Checkpoint.decode (Checkpoint.encode ck) with
      | Ok ck' ->
          Alcotest.(check bool) ("checkpoint " ^ String.escaped scheme) true
            (same_checkpoint ck ck')
      | Error e -> Alcotest.failf "checkpoint %S rejected: %s" scheme e)
    awkward_strings

let test_load_names_line () =
  let path = Filename.temp_file "drtp_wal" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let lines =
    List.init 5 (fun i ->
        Wal.encode { Wal.seq = i + 1; time = float_of_int i; op = Wal.Release { conn = i } })
  in
  let bad = List.mapi (fun i l -> if i = 2 then edit l "\"conn\":2" "\"conn\":2.5" else l) lines in
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) bad);
  match Wal.load path with
  | Ok _ -> Alcotest.fail "corrupted middle line accepted"
  | Error e ->
      let want = path ^ ":3: " in
      Alcotest.(check string) "names the file and line 3" want
        (String.sub e 0 (min (String.length e) (String.length want)))

let suite =
  [
    ( "persist.codec",
      [
        prop_wal_round_trip;
        prop_wal_oracle;
        prop_wal_printf_bytes;
        prop_wal_fuzz;
        prop_ck_round_trip;
        prop_ck_oracle;
        prop_ck_printf_bytes;
        prop_ck_fuzz;
        Alcotest.test_case "wal rejects hand-edited lines" `Quick test_wal_strict;
        Alcotest.test_case "checkpoint rejects hand-edited lines" `Quick
          test_checkpoint_strict;
        Alcotest.test_case "min_int and max_int round-trip" `Quick test_int_extremes;
        Alcotest.test_case "strings round-trip" `Quick test_string_round_trip;
        Alcotest.test_case "load names the corrupted line" `Quick test_load_names_line;
      ] );
  ]
