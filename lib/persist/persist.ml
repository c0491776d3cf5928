(* Durability driver: owns the WAL channel and the checkpoint file, and
   implements the recovery protocol.

   Protocol invariants:
   - WAL sequence numbers are monotone across the handle's lifetime;
     checkpoint truncation never resets them, so "replay records with
     seq > ck_wal_seq" is always the right filter.
   - Auto-checkpoints fire *before* a new record is appended, so a
     checkpoint only ever covers operations that have already mutated the
     manager (the WAL is write-ahead: record N is appended before op N
     runs).
   - Checkpoints are atomic (tmp + rename, see Checkpoint.save); the WAL
     is truncated only after the checkpoint is durably renamed, so a crash
     between the two leaves a longer-than-needed WAL (harmless: the seq
     filter skips the covered prefix), never a hole.
   - Replay runs inside Journal.discarding ~trace_seed:0, which saves and
     restores the ambient causal context and simulation clock: the replay
     drops its journal entries and leaves the causal RNG exactly where
     the crash found it, so post-recovery trace ids match an uncrashed
     run bit-for-bit. *)

module J = Dr_obs.Journal
open Drtp

type config = {
  wal_path : string;
  checkpoint_path : string;
  checkpoint_every : int;
  wal_sample : int;
}

let default_config ~wal_path =
  {
    wal_path;
    checkpoint_path = wal_path ^ ".ckpt";
    checkpoint_every = 0;
    wal_sample = 0;
  }

type t = {
  cfg : config;
  mutable oc : out_channel;
  mutable seq : int;
  mutable ckpt_seq : int;
  mutable since_ckpt : int;
  mutable checkpoints : int;
  mutable appended : int;
}

let create cfg =
  if cfg.checkpoint_every < 0 then
    invalid_arg "Persist.create: negative checkpoint_every";
  if cfg.wal_sample < 0 then invalid_arg "Persist.create: negative wal_sample";
  let oc = open_out cfg.wal_path in
  if Sys.file_exists cfg.checkpoint_path then Sys.remove cfg.checkpoint_path;
  { cfg; oc; seq = 0; ckpt_seq = 0; since_ckpt = 0; checkpoints = 0; appended = 0 }

let config t = t.cfg
let wal_seq t = t.seq
let checkpoint_seq t = t.ckpt_seq
let checkpoints t = t.checkpoints
let appended t = t.appended

let checkpoint t ~manager ~time =
  let repr = Manager.Serial.dump manager in
  let ck = { Checkpoint.ck_wal_seq = t.seq; ck_time = time; ck_repr = repr } in
  let bytes = Checkpoint.save t.cfg.checkpoint_path ck in
  t.ckpt_seq <- t.seq;
  t.since_ckpt <- 0;
  t.checkpoints <- t.checkpoints + 1;
  close_out t.oc;
  t.oc <- open_out t.cfg.wal_path;
  if !J.on then
    J.record
      (J.Checkpoint_written
         {
           seq = t.seq;
           conns =
             List.length repr.Manager.Serial.m_state.Net_state.Serial.r_conns;
           bytes;
         })

let append t ~manager ~time op =
  if t.cfg.checkpoint_every > 0 && t.since_ckpt >= t.cfg.checkpoint_every then
    checkpoint t ~manager ~time;
  t.seq <- t.seq + 1;
  output_string t.oc (Wal.encode { Wal.seq = t.seq; time; op });
  output_char t.oc '\n';
  flush t.oc;
  t.appended <- t.appended + 1;
  t.since_ckpt <- t.since_ckpt + 1;
  if t.cfg.wal_sample > 0 && t.appended mod t.cfg.wal_sample = 0 && !J.on then
    J.record (J.Wal_appended { seq = t.seq; op = Wal.op_name op })

let close t = close_out_noerr t.oc

(* ---- recovery ------------------------------------------------------------ *)

type recovery = {
  rv_checkpoint_seq : int;
  rv_replayed : int;
  rv_wal_seq : int;
}

let ( let* ) r f = Result.bind r f

let recover cfg ~manager =
  let* ck = Checkpoint.load cfg.checkpoint_path in
  let* ckpt_seq =
    match ck with
    | None -> Ok 0
    | Some c -> (
        match Manager.Serial.restore manager c.Checkpoint.ck_repr with
        | () -> Ok c.Checkpoint.ck_wal_seq
        | exception Invalid_argument m -> Error ("checkpoint restore: " ^ m))
  in
  let* records = Wal.load cfg.wal_path in
  let tail = List.filter (fun r -> r.Wal.seq > ckpt_seq) records in
  let* () =
    let rec check expected = function
      | [] -> Ok ()
      | r :: tl ->
          if r.Wal.seq <> expected then
            Error
              (Printf.sprintf "wal gap: expected seq %d, found %d" expected
                 r.Wal.seq)
          else check (expected + 1) tl
    in
    check (ckpt_seq + 1) tail
  in
  let* () =
    match
      J.discarding ~trace_seed:0 (fun () -> List.iter (Wal.replay manager) tail)
    with
    | () -> Ok ()
    | exception e -> Error ("wal replay: " ^ Printexc.to_string e)
  in
  let replayed = List.length tail in
  let rv_wal_seq =
    match List.rev tail with [] -> ckpt_seq | last :: _ -> last.Wal.seq
  in
  if !J.on then
    J.record
      (J.Recovery_replayed
         {
           checkpoint_seq = ckpt_seq;
           replayed;
           conns = Net_state.active_count (Manager.state manager);
         });
  Ok { rv_checkpoint_seq = ckpt_seq; rv_replayed = replayed; rv_wal_seq }

let resume cfg rv =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 cfg.wal_path
  in
  {
    cfg;
    oc;
    seq = rv.rv_wal_seq;
    ckpt_seq = rv.rv_checkpoint_seq;
    since_ckpt = rv.rv_replayed;
    checkpoints = 0;
    appended = 0;
  }
