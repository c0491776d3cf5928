module J = Dr_obs.Journal
module C = Dr_obs.Journal.Causal

type stats = {
  mutable requests : int;
  mutable accepted : int;
  mutable rejected_no_primary : int;
  mutable rejected_no_backup : int;
  mutable released : int;
  mutable degraded : int;
  mutable unprotected : int;
}

(* Reprotection queue: connections a failure left without any backup wait
   here for releases/repairs to free resources, in FIFO order. *)
type reprotect_entry = {
  re_id : int;
  re_scheme : Routing.scheme;
  re_count : int;
  re_since : float;
  re_span : C.span;
      (* open [reprotect-dwell] span, closed when the entry settles with
         the exact unprotected dwell time *)
}

type reprotect_stats = {
  mutable queued : int;
  mutable drained : int;
  mutable attempts : int;
  mutable abandoned : int;
  mutable unprotected_time : float;
}

type reprotect_router =
  Routing.scheme ->
  Net_state.t ->
  primary:Dr_topo.Path.t ->
  bw:int ->
  existing:Dr_topo.Path.t list ->
  count:int ->
  Dr_topo.Path.t list

let default_reprotect_router scheme state ~primary ~bw ~existing ~count =
  Routing.additional_backups scheme state ~primary ~bw ~existing ~count

let chain_reprotect_router scheme state ~primary ~bw ~existing ~count =
  Routing.additional_chain_members scheme state ~primary ~bw ~existing ~count
  |> List.map (fun m -> m.Routing.cm_path)

type t = {
  state : Net_state.t;
  route : Routing.route_fn;
  stats : stats;
  mutable reprotect : reprotect_entry list;
  mutable reprotect_router : reprotect_router;
  rstats : reprotect_stats;
}

let make ~state ~route =
  {
    state;
    route;
    stats =
      {
        requests = 0;
        accepted = 0;
        rejected_no_primary = 0;
        rejected_no_backup = 0;
        released = 0;
        degraded = 0;
        unprotected = 0;
      };
    reprotect = [];
    reprotect_router = default_reprotect_router;
    rstats =
      {
        queued = 0;
        drained = 0;
        attempts = 0;
        abandoned = 0;
        unprotected_time = 0.0;
      };
  }

let create ~graph ~capacity ~spare_policy ~route =
  make ~state:(Net_state.create ~graph ~capacity ~spare_policy) ~route

let create_srlg ~srlg ~graph ~capacity ~spare_policy ~route =
  make ~state:(Net_state.create_srlg ~srlg ~graph ~capacity ~spare_policy) ~route

let set_reprotect_router t f = t.reprotect_router <- f

let state t = t.state
let stats t = t.stats
let route_fn t = t.route
let reprotect_stats t = t.rstats
let reprotect_pending t = List.length t.reprotect

(* ---- snapshot / rollback -------------------------------------------------
   A manager snapshot is a {!Net_state.Snapshot} plus the manager's own
   mutable truth: admission statistics, the reprotection queue (entries are
   immutable records, so the list is shared) and its counters.  Rollback
   restores all of it in place, so a speculative admission leaves no trace
   in the stats a later verdict is derived from. *)

type snapshot = {
  mutable sn_state : Net_state.Snapshot.t;
  sn_stats : stats;
  mutable sn_reprotect : reprotect_entry list;
  sn_rstats : reprotect_stats;
}

let copy_stats_into (dst : stats) (src : stats) =
  dst.requests <- src.requests;
  dst.accepted <- src.accepted;
  dst.rejected_no_primary <- src.rejected_no_primary;
  dst.rejected_no_backup <- src.rejected_no_backup;
  dst.released <- src.released;
  dst.degraded <- src.degraded;
  dst.unprotected <- src.unprotected

let copy_rstats_into (dst : reprotect_stats) (src : reprotect_stats) =
  dst.queued <- src.queued;
  dst.drained <- src.drained;
  dst.attempts <- src.attempts;
  dst.abandoned <- src.abandoned;
  dst.unprotected_time <- src.unprotected_time

let snapshot ?into t =
  match into with
  | Some s ->
      (* [capture ~into] hands back a fresh snapshot on a shape mismatch
         (buffer from another topology) — keep whichever one holds the
         captured data. *)
      s.sn_state <- Net_state.Snapshot.capture ~into:s.sn_state t.state;
      copy_stats_into s.sn_stats t.stats;
      s.sn_reprotect <- t.reprotect;
      copy_rstats_into s.sn_rstats t.rstats;
      s
  | None ->
      {
        sn_state = Net_state.Snapshot.capture t.state;
        sn_stats = { t.stats with requests = t.stats.requests };
        sn_reprotect = t.reprotect;
        sn_rstats = { t.rstats with queued = t.rstats.queued };
      }

let rollback t s =
  Net_state.Snapshot.rollback t.state s.sn_state;
  copy_stats_into t.stats s.sn_stats;
  t.reprotect <- s.sn_reprotect;
  copy_rstats_into t.rstats s.sn_rstats

(* ---- serialization (checkpoint) ------------------------------------------
   The manager's mutable truth beyond the {!Net_state}: admission stats,
   reprotection counters, and the reprotection queue.  Queue entries carry
   their open dwell span's (trace, span) ids so a recovered manager closes
   the {e same} spans an uncrashed run would — keeping post-recovery
   journal bytes identical. *)

module Serial = struct
  type reprotect_repr = {
    rr_id : int;
    rr_scheme : string;
    rr_count : int;
    rr_since : float;
    rr_trace : int;
    rr_span : int;
  }

  type repr = {
    m_state : Net_state.Serial.repr;
    m_stats : stats;
    m_rstats : reprotect_stats;
    m_reprotect : reprotect_repr list;
  }

  let dump t =
    {
      m_state = Net_state.Serial.dump t.state;
      m_stats = { t.stats with requests = t.stats.requests };
      m_rstats = { t.rstats with queued = t.rstats.queued };
      m_reprotect =
        List.map
          (fun e ->
            {
              rr_id = e.re_id;
              rr_scheme = Routing.scheme_name e.re_scheme;
              rr_count = e.re_count;
              rr_since = e.re_since;
              rr_trace = C.trace_id e.re_span;
              rr_span = C.span_id e.re_span;
            })
          t.reprotect;
    }

  let restore t (r : repr) =
    Net_state.Serial.restore t.state r.m_state;
    copy_stats_into t.stats r.m_stats;
    copy_rstats_into t.rstats r.m_rstats;
    t.reprotect <-
      List.map
        (fun e ->
          let scheme =
            match Routing.scheme_of_string e.rr_scheme with
            | Ok s -> s
            | Error msg -> invalid_arg ("Manager.Serial.restore: " ^ msg)
          in
          {
            re_id = e.rr_id;
            re_scheme = scheme;
            re_count = e.rr_count;
            re_since = e.rr_since;
            re_span = C.of_ids ~trace:e.rr_trace ~span:e.rr_span;
          })
        r.m_reprotect
end

let queue_reprotect t ~id ~scheme ?(backup_count = 1) ~now () =
  match Net_state.find t.state id with
  | None -> ()
  | Some conn ->
      if conn.backups = [] && not (List.exists (fun e -> e.re_id = id) t.reprotect)
      then begin
        let span =
          if !J.on then C.root ~conn:id ~t0:now "reprotect-dwell" else C.null
        in
        t.reprotect <-
          t.reprotect
          @ [
              {
                re_id = id;
                re_scheme = scheme;
                re_count = backup_count;
                re_since = now;
                re_span = span;
              };
            ];
        t.rstats.queued <- t.rstats.queued + 1;
        if !J.on then
          J.record
            (J.Reprotect_queued { conn = id; pending = List.length t.reprotect })
      end

let drain_reprotect t ~now =
  let drained = ref 0 in
  let settle e =
    t.rstats.unprotected_time <-
      t.rstats.unprotected_time +. (now -. e.re_since);
    if !J.on then C.close e.re_span ~dur:(now -. e.re_since)
  in
  let keep =
    List.filter
      (fun e ->
        match Net_state.find t.state e.re_id with
        | None ->
            (* Torn down (or lost) while waiting: stop tracking it. *)
            t.rstats.abandoned <- t.rstats.abandoned + 1;
            settle e;
            false
        | Some conn ->
            if conn.backups <> [] then begin
              (* Re-protected by some other path (e.g. a later step 4). *)
              incr drained;
              t.rstats.drained <- t.rstats.drained + 1;
              settle e;
              false
            end
            else begin
              t.rstats.attempts <- t.rstats.attempts + 1;
              match
                t.reprotect_router e.re_scheme t.state ~primary:conn.primary
                  ~bw:conn.bw ~existing:[] ~count:e.re_count
              with
              | [] -> true (* still no resources; keep waiting *)
              | fresh -> (
                  match
                    Net_state.replace_backups_drop t.state ~id:e.re_id
                      ~backups:fresh
                  with
                  | [] -> true (* none could be hosted after all *)
                  | kept ->
                      incr drained;
                      t.rstats.drained <- t.rstats.drained + 1;
                      settle e;
                      if !J.on then
                        J.record
                          (J.Reprotected
                             { conn = e.re_id; fresh = List.length kept });
                      false)
            end)
      t.reprotect
  in
  t.reprotect <- keep;
  !drained

let flush_reprotect t ~now =
  List.iter
    (fun e ->
      t.rstats.abandoned <- t.rstats.abandoned + 1;
      t.rstats.unprotected_time <-
        t.rstats.unprotected_time +. (now -. e.re_since);
      if !J.on then C.close e.re_span ~dur:(now -. e.re_since))
    t.reprotect;
  t.reprotect <- []

let apply t (item : Dr_sim.Scenario.item) =
  (* The scenario item's time is the simulation clock for every journal
     event the routing/admission machinery emits below. *)
  if !J.on then J.set_now item.time;
  match item.event with
  | Dr_sim.Scenario.Request { conn; src; dst; bw; duration = _ } -> (
      t.stats.requests <- t.stats.requests + 1;
      if !J.on then J.record (J.Request { conn; src; dst; bw });
      (* Admission trace: a root span with a [route] child pushed as the
         ambient current span, so the flooding layer can attach its own
         span without a signature change.  Admission is instantaneous in
         simulation time; the spans carry structure, not duration. *)
      let sp_adm = if !J.on then C.root ~conn "admission" else C.null in
      let sp_route =
        if !J.on then C.child ~parent:sp_adm ~conn "route" else C.null
      in
      let routed =
        if !J.on then
          C.with_current sp_route (fun () -> t.route t.state ~src ~dst ~bw)
        else t.route t.state ~src ~dst ~bw
      in
      if !J.on then C.close sp_route ~dur:0.0;
      match routed with
      | Error Routing.No_primary ->
          t.stats.rejected_no_primary <- t.stats.rejected_no_primary + 1;
          if !J.on then begin
            C.close sp_adm ~dur:0.0;
            J.record
              (J.Rejected { conn; reason = Routing.reject_reason_name Routing.No_primary })
          end
      | Error Routing.No_backup ->
          t.stats.rejected_no_backup <- t.stats.rejected_no_backup + 1;
          if !J.on then begin
            C.close sp_adm ~dur:0.0;
            J.record
              (J.Rejected { conn; reason = Routing.reject_reason_name Routing.No_backup })
          end
      | Ok { Routing.primary; backups } ->
          let c = Net_state.admit t.state ~id:conn ~bw ~primary ~backups in
          t.stats.accepted <- t.stats.accepted + 1;
          if backups = [] then t.stats.unprotected <- t.stats.unprotected + 1;
          if c.degraded then t.stats.degraded <- t.stats.degraded + 1;
          if !J.on then begin
            C.close sp_adm ~dur:0.0;
            J.record
              (J.Admitted
                 { conn; backups = List.length backups; degraded = c.degraded })
          end)
  | Dr_sim.Scenario.Release { conn } -> (
      (* Rejected connections have no state to tear down. *)
      match Net_state.find t.state conn with
      | None -> ()
      | Some _ ->
          Net_state.release t.state ~id:conn;
          t.stats.released <- t.stats.released + 1;
          if !J.on then J.record (J.Teardown { conn });
          (* A release frees resources: give waiting unprotected
             connections another chance at a backup. *)
          if t.reprotect <> [] then ignore (drain_reprotect t ~now:item.time))

let run t scenario = Dr_sim.Scenario.iter scenario (fun item -> apply t item)

let acceptance_ratio t =
  if t.stats.requests = 0 then 1.0
  else float_of_int t.stats.accepted /. float_of_int t.stats.requests
