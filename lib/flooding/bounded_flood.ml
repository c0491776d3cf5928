module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Pqueue = Dr_pqueue.Pqueue
module Net_state = Drtp.Net_state
module Resources = Drtp.Resources
module Routing = Drtp.Routing
module J = Dr_obs.Journal
module C = Dr_obs.Journal.Causal
module Faults = Dr_faults.Faults

(* Truncation is a silent quality degradation: the flood stopped expanding
   at [cdp_cap], so the candidate set — and with it BF's route quality — is
   incomplete.  Drivers that want to surface this to the user (the CLI
   prints a one-time warning) install a hook here. *)
let on_truncated : (src:int -> dst:int -> messages:int -> unit) ref =
  ref (fun ~src:_ ~dst:_ ~messages:_ -> ())

type config = {
  rho : float;
  beta0 : int;
  alpha : float;
  beta1 : int;
  crt_cap : int;
  cdp_cap : int;
  allow_unprotected : bool;
  backup_count : int;
}

let default_config =
  {
    rho = 1.0;
    beta0 = 2;
    alpha = 1.0;
    beta1 = 2;
    crt_cap = 64;
    cdp_cap = 20_000;
    allow_unprotected = true;
    backup_count = 1;
  }

type candidate = { path : Path.t; primary_ok : bool; hops : int }

type flood_result = {
  candidates : candidate list;
  messages : int;
  truncated : bool;
}

(* A CDP as it arrives at [node]: [visited] holds the node list in travel
   order, [node] included last. *)
type cdp = { node : int; hc : int; primary_flag : bool; visited : int list }

let link_alive state l =
  not (Net_state.edge_failed state ~edge:(Graph.edge_of_link l))

let discover ?faults cfg state ~hop_matrix ~src ~dst ~bw =
  if cfg.rho < 1.0 || cfg.alpha < 1.0 || cfg.beta0 < 0 || cfg.beta1 < 0 then
    invalid_arg "Bounded_flood.discover: bad config";
  if src = dst then invalid_arg "Bounded_flood.discover: src = dst";
  let graph = Net_state.graph state in
  let resources = Net_state.resources state in
  let d_min = hop_matrix.(src).(dst) in
  (* Attach the flood to whatever span is ambient (the admission trace's
     [route] child when the manager drives us); a null parent makes this
     free-standing floods a no-op. *)
  let sp_flood =
    if !J.on then C.child ~parent:(C.current ()) "flood" else C.null
  in
  if d_min = Dr_topo.Shortest_path.unreachable then begin
    if !J.on then C.close sp_flood ~dur:0.0;
    { candidates = []; messages = 0; truncated = false }
  end
  else begin
    let hc_limit =
      int_of_float (Float.round (cfg.rho *. float_of_int d_min)) + cfg.beta0
    in
    (* Pending Connection Table: one flood = one connection, so a plain
       per-node [min_dist] array stands in for each node's PCT entry. *)
    let min_dist = Array.make (Graph.node_count graph) (-1) in
    let queue = Pqueue.create () in
    let messages = ref 0 in
    let truncated = ref false in
    let candidates = ref [] in
    let candidate_count = ref 0 in
    (* Forward one CDP copy over [link]; returns the updated CDP at the far
       end if all per-neighbour tests pass. *)
    let try_forward (m : cdp) link =
      let k = Graph.link_dst graph link in
      let distance_ok = m.hc + hop_matrix.(k).(dst) + 1 <= hc_limit in
      let loop_free = not (List.mem k m.visited) in
      let bandwidth_ok =
        link_alive state link && Resources.backup_feasible resources ~link ~bw
      in
      if distance_ok && loop_free && bandwidth_ok then begin
        let primary_flag =
          m.primary_flag && Resources.primary_feasible resources ~link ~bw
        in
        if !J.on then J.record (J.Cdp_sent { node = k; hc = m.hc + 1 });
        Some { node = k; hc = m.hc + 1; primary_flag; visited = m.visited @ [ k ] }
      end
      else begin
        if !J.on then begin
          let reason =
            if not distance_ok then "ttl"
            else if not loop_free then "loop"
            else "bandwidth"
          in
          J.record (J.Cdp_dropped { node = k; reason })
        end;
        None
      end
    in
    let enqueue (m : cdp) = Pqueue.add queue ~key:(float_of_int m.hc) m in
    let expand (m : cdp) =
      Array.iter
        (fun link ->
          if !messages < cfg.cdp_cap then begin
            match try_forward m link with
            | None -> ()
            | Some m' -> (
                incr messages;
                (* The copy was transmitted (it costs a message either
                   way); the fault plan decides whether it arrives. *)
                match faults with
                | Some f when not (Faults.deliver f Faults.Cdp) ->
                    if !J.on then
                      J.record (J.Message_dropped { cls = "cdp"; id = m'.node })
                | _ -> enqueue m')
          end
          else truncated := true)
        (Graph.out_links graph m.node)
    in
    (* The source composes the CDP and tests each neighbour (§4.2). *)
    expand { node = src; hc = 0; primary_flag = true; visited = [ src ] };
    let rec pump () =
      match Pqueue.pop queue with
      | None -> ()
      | Some (_, m) ->
          if m.node = dst then begin
            (* §4.4: fill the Candidate Route Table. *)
            if !candidate_count < cfg.crt_cap then begin
              incr candidate_count;
              if !J.on then
                J.record (J.Cdp_candidate { hops = m.hc; primary_ok = m.primary_flag });
              candidates :=
                {
                  path = Path.of_nodes graph m.visited;
                  primary_ok = m.primary_flag;
                  hops = m.hc;
                }
                :: !candidates
            end
          end
          else begin
            (* §4.3: valid-detour test against the PCT, then forward. *)
            let detour_ok =
              min_dist.(m.node) < 0
              || float_of_int m.hc
                 <= (cfg.alpha *. float_of_int min_dist.(m.node))
                    +. float_of_int cfg.beta1
            in
            if min_dist.(m.node) < 0 || m.hc < min_dist.(m.node) then
              min_dist.(m.node) <- m.hc;
            if detour_ok then expand m
          end;
          pump ()
    in
    pump ();
    if !truncated then begin
      if !J.on then
        J.record (J.Flood_truncated { src; dst; messages = !messages });
      !on_truncated ~src ~dst ~messages:!messages
    end;
    if !J.on then begin
      C.close sp_flood ~dur:0.0;
      J.record
        (J.Flood_done
           {
             src;
             dst;
             messages = !messages;
             candidates = !candidate_count;
             truncated = !truncated;
           })
    end;
    { candidates = List.rev !candidates; messages = !messages; truncated = !truncated }
  end

let occurrences l links =
  List.fold_left (fun n x -> if x = l then n + 1 else n) 0 links

let backup_feasible_after_primary state ~bw ~primary ~earlier (cand : candidate) =
  let resources = Net_state.resources state in
  let primary_links = Path.links primary in
  List.for_all
    (fun l ->
      let own =
        occurrences l primary_links
        + List.fold_left (fun n b -> n + occurrences l (Path.links b)) 0 earlier
      in
      Resources.available_for_backup resources l >= bw * (1 + own))
    (Path.links cand.path)

let select ?(with_backup = true) ?(allow_unprotected = true) ?(backup_count = 1)
    state ~bw candidates =
  (* Primary: shortest candidate whose flag stayed 1 (ties: arrival order,
     which the flood already sorts by hop count). *)
  let primary_cands = List.filter (fun c -> c.primary_ok) candidates in
  let best_primary =
    List.fold_left
      (fun best c ->
        match best with
        | None -> Some c
        | Some b -> if c.hops < b.hops then Some c else best)
      None primary_cands
  in
  match best_primary with
  | None -> Error Routing.No_primary
  | Some prim when not with_backup -> Ok { Routing.primary = prim.path; backups = [] }
  | Some prim ->
      let primary = prim.path in
      (* Backups: repeatedly pick the remaining candidate with minimum
         (edge overlap against the primary and already-chosen backups,
         hops); arrival order is the final tie.  The chosen primary
         candidate is excluded by identity. *)
      let remaining = ref (List.filter (fun c -> c != prim) candidates) in
      let chosen = ref [] in
      let pick_one () =
        let feasible =
          List.filter
            (backup_feasible_after_primary state ~bw ~primary ~earlier:!chosen)
            !remaining
        in
        let overlap c =
          Path.edge_overlap c.path primary
          + List.fold_left (fun n b -> n + Path.edge_overlap c.path b) 0 !chosen
        in
        let best =
          List.fold_left
            (fun best c ->
              let ov = overlap c and hops = c.hops in
              match best with
              | None -> Some (ov, hops, c)
              | Some (bov, bhops, _) ->
                  if ov < bov || (ov = bov && hops < bhops) then Some (ov, hops, c)
                  else best)
            None feasible
        in
        match best with
        | None -> false
        | Some (_, _, c) ->
            chosen := !chosen @ [ c.path ];
            remaining := List.filter (fun c' -> c' != c) !remaining;
            true
      in
      let rec take k = if k > 0 && pick_one () then take (k - 1) in
      take backup_count;
      (match !chosen with
      | [] ->
          (* A CRT with a single usable route: the connection can still be
             established, just without dependability.  The paper never says
             such requests are refused, and refusing them would charge BF a
             large acceptance penalty the LSR schemes do not pay. *)
          if allow_unprotected then Ok { Routing.primary; backups = [] }
          else Error Routing.No_backup
      | backups -> Ok { Routing.primary; backups })

type stats = {
  mutable floods : int;
  mutable total_messages : int;
  mutable truncated_floods : int;
}

let fresh_stats () = { floods = 0; total_messages = 0; truncated_floods = 0 }

let route_fn ?(config = default_config) ?stats ?(with_backup = true) ?faults
    ~hop_matrix () : Routing.route_fn =
 fun state ~src ~dst ~bw ->
  let result = discover ?faults config state ~hop_matrix ~src ~dst ~bw in
  (match stats with
  | None -> ()
  | Some s ->
      s.floods <- s.floods + 1;
      s.total_messages <- s.total_messages + result.messages;
      if result.truncated then s.truncated_floods <- s.truncated_floods + 1);
  select ~with_backup ~allow_unprotected:config.allow_unprotected
    ~backup_count:config.backup_count state ~bw result.candidates
