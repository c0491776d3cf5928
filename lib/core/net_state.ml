module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Srlg = Dr_resilience.Srlg
module J = Dr_obs.Journal

type spare_policy = Multiplexed | Dedicated

type conn = {
  id : int;
  src : int;
  dst : int;
  bw : int;
  mutable primary : Path.t;
  mutable backups : Path.t list;
  mutable degraded : bool;
}

type t = {
  graph : Graph.t;
  resources : Resources.t;
  aplv : Aplv.t array; (* per directed link *)
  aplv_norm : int array;
      (* per directed link: cached [‖APLV_i‖₁], kept in lock-step with
         [aplv] by {!register_backup}/{!unregister_backup} — P-LSR's cost
         term as a flat array read instead of a record chase *)
  conflict_counts : int array array;
      (* per directed link: dense mirror of the APLV counts, indexed by
         failure edge ([conflict_counts.(l).(j) = a_{l,j}]).  D-LSR's
         relaxation reads it as [a_{l,j} > 0] in O(1) per edge instead of
         a hashtable probe.  Maintained with O(|LSET|) deltas per link
         visit, i.e. O(|LSET|·|route|) per admit/release. *)
  spare_weight : (int, int) Hashtbl.t array;
      (* per directed link: SRLG group -> total backup bandwidth that the
         group's failure would activate here.  Under the singleton model
         group ids coincide with edge ids, so this is the paper's
         per-failure-edge table exactly. *)
  srlg : Srlg.t;
  backup_total : int array; (* per directed link: sum of backup bandwidths *)
  conns : (int, conn) Hashtbl.t;
  edge_primaries : (int, conn) Hashtbl.t array; (* per edge: id -> conn *)
  failed : bool array; (* per edge *)
  spare_policy : spare_policy;
  mutable aplv_updates : int;
}

let make ~srlg ~graph ~capacity ~spare_policy =
  let links = Graph.link_count graph in
  let edges = Graph.edge_count graph in
  let srlg =
    match srlg with
    | None -> Srlg.singletons ~edge_count:edges
    | Some s ->
        if Srlg.edge_count s <> edges then
          invalid_arg "Net_state.create: SRLG model edge count mismatch";
        s
  in
  {
    graph;
    resources = Resources.create ~link_count:links ~capacity;
    aplv = Array.init links (fun _ -> Aplv.create ());
    aplv_norm = Array.make links 0;
    conflict_counts = Array.init links (fun _ -> Array.make edges 0);
    spare_weight = Array.init links (fun _ -> Hashtbl.create 8);
    backup_total = Array.make links 0;
    conns = Hashtbl.create 256;
    srlg;
    edge_primaries = Array.init edges (fun _ -> Hashtbl.create 8);
    failed = Array.make edges false;
    spare_policy;
    aplv_updates = 0;
  }

let create ~graph ~capacity ~spare_policy =
  make ~srlg:None ~graph ~capacity ~spare_policy

let create_srlg ~srlg ~graph ~capacity ~spare_policy =
  make ~srlg:(Some srlg) ~graph ~capacity ~spare_policy

let graph t = t.graph
let srlg t = t.srlg
let resources t = t.resources
let spare_policy t = t.spare_policy
let aplv t l = t.aplv.(l)
let aplv_updates t = t.aplv_updates
let aplv_norm t l = t.aplv_norm.(l)

let conflict_count t ~link ~edge_lset =
  let counts = t.conflict_counts.(link) in
  List.fold_left (fun acc j -> if counts.(j) > 0 then acc + 1 else acc) 0 edge_lset

let conflict_count_arr t ~link ~edges ~n =
  let counts = t.conflict_counts.(link) in
  let acc = ref 0 in
  for k = 0 to n - 1 do
    if counts.(Array.unsafe_get edges k) > 0 then incr acc
  done;
  !acc

let conflict_vector t l =
  Conflict_vector.of_aplv t.aplv.(l) ~domains:(Graph.edge_count t.graph)

let edge_lset_of_path p = Path.Link_set.elements (Path.edge_set p)

let spare_required t ~link =
  match t.spare_policy with
  | Dedicated -> t.backup_total.(link)
  | Multiplexed -> Hashtbl.fold (fun _ w acc -> max w acc) t.spare_weight.(link) 0

let spare_deficit t ~link =
  max 0 (spare_required t ~link - Resources.spare_bw t.resources link)

let total_spare_deficit t =
  let total = ref 0 in
  for l = 0 to Graph.link_count t.graph - 1 do
    total := !total + spare_deficit t ~link:l
  done;
  !total

let backup_count_on_link t ~link = Aplv.backup_count t.aplv.(link)

(* Journal any movement of [link]'s spare pool [SC_i] made by [f] — the
   quantity the multiplexing rule (§5) sizes and the flight recorder's
   spare-change event reports before/after. *)
let journal_spare t link f =
  if !J.on then begin
    let before = Resources.spare_bw t.resources link in
    let r = f () in
    let after = Resources.spare_bw t.resources link in
    if after <> before then J.record (J.Spare_change { link; before; after });
    r
  end
  else f ()

(* Try to lift any spare deficit on [link] out of the free pool. *)
let reclaim_spare t link =
  journal_spare t link @@ fun () ->
  let d = spare_deficit t ~link in
  if d > 0 then ignore (Resources.grow_spare t.resources ~link ~want:d)

let adjust_spare_after_register t link =
  journal_spare t link @@ fun () ->
  let req = spare_required t ~link in
  let have = Resources.spare_bw t.resources link in
  if req > have then
    let granted = Resources.grow_spare t.resources ~link ~want:(req - have) in
    granted = req - have
  else true

let adjust_spare_after_unregister t link =
  journal_spare t link @@ fun () ->
  let req = spare_required t ~link in
  let have = Resources.spare_bw t.resources link in
  if have > req then Resources.shrink_spare t.resources ~link ~amount:(have - req)

(* Register one backup on every link of its route, carrying the edge-LSET of
   its primary (the backup-path register packet of §2.2).  The spare table
   is keyed by the primary's {e failure domains} — the SRLG groups its
   edges belong to (one weight unit per group per backup, however many of
   the group's edges the primary crosses) — so {!spare_required} sizes the
   pool for the worst single {e group} failure.  Under the singleton model
   the group list is the edge LSET itself and the bookkeeping is
   bit-identical to the per-edge original.  Returns false if some link
   could not reserve the full spare requirement. *)
let register_backup t ~bw ~primary_edges ~backup_path =
  let groups = Srlg.groups_of_edges t.srlg primary_edges in
  let fully_reserved = ref true in
  List.iter
    (fun l ->
      Aplv.register t.aplv.(l) ~edge_lset:primary_edges;
      t.aplv_updates <- t.aplv_updates + 1;
      let counts = t.conflict_counts.(l) in
      List.iter
        (fun e ->
          counts.(e) <- counts.(e) + 1;
          t.aplv_norm.(l) <- t.aplv_norm.(l) + 1)
        primary_edges;
      List.iter
        (fun g ->
          let w = Option.value ~default:0 (Hashtbl.find_opt t.spare_weight.(l) g) in
          Hashtbl.replace t.spare_weight.(l) g (w + bw))
        groups;
      t.backup_total.(l) <- t.backup_total.(l) + bw;
      if not (adjust_spare_after_register t l) then fully_reserved := false)
    (Path.links backup_path);
  !fully_reserved

let unregister_backup t ~bw ~primary_edges ~backup_path =
  let groups = Srlg.groups_of_edges t.srlg primary_edges in
  List.iter
    (fun l ->
      Aplv.unregister t.aplv.(l) ~edge_lset:primary_edges;
      t.aplv_updates <- t.aplv_updates + 1;
      let counts = t.conflict_counts.(l) in
      List.iter
        (fun e ->
          counts.(e) <- counts.(e) - 1;
          t.aplv_norm.(l) <- t.aplv_norm.(l) - 1)
        primary_edges;
      List.iter
        (fun g ->
          match Hashtbl.find_opt t.spare_weight.(l) g with
          | None -> invalid_arg "Net_state: spare-weight underflow"
          | Some w ->
              if w < bw then invalid_arg "Net_state: spare-weight underflow"
              else if w = bw then Hashtbl.remove t.spare_weight.(l) g
              else Hashtbl.replace t.spare_weight.(l) g (w - bw))
        groups;
      t.backup_total.(l) <- t.backup_total.(l) - bw;
      adjust_spare_after_unregister t l)
    (Path.links backup_path)

(* How many extra units link [l] must still be able to host for [backup],
   given reservations the same connection makes on that link with its
   primary and with backups registered before this one. *)
let occurrences l links =
  List.fold_left (fun n x -> if x = l then n + 1 else n) 0 links

let backup_admissible t ~bw ~primary ~earlier_backups backup =
  let primary_links = Path.links primary in
  List.for_all
    (fun l ->
      let own_primary = occurrences l primary_links in
      let own_backups =
        List.fold_left
          (fun n b -> n + occurrences l (Path.links b))
          0 earlier_backups
      in
      Resources.available_for_backup t.resources l
      >= bw * (1 + own_primary + own_backups))
    (Path.links backup)

let admit t ~id ~bw ~primary ~backups =
  if Hashtbl.mem t.conns id then invalid_arg "Net_state.admit: connection id in use";
  if bw <= 0 then invalid_arg "Net_state.admit: bandwidth must be positive";
  let primary_links = Path.links primary in
  List.iter
    (fun l ->
      if not (Resources.primary_feasible t.resources ~link:l ~bw) then
        invalid_arg "Net_state.admit: primary link lacks free bandwidth")
    primary_links;
  let rec check_backups earlier = function
    | [] -> ()
    | b :: rest ->
        if not (backup_admissible t ~bw ~primary ~earlier_backups:earlier b) then
          invalid_arg "Net_state.admit: backup link cannot host backup";
        check_backups (b :: earlier) rest
  in
  check_backups [] backups;
  List.iter (fun l -> Resources.reserve_primary t.resources ~link:l ~bw) primary_links;
  let conn =
    { id; src = Path.src primary; dst = Path.dst primary; bw; primary; backups; degraded = false }
  in
  let primary_edges = edge_lset_of_path primary in
  List.iter
    (fun b ->
      if not (register_backup t ~bw ~primary_edges ~backup_path:b) then
        conn.degraded <- true)
    backups;
  List.iter (fun e -> Hashtbl.replace t.edge_primaries.(e) id conn) primary_edges;
  Hashtbl.add t.conns id conn;
  conn

let find t id = Hashtbl.find_opt t.conns id
let active_count t = Hashtbl.length t.conns
let iter_conns t f = Hashtbl.iter (fun _ c -> f c) t.conns

let primaries_crossing_edge t e =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.edge_primaries.(e) []
  |> List.sort (fun a b -> compare a.id b.id)

let primaries_crossing_edges t ~edges =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.iter (fun id c -> Hashtbl.replace seen id c) t.edge_primaries.(e))
    edges;
  Hashtbl.fold (fun _ c acc -> c :: acc) seen []
  |> List.sort (fun a b -> compare a.id b.id)

let primaries_crossing_group t ~group =
  primaries_crossing_edges t ~edges:(Srlg.edges_of_group t.srlg group)

let remove_primary_index t conn =
  List.iter
    (fun e -> Hashtbl.remove t.edge_primaries.(e) conn.id)
    (edge_lset_of_path conn.primary)

let touched_links conn =
  Path.links conn.primary @ List.concat_map Path.links conn.backups

let unregister_all_backups t conn =
  let primary_edges = edge_lset_of_path conn.primary in
  List.iter
    (fun b -> unregister_backup t ~bw:conn.bw ~primary_edges ~backup_path:b)
    conn.backups

let release t ~id =
  match Hashtbl.find_opt t.conns id with
  | None -> invalid_arg "Net_state.release: unknown connection"
  | Some conn ->
      let links = touched_links conn in
      List.iter
        (fun l -> Resources.release_primary t.resources ~link:l ~bw:conn.bw)
        (Path.links conn.primary);
      unregister_all_backups t conn;
      remove_primary_index t conn;
      Hashtbl.remove t.conns id;
      (* §5: freed resources flow to spare pools still in deficit. *)
      List.iter (fun l -> reclaim_spare t l) links

let drop t ~id =
  (* Same resource motions as a release; kept separate so callers (and
     statistics) distinguish voluntary teardown from failure-induced loss. *)
  release t ~id

let nth_backup conn index =
  match List.nth_opt conn.backups index with
  | Some b -> b
  | None -> invalid_arg "Net_state: backup index out of range"

let activation_feasible t ~id ?(index = 0) () =
  match Hashtbl.find_opt t.conns id with
  | None -> false
  | Some conn -> (
      match List.nth_opt conn.backups index with
      | None -> false
      | Some b ->
          List.for_all
            (fun l -> Resources.backup_feasible t.resources ~link:l ~bw:conn.bw)
            (Path.links b))

let promote_backup t ~id ?(index = 0) () =
  match Hashtbl.find_opt t.conns id with
  | None -> invalid_arg "Net_state.promote_backup: unknown connection"
  | Some conn ->
      let chosen = nth_backup conn index in
      if not (activation_feasible t ~id ~index ()) then
        invalid_arg "Net_state.promote_backup: activation infeasible";
      List.iter
        (fun l -> Resources.release_primary t.resources ~link:l ~bw:conn.bw)
        (Path.links conn.primary);
      unregister_all_backups t conn;
      (* The activated channel's bandwidth comes from free first, then from
         the shared spare pool — stealing spare is exactly the conflict the
         routing schemes try to avoid. *)
      List.iter
        (fun l ->
          journal_spare t l @@ fun () ->
          let free = Resources.free t.resources l in
          if free >= conn.bw then Resources.reserve_primary t.resources ~link:l ~bw:conn.bw
          else begin
            let from_spare = conn.bw - free in
            Resources.spare_to_prime t.resources ~link:l ~bw:from_spare;
            if free > 0 then Resources.reserve_primary t.resources ~link:l ~bw:free
          end)
        (Path.links chosen);
      remove_primary_index t conn;
      let remaining = List.filteri (fun i _ -> i <> index) conn.backups in
      conn.primary <- chosen;
      conn.backups <- [];
      List.iter
        (fun e -> Hashtbl.replace t.edge_primaries.(e) id conn)
        (edge_lset_of_path chosen);
      (* Re-register the surviving backups against the new primary's LSET;
         ones the network can no longer host are dropped from the list (the
         recovery driver's step 4 may find replacements). *)
      let primary_edges = edge_lset_of_path chosen in
      List.iter
        (fun b ->
          if
            backup_admissible t ~bw:conn.bw ~primary:chosen
              ~earlier_backups:conn.backups b
          then begin
            if not (register_backup t ~bw:conn.bw ~primary_edges ~backup_path:b)
            then conn.degraded <- true;
            conn.backups <- conn.backups @ [ b ]
          end)
        remaining

let reroute_primary t ~id ~primary =
  match Hashtbl.find_opt t.conns id with
  | None -> invalid_arg "Net_state.reroute_primary: unknown connection"
  | Some conn ->
      if Path.src primary <> conn.src || Path.dst primary <> conn.dst then
        invalid_arg "Net_state.reroute_primary: endpoint mismatch";
      let old_links = Path.links conn.primary in
      unregister_all_backups t conn;
      List.iter
        (fun l -> Resources.release_primary t.resources ~link:l ~bw:conn.bw)
        old_links;
      (* All-or-nothing reservation of the new route. *)
      let new_links = Path.links primary in
      let feasible =
        (* Count repeated links in the new route (spliced detours may cross
           a link twice before simplification). *)
        let needed = Hashtbl.create 8 in
        List.iter
          (fun l ->
            Hashtbl.replace needed l
              (conn.bw + Option.value ~default:0 (Hashtbl.find_opt needed l)))
          new_links;
        Hashtbl.fold
          (fun l need acc -> acc && Resources.free t.resources l >= need)
          needed true
      in
      if not feasible then begin
        (* Roll back: re-reserve the old primary (its bandwidth was just
           freed, so this cannot fail) and re-register the backups. *)
        List.iter
          (fun l -> Resources.reserve_primary t.resources ~link:l ~bw:conn.bw)
          old_links;
        let primary_edges = edge_lset_of_path conn.primary in
        List.iter
          (fun b -> ignore (register_backup t ~bw:conn.bw ~primary_edges ~backup_path:b))
          conn.backups;
        invalid_arg "Net_state.reroute_primary: insufficient free bandwidth"
      end;
      List.iter
        (fun l -> Resources.reserve_primary t.resources ~link:l ~bw:conn.bw)
        new_links;
      remove_primary_index t conn;
      let backups = conn.backups in
      conn.primary <- primary;
      conn.backups <- [];
      List.iter
        (fun e -> Hashtbl.replace t.edge_primaries.(e) id conn)
        (edge_lset_of_path primary);
      let primary_edges = edge_lset_of_path primary in
      List.iter
        (fun b ->
          if
            backup_admissible t ~bw:conn.bw ~primary ~earlier_backups:conn.backups b
          then begin
            if not (register_backup t ~bw:conn.bw ~primary_edges ~backup_path:b)
            then conn.degraded <- true;
            conn.backups <- conn.backups @ [ b ]
          end)
        backups

let replace_backups t ~id ~backups =
  match Hashtbl.find_opt t.conns id with
  | None -> invalid_arg "Net_state.replace_backups: unknown connection"
  | Some conn ->
      let primary_edges = edge_lset_of_path conn.primary in
      unregister_all_backups t conn;
      conn.backups <- [];
      let rec check earlier = function
        | [] -> ()
        | b :: rest ->
            if not (backup_admissible t ~bw:conn.bw ~primary:conn.primary ~earlier_backups:earlier b)
            then invalid_arg "Net_state.replace_backups: backup link cannot host backup";
            check (b :: earlier) rest
      in
      check [] backups;
      List.iter
        (fun b ->
          if not (register_backup t ~bw:conn.bw ~primary_edges ~backup_path:b) then
            conn.degraded <- true)
        backups;
      conn.backups <- backups

let replace_backups_drop t ~id ~backups =
  match Hashtbl.find_opt t.conns id with
  | None -> invalid_arg "Net_state.replace_backups_drop: unknown connection"
  | Some conn ->
      let primary_edges = edge_lset_of_path conn.primary in
      unregister_all_backups t conn;
      conn.backups <- [];
      (* Same sequential admissibility walk as {!replace_backups}, but an
         infeasible member is dropped instead of raising: under correlated
         failures, earlier victims' activations may have converted spare to
         prime on a surviving backup's links, and losing that member is the
         graceful outcome (the reprotection queue can retry later). *)
      let kept =
        List.rev
          (List.fold_left
             (fun kept b ->
               if
                 backup_admissible t ~bw:conn.bw ~primary:conn.primary
                   ~earlier_backups:kept b
               then b :: kept
               else kept)
             [] backups)
      in
      List.iter
        (fun b ->
          if not (register_backup t ~bw:conn.bw ~primary_edges ~backup_path:b)
          then conn.degraded <- true)
        kept;
      conn.backups <- kept;
      kept

let fail_edge t ~edge = t.failed.(edge) <- true
let edge_failed t ~edge = t.failed.(edge)
let restore_edge t ~edge = t.failed.(edge) <- false

let incident_edges t node =
  Array.to_list (Graph.out_links t.graph node) |> List.map Graph.edge_of_link

let fail_group t ~group =
  List.iter (fun e -> fail_edge t ~edge:e) (Srlg.edges_of_group t.srlg group)

let restore_group t ~group =
  List.iter (fun e -> restore_edge t ~edge:e) (Srlg.edges_of_group t.srlg group)

let fail_node t ~node =
  List.iter (fun e -> fail_edge t ~edge:e) (incident_edges t node)

let restore_node t ~node =
  List.iter (fun e -> restore_edge t ~edge:e) (incident_edges t node)

(* ---- snapshot / rollback -------------------------------------------------
   Speculative admissions and what-if failure probes must never mutate the
   truth.  A snapshot deep-copies every mutable piece of the state —
   resource pools, APLVs and both PR 4 mirrors, the SRLG spare-weight
   tables, the connection table (with fresh [conn] records, since those are
   themselves mutable), the primary index and the failure flags — and a
   rollback writes it all back {e in place}, preserving the physical
   identity of [t] (route functions and managers close over it).  The
   graph, SRLG model and capacities are immutable and shared.

   Capture with [~into] reuses a previous snapshot's arrays and hashtables,
   so the steady-state cost of a what-if is two memcpy-style sweeps of the
   mutable state, with no per-capture large allocations. *)

module Snapshot = struct
  type state = t

  type t = {
    s_resources : Resources.snapshot;
    s_aplv : Aplv.t array;
    s_aplv_norm : int array;
    s_conflict : int array array;
    s_spare_weight : (int, int) Hashtbl.t array;
    s_backup_total : int array;
    mutable s_conns : conn list; (* deep copies, sorted by id *)
    s_failed : bool array;
    mutable s_aplv_updates : int;
  }

  let copy_conn (c : conn) =
    {
      id = c.id;
      src = c.src;
      dst = c.dst;
      bw = c.bw;
      primary = c.primary;
      backups = c.backups;
      degraded = c.degraded;
    }

  let copy_table ~into ~from =
    Hashtbl.reset into;
    Hashtbl.iter (fun k v -> Hashtbl.replace into k v) from

  let conn_list (st : state) =
    Hashtbl.fold (fun _ c acc -> copy_conn c :: acc) st.conns []
    |> List.sort (fun a b -> compare a.id b.id)

  let capture ?into (st : state) =
    let links = Graph.link_count st.graph in
    let edges = Graph.edge_count st.graph in
    let fresh () =
      {
        s_resources = Resources.capture st.resources;
        s_aplv = Array.map Aplv.copy st.aplv;
        s_aplv_norm = Array.copy st.aplv_norm;
        s_conflict = Array.map Array.copy st.conflict_counts;
        s_spare_weight = Array.map Hashtbl.copy st.spare_weight;
        s_backup_total = Array.copy st.backup_total;
        s_conns = conn_list st;
        s_failed = Array.copy st.failed;
        s_aplv_updates = st.aplv_updates;
      }
    in
    match into with
    | Some s
      when Array.length s.s_aplv = links && Array.length s.s_failed = edges ->
        ignore (Resources.capture ~into:s.s_resources st.resources : Resources.snapshot);
        for l = 0 to links - 1 do
          Aplv.assign ~into:s.s_aplv.(l) ~from:st.aplv.(l);
          Array.blit st.conflict_counts.(l) 0 s.s_conflict.(l) 0 edges;
          copy_table ~into:s.s_spare_weight.(l) ~from:st.spare_weight.(l)
        done;
        Array.blit st.aplv_norm 0 s.s_aplv_norm 0 links;
        Array.blit st.backup_total 0 s.s_backup_total 0 links;
        Array.blit st.failed 0 s.s_failed 0 edges;
        s.s_conns <- conn_list st;
        s.s_aplv_updates <- st.aplv_updates;
        s
    | Some _ | None -> fresh ()

  let rollback (st : state) s =
    let links = Graph.link_count st.graph in
    let edges = Graph.edge_count st.graph in
    if Array.length s.s_aplv <> links || Array.length s.s_failed <> edges then
      invalid_arg "Net_state.Snapshot.rollback: snapshot shape mismatch";
    Resources.restore st.resources s.s_resources;
    for l = 0 to links - 1 do
      Aplv.assign ~into:st.aplv.(l) ~from:s.s_aplv.(l);
      Array.blit s.s_conflict.(l) 0 st.conflict_counts.(l) 0 edges;
      copy_table ~into:st.spare_weight.(l) ~from:s.s_spare_weight.(l)
    done;
    Array.blit s.s_aplv_norm 0 st.aplv_norm 0 links;
    Array.blit s.s_backup_total 0 st.backup_total 0 links;
    Array.blit s.s_failed 0 st.failed 0 edges;
    (* Restore the connection table from fresh copies — the speculative run
       may have mutated the live records in place — and rebuild the
       primary index to point at the restored records. *)
    Hashtbl.reset st.conns;
    Array.iter Hashtbl.reset st.edge_primaries;
    List.iter
      (fun saved ->
        let c = copy_conn saved in
        Hashtbl.add st.conns c.id c;
        List.iter
          (fun e -> Hashtbl.replace st.edge_primaries.(e) c.id c)
          (edge_lset_of_path c.primary))
      s.s_conns;
    st.aplv_updates <- s.s_aplv_updates
end

(* ---- serialization (checkpoint) ------------------------------------------
   A checkpoint cannot re-run admissions: the digest includes the
   [aplv_updates] odometer and history-dependent spare pools / [degraded]
   flags, none of which a logical replay of the surviving connections would
   reproduce.  Instead [Serial.dump] captures the minimal mutable truth —
   the raw resource pools, failure flags, odometer, and the connection
   table with routes as link-id lists — and [Serial.restore] rebuilds every
   derived structure (APLVs, both PR 4 mirrors, SRLG spare weights, backup
   totals, primary index) by replaying the registration {e arithmetic}
   only: no spare-pool adjustment (pools are blitted verbatim afterwards),
   no journal events.  APLV registration is commutative hashtable
   arithmetic and every digest-visible read of it is sorted or aggregate,
   so the rebuilt state is bit-identical under the accessor digest. *)

module Serial = struct
  type conn_repr = {
    r_id : int;
    r_src : int;
    r_dst : int;
    r_bw : int;
    r_degraded : bool;
    r_primary : int list;
    r_backups : int list list;
  }

  type repr = {
    r_prime : int array;
    r_spare : int array;
    r_failed : bool array;
    r_aplv_updates : int;
    r_conns : conn_repr list; (* sorted by id *)
  }

  let dump (t : t) =
    let prime, spare = Resources.pools t.resources in
    let conns =
      Hashtbl.fold
        (fun _ (c : conn) acc ->
          {
            r_id = c.id;
            r_src = c.src;
            r_dst = c.dst;
            r_bw = c.bw;
            r_degraded = c.degraded;
            r_primary = Path.links c.primary;
            r_backups = List.map Path.links c.backups;
          }
          :: acc)
        t.conns []
      |> List.sort (fun a b -> compare a.r_id b.r_id)
    in
    {
      r_prime = prime;
      r_spare = spare;
      r_failed = Array.copy t.failed;
      r_aplv_updates = t.aplv_updates;
      r_conns = conns;
    }

  (* Registration arithmetic only — compare {!register_backup}. *)
  let register_arith (t : t) ~bw ~primary_edges ~groups ~backup_path =
    List.iter
      (fun l ->
        Aplv.register t.aplv.(l) ~edge_lset:primary_edges;
        let counts = t.conflict_counts.(l) in
        List.iter
          (fun e ->
            counts.(e) <- counts.(e) + 1;
            t.aplv_norm.(l) <- t.aplv_norm.(l) + 1)
          primary_edges;
        List.iter
          (fun g ->
            let w = Option.value ~default:0 (Hashtbl.find_opt t.spare_weight.(l) g) in
            Hashtbl.replace t.spare_weight.(l) g (w + bw))
          groups;
        t.backup_total.(l) <- t.backup_total.(l) + bw)
      (Path.links backup_path)

  let restore (t : t) (r : repr) =
    let links = Graph.link_count t.graph in
    let edges = Graph.edge_count t.graph in
    if
      Array.length r.r_prime <> links
      || Array.length r.r_failed <> edges
    then invalid_arg "Net_state.Serial.restore: topology shape mismatch";
    let empty = Aplv.create () in
    for l = 0 to links - 1 do
      Aplv.assign ~into:t.aplv.(l) ~from:empty;
      Array.fill t.conflict_counts.(l) 0 edges 0;
      t.aplv_norm.(l) <- 0;
      t.backup_total.(l) <- 0;
      Hashtbl.reset t.spare_weight.(l)
    done;
    Hashtbl.reset t.conns;
    Array.iter Hashtbl.reset t.edge_primaries;
    List.iter
      (fun cr ->
        let primary = Path.of_links t.graph cr.r_primary in
        let backups = List.map (Path.of_links t.graph) cr.r_backups in
        let conn =
          {
            id = cr.r_id;
            src = cr.r_src;
            dst = cr.r_dst;
            bw = cr.r_bw;
            primary;
            backups;
            degraded = cr.r_degraded;
          }
        in
        if conn.src <> Path.src primary || conn.dst <> Path.dst primary then
          invalid_arg "Net_state.Serial.restore: endpoint mismatch";
        let primary_edges = edge_lset_of_path primary in
        let groups = Srlg.groups_of_edges t.srlg primary_edges in
        List.iter
          (fun b -> register_arith t ~bw:conn.bw ~primary_edges ~groups ~backup_path:b)
          backups;
        List.iter
          (fun e -> Hashtbl.replace t.edge_primaries.(e) conn.id conn)
          primary_edges;
        Hashtbl.add t.conns conn.id conn)
      r.r_conns;
    Array.blit r.r_failed 0 t.failed 0 edges;
    Resources.set_pools t.resources ~prime:r.r_prime ~spare:r.r_spare;
    t.aplv_updates <- r.r_aplv_updates
end

(* The routing fast path never reads the APLV hashtables — only the dense
   [aplv_norm]/[conflict_counts] mirrors.  This check recomputes both from
   the authoritative {!Aplv.t} per link and reports the first slot where a
   mirror has drifted.  O(links × edges); driven by the differential
   harness and the soak test after every mutation. *)
let check_routing_caches t =
  let links = Graph.link_count t.graph in
  let edges = Graph.edge_count t.graph in
  let issue = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !issue = None then issue := Some s) fmt in
  for l = 0 to links - 1 do
    let norm = Aplv.norm1 t.aplv.(l) in
    if t.aplv_norm.(l) <> norm then
      fail "link %d: cached aplv_norm %d, APLV says %d" l t.aplv_norm.(l) norm;
    let counts = t.conflict_counts.(l) in
    for j = 0 to edges - 1 do
      let a = Aplv.get t.aplv.(l) j in
      if counts.(j) <> a then
        fail "link %d edge %d: cached conflict count %d, APLV says %d" l j
          counts.(j) a
    done
  done;
  match !issue with None -> Ok () | Some msg -> Error msg

let check_invariants t =
  match Resources.check_invariants t.resources with
  | Error _ as e -> e
  | Ok () -> (
  match check_routing_caches t with
  | Error _ as e -> e
  | Ok () -> (
      let links = Graph.link_count t.graph in
      (* Rebuild expected per-link state from the connection table. *)
      let expect_prime = Array.make links 0 in
      let expect_weight = Array.init links (fun _ -> Hashtbl.create 8) in
      let expect_backups = Array.make links 0 in
      let expect_total = Array.make links 0 in
      Hashtbl.iter
        (fun _ conn ->
          List.iter
            (fun l -> expect_prime.(l) <- expect_prime.(l) + conn.bw)
            (Path.links conn.primary);
          let groups =
            Srlg.groups_of_edges t.srlg (edge_lset_of_path conn.primary)
          in
          List.iter
            (fun b ->
              List.iter
                (fun l ->
                  expect_backups.(l) <- expect_backups.(l) + 1;
                  expect_total.(l) <- expect_total.(l) + conn.bw;
                  List.iter
                    (fun g ->
                      let w =
                        Option.value ~default:0 (Hashtbl.find_opt expect_weight.(l) g)
                      in
                      Hashtbl.replace expect_weight.(l) g (w + conn.bw))
                    groups)
                (Path.links b))
            conn.backups)
        t.conns;
      let issue = ref None in
      let fail fmt = Printf.ksprintf (fun s -> if !issue = None then issue := Some s) fmt in
      for l = 0 to links - 1 do
        if Resources.prime_bw t.resources l <> expect_prime.(l) then
          fail "link %d: prime_bw %d, expected %d" l
            (Resources.prime_bw t.resources l) expect_prime.(l);
        if Aplv.backup_count t.aplv.(l) <> expect_backups.(l) then
          fail "link %d: %d backups registered, expected %d" l
            (Aplv.backup_count t.aplv.(l)) expect_backups.(l);
        if t.backup_total.(l) <> expect_total.(l) then
          fail "link %d: backup_total %d, expected %d" l t.backup_total.(l)
            expect_total.(l);
        Hashtbl.iter
          (fun g w ->
            let got = Option.value ~default:0 (Hashtbl.find_opt t.spare_weight.(l) g) in
            if got <> w then fail "link %d group %d: spare weight %d, expected %d" l g got w)
          expect_weight.(l);
        Hashtbl.iter
          (fun g w ->
            if Option.value ~default:0 (Hashtbl.find_opt expect_weight.(l) g) <> w then
              fail "link %d group %d: stale spare weight %d" l g w)
          t.spare_weight.(l);
        let req = spare_required t ~link:l in
        let have = Resources.spare_bw t.resources l in
        if have > req then fail "link %d: spare %d exceeds requirement %d" l have req
      done;
      match !issue with None -> Ok () | Some msg -> Error msg))
