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

(* One entry of the speculation undo log: what a mutation overwrote, in a
   form that puts it back. *)
type undo =
  | Pools of int * int * int  (* link, prime and spare before the change *)
  | Registered of {
      bw : int;
      primary_edges : int list;
      groups : int list;
      backup_path : Path.t;
    }  (* undone by [unregister_arith] *)
  | Unregistered of {
      bw : int;
      primary_edges : int list;
      groups : int list;
      backup_path : Path.t;
    }  (* undone by [register_arith] *)
  | Conn_entry of int * conn option  (* connection id, binding before *)
  | Index_entry of int * int * conn option  (* edge, id, binding before *)
  | Conn_fields of conn * Path.t * Path.t list * bool
      (* primary, backups and degraded before the change *)
  | Failed of int * bool  (* edge, flag before *)

(* The §5 spare weights of one directed link: [weight.(g)] is the total
   backup bandwidth that SRLG group [g]'s failure would activate here
   (under the singleton model group ids are edge ids, so this is the
   paper's per-failure-edge row exactly); [at.(v)] counts the groups of
   weight [v >= 1]; [top] is the largest weight, the [Multiplexed] spare
   requirement. *)
type weights = {
  weight : int array;
  mutable at : int array; (* grown on demand *)
  mutable top : int;
}

type t = {
  graph : Graph.t;
  resources : Resources.t;
  aplv : Aplv.t;
      (* every directed link's a_{l,j} over failure edges, edge-major: the
         one store every routing cost term reads *)
  weights : weights array; (* per directed link *)
  srlg : Srlg.t;
  backup_total : int array; (* per directed link: sum of backup bandwidths *)
  conns : (int, conn) Hashtbl.t;
  edge_primaries : (int, conn) Hashtbl.t array; (* per edge: id -> conn *)
  failed : bool array; (* per edge *)
  spare_policy : spare_policy;
  mutable aplv_updates : int;
  mutable speculating : int; (* open {!speculate} calls; 0 = log nothing *)
  mutable undo : undo list; (* newest first *)
  mutable audit_matrix : int array;
      (* {!check_invariants}' rebuilt APLV matrix: allocated by the first
         audit of the state and reused, zeroed, by later ones, so periodic
         audits allocate no matrix-sized array (a fresh one per audit goes
         straight to the major heap and drives the major GC inside the
         audit).  Meaningless outside an audit. *)
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
    aplv = Aplv.create ~links ~edges;
    weights =
      Array.init links (fun _ ->
          { weight = Array.make (Srlg.group_count srlg) 0; at = Array.make 8 0; top = 0 });
    backup_total = Array.make links 0;
    conns = Hashtbl.create 256;
    srlg;
    edge_primaries = Array.init edges (fun _ -> Hashtbl.create 8);
    failed = Array.make edges false;
    spare_policy;
    aplv_updates = 0;
    speculating = 0;
    undo = [];
    audit_matrix = [||];
  }

let create ~graph ~capacity ~spare_policy =
  make ~srlg:None ~graph ~capacity ~spare_policy

let create_srlg ~srlg ~graph ~capacity ~spare_policy =
  make ~srlg:(Some srlg) ~graph ~capacity ~spare_policy

let graph t = t.graph
let srlg t = t.srlg
let resources t = t.resources
let spare_policy t = t.spare_policy
let aplv t = t.aplv
let aplv_updates t = t.aplv_updates
let aplv_norm t l = Aplv.norm1 t.aplv ~link:l

let conflict_vector t l =
  Conflict_vector.of_aplv t.aplv ~link:l ~domains:(Graph.edge_count t.graph)

let edge_lset_of_path p = Path.Link_set.elements (Path.edge_set p)

let spare_required t ~link =
  match t.spare_policy with
  | Dedicated -> t.backup_total.(link)
  | Multiplexed -> t.weights.(link).top

let spare_deficit t ~link =
  max 0 (spare_required t ~link - Resources.spare_bw t.resources link)

let total_spare_deficit t =
  let total = ref 0 in
  for l = 0 to Graph.link_count t.graph - 1 do
    total := !total + spare_deficit t ~link:l
  done;
  !total

let backup_count_on_link t ~link = Aplv.backup_count t.aplv ~link

(* ---- speculation undo log ------------------------------------------------
   While a {!speculate} call is open, every mutation below first pushes
   onto [t.undo] what it is about to overwrite; {!speculate} pops the log
   in reverse order when its function returns or raises.  Outside a
   speculation each logging site costs one integer test and allocates
   nothing. *)

let push_undo t u = t.undo <- u :: t.undo

let save_pools t link =
  if t.speculating > 0 then
    push_undo t
      (Pools
         (link, Resources.prime_bw t.resources link, Resources.spare_bw t.resources link))

let save_fields t c =
  if t.speculating > 0 then push_undo t (Conn_fields (c, c.primary, c.backups, c.degraded))

let save_index t e id =
  if t.speculating > 0 then
    push_undo t (Index_entry (e, id, Hashtbl.find_opt t.edge_primaries.(e) id))

let set_index t e id conn =
  save_index t e id;
  Hashtbl.replace t.edge_primaries.(e) id conn

let set_failed t e v =
  if t.speculating > 0 then push_undo t (Failed (e, t.failed.(e)));
  t.failed.(e) <- v

let reserve_primary t link bw =
  save_pools t link;
  Resources.reserve_primary t.resources ~link ~bw

let release_primary t link bw =
  save_pools t link;
  Resources.release_primary t.resources ~link ~bw

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
  if d > 0 then begin
    save_pools t link;
    ignore (Resources.grow_spare t.resources ~link ~want:d)
  end

let adjust_spare_after_register t link =
  journal_spare t link @@ fun () ->
  let req = spare_required t ~link in
  let have = Resources.spare_bw t.resources link in
  if req > have then begin
    save_pools t link;
    let granted = Resources.grow_spare t.resources ~link ~want:(req - have) in
    granted = req - have
  end
  else true

let adjust_spare_after_unregister t link =
  journal_spare t link @@ fun () ->
  let req = spare_required t ~link in
  let have = Resources.spare_bw t.resources link in
  if have > req then begin
    save_pools t link;
    Resources.shrink_spare t.resources ~link ~amount:(have - req)
  end

(* Move group [g] of a link's weights from [w] to [w'], keeping [at] in
   step.  Weight 0 is not counted. *)
let move_weight r g w w' =
  r.weight.(g) <- w';
  if w > 0 then r.at.(w) <- r.at.(w) - 1;
  if w' > 0 then r.at.(w') <- r.at.(w') + 1

let raise_weight r g bw =
  let w = r.weight.(g) in
  let w' = w + bw in
  if w' >= Array.length r.at then begin
    let at = Array.make (max (w' + 1) (2 * Array.length r.at)) 0 in
    Array.blit r.at 0 at 0 (Array.length r.at);
    r.at <- at
  end;
  move_weight r g w w';
  if w' > r.top then r.top <- w'

(* Lowering a weight [w] by [bw] can only lower the maximum when [w] was
   the last group at it, and then the new maximum lies in [[w - bw, w)]:
   group [g] itself now sits at [w - bw].  So the rescan probes at most
   [bw - 1] slots. *)
let lower_weight r g bw =
  let w = r.weight.(g) in
  if w < bw then invalid_arg "Net_state: spare-weight underflow";
  let w' = w - bw in
  move_weight r g w w';
  if w = r.top && r.at.(w) = 0 then begin
    let v = ref (w - 1) in
    while !v > w' && r.at.(!v) = 0 do
      decr v
    done;
    r.top <- !v
  end

let rec raise_weights r bw = function
  | [] -> ()
  | g :: rest ->
      raise_weight r g bw;
      raise_weights r bw rest

let rec lower_weights r bw = function
  | [] -> ()
  | g :: rest ->
      lower_weight r g bw;
      lower_weights r bw rest

(* The registration arithmetic of one backup, without the spare
   adjustment: on every link of its route, the APLV counts for the edge-LSET
   of its primary (the backup-path register packet of §2.2), the backup
   total and the SRLG spare weights.  The weights are keyed by the
   primary's {e failure domains} — the SRLG groups its edges belong to (one
   weight unit per group per backup, however many of the group's edges the
   primary crosses) — so {!spare_required} sizes the pool for the worst
   single {e group} failure.  Under the singleton model the group list is
   the edge LSET itself and the bookkeeping is bit-identical to the
   per-edge original. *)
let register_arith t ~bw ~primary_edges ~groups ~backup_path =
  List.iter
    (fun l ->
      Aplv.register t.aplv ~link:l ~edge_lset:primary_edges;
      raise_weights t.weights.(l) bw groups;
      t.backup_total.(l) <- t.backup_total.(l) + bw)
    (Path.links backup_path)

(* The exact inverse of {!register_arith}. *)
let unregister_arith t ~bw ~primary_edges ~groups ~backup_path =
  List.iter
    (fun l ->
      Aplv.unregister t.aplv ~link:l ~edge_lset:primary_edges;
      lower_weights t.weights.(l) bw groups;
      t.backup_total.(l) <- t.backup_total.(l) - bw)
    (Path.links backup_path)

(* Per link of a route just (un)registered: count the packet's visit and
   adjust the spare pool.  Plain recursion, so the admission path allocates
   no closure here. *)
let rec spare_after_register t fully = function
  | [] -> fully
  | l :: rest ->
      t.aplv_updates <- t.aplv_updates + 1;
      let ok = adjust_spare_after_register t l in
      spare_after_register t (ok && fully) rest

let rec spare_after_unregister t = function
  | [] -> ()
  | l :: rest ->
      t.aplv_updates <- t.aplv_updates + 1;
      adjust_spare_after_unregister t l;
      spare_after_unregister t rest

(* Register one backup: the arithmetic, then per link the odometer and the
   spare adjustment.  Returns false if some link could not reserve the full
   spare requirement. *)
let register_backup t ~bw ~primary_edges ~backup_path =
  let groups = Srlg.groups_of_edges t.srlg primary_edges in
  register_arith t ~bw ~primary_edges ~groups ~backup_path;
  if t.speculating > 0 then
    push_undo t (Registered { bw; primary_edges; groups; backup_path });
  spare_after_register t true (Path.links backup_path)

let unregister_backup t ~bw ~primary_edges ~backup_path =
  let groups = Srlg.groups_of_edges t.srlg primary_edges in
  unregister_arith t ~bw ~primary_edges ~groups ~backup_path;
  if t.speculating > 0 then
    push_undo t (Unregistered { bw; primary_edges; groups; backup_path });
  spare_after_unregister t (Path.links backup_path)

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

(* The two checks {!admit} raises from: every primary link has free
   bandwidth, and each backup fits given the primary and the backups before
   it. *)
let rec primary_admissible t ~bw = function
  | [] -> true
  | l :: rest ->
      Resources.primary_feasible t.resources ~link:l ~bw
      && primary_admissible t ~bw rest

let rec backups_admissible t ~bw ~primary earlier = function
  | [] -> true
  | b :: rest ->
      backup_admissible t ~bw ~primary ~earlier_backups:earlier b
      && backups_admissible t ~bw ~primary (b :: earlier) rest

let admissible t ~bw ~primary ~backups =
  primary_admissible t ~bw (Path.links primary)
  && backups_admissible t ~bw ~primary [] backups

let admit t ~id ~bw ~primary ~backups =
  if Hashtbl.mem t.conns id then invalid_arg "Net_state.admit: connection id in use";
  if bw <= 0 then invalid_arg "Net_state.admit: bandwidth must be positive";
  let primary_links = Path.links primary in
  if not (primary_admissible t ~bw primary_links) then
    invalid_arg "Net_state.admit: primary link lacks free bandwidth";
  if not (backups_admissible t ~bw ~primary [] backups) then
    invalid_arg "Net_state.admit: backup link cannot host backup";
  List.iter (fun l -> reserve_primary t l bw) primary_links;
  let conn =
    { id; src = Path.src primary; dst = Path.dst primary; bw; primary; backups; degraded = false }
  in
  let primary_edges = edge_lset_of_path primary in
  List.iter
    (fun b ->
      if not (register_backup t ~bw ~primary_edges ~backup_path:b) then
        conn.degraded <- true)
    backups;
  List.iter (fun e -> set_index t e id conn) primary_edges;
  if t.speculating > 0 then push_undo t (Conn_entry (id, None));
  Hashtbl.add t.conns id conn;
  conn

let find t id = Hashtbl.find_opt t.conns id
let active_count t = Hashtbl.length t.conns
let iter_conns t f = Hashtbl.iter (fun _ c -> f c) t.conns

let primaries_crossing_edge t e =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.edge_primaries.(e) []
  |> List.sort (fun a b -> compare a.id b.id)

let primaries_crossing_edges t ~edges =
  match edges with
  | [ e ] -> primaries_crossing_edge t e
  | _ ->
      let seen = Hashtbl.create 16 in
      List.iter
        (fun e ->
          Hashtbl.iter (fun id c -> Hashtbl.replace seen id c) t.edge_primaries.(e))
        edges;
      Hashtbl.fold (fun _ c acc -> c :: acc) seen []
      |> List.sort (fun a b -> compare a.id b.id)

let remove_primary_index t conn =
  List.iter
    (fun e ->
      save_index t e conn.id;
      Hashtbl.remove t.edge_primaries.(e) conn.id)
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
      List.iter (fun l -> release_primary t l conn.bw) (Path.links conn.primary);
      unregister_all_backups t conn;
      remove_primary_index t conn;
      if t.speculating > 0 then push_undo t (Conn_entry (id, Some conn));
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

(* Install [backups] on [conn] behind its current primary: keep, in order,
   those admissible given the primary and the backups kept before them,
   register them, and mark the connection degraded where a spare pool
   falls short.  A dropped member is the graceful outcome: the network can
   no longer host it (the recovery driver's reprotection may find a
   replacement).  Registration moves only spare bandwidth and
   {!backup_admissible} reads [capacity - prime_bw], so checking every
   member before registering any gives the answers interleaving would. *)
let install_backups t conn backups =
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
  let primary_edges = edge_lset_of_path conn.primary in
  List.iter
    (fun b ->
      if not (register_backup t ~bw:conn.bw ~primary_edges ~backup_path:b) then
        conn.degraded <- true)
    kept;
  conn.backups <- kept

let promote_backup t ~id ?(index = 0) () =
  match Hashtbl.find_opt t.conns id with
  | None -> invalid_arg "Net_state.promote_backup: unknown connection"
  | Some conn ->
      let chosen = nth_backup conn index in
      if not (activation_feasible t ~id ~index ()) then
        invalid_arg "Net_state.promote_backup: activation infeasible";
      save_fields t conn;
      List.iter (fun l -> release_primary t l conn.bw) (Path.links conn.primary);
      unregister_all_backups t conn;
      (* The activated channel's bandwidth comes from free first, then from
         the shared spare pool — stealing spare is exactly the conflict the
         routing schemes try to avoid. *)
      List.iter
        (fun l ->
          journal_spare t l @@ fun () ->
          save_pools t l;
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
      List.iter (fun e -> set_index t e id conn) (edge_lset_of_path chosen);
      install_backups t conn remaining

let reroute_primary t ~id ~primary =
  match Hashtbl.find_opt t.conns id with
  | None -> invalid_arg "Net_state.reroute_primary: unknown connection"
  | Some conn ->
      if Path.src primary <> conn.src || Path.dst primary <> conn.dst then
        invalid_arg "Net_state.reroute_primary: endpoint mismatch";
      save_fields t conn;
      let old_links = Path.links conn.primary in
      unregister_all_backups t conn;
      List.iter (fun l -> release_primary t l conn.bw) old_links;
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
        List.iter (fun l -> reserve_primary t l conn.bw) old_links;
        let primary_edges = edge_lset_of_path conn.primary in
        List.iter
          (fun b -> ignore (register_backup t ~bw:conn.bw ~primary_edges ~backup_path:b))
          conn.backups;
        invalid_arg "Net_state.reroute_primary: insufficient free bandwidth"
      end;
      List.iter (fun l -> reserve_primary t l conn.bw) new_links;
      remove_primary_index t conn;
      conn.primary <- primary;
      List.iter (fun e -> set_index t e id conn) (edge_lset_of_path primary);
      install_backups t conn conn.backups

let replace_backups_drop t ~id ~backups =
  match Hashtbl.find_opt t.conns id with
  | None -> invalid_arg "Net_state.replace_backups_drop: unknown connection"
  | Some conn ->
      save_fields t conn;
      unregister_all_backups t conn;
      (* The sequential admissibility walk of {!admit}, but an infeasible
         member is dropped instead of raising: earlier victims' activations
         may have converted spare to prime on a surviving backup's links. *)
      install_backups t conn backups;
      conn.backups

let fail_edge t ~edge = set_failed t edge true
let edge_failed t ~edge = t.failed.(edge)
let restore_edge t ~edge = set_failed t edge false

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

(* Undo entries write the saved values back directly, bypassing the
   logging mutators above, so unwinding never logs. *)
let undo_entry t = function
  | Pools (link, prime, spare) -> Resources.set_link t.resources ~link ~prime ~spare
  | Registered { bw; primary_edges; groups; backup_path } ->
      unregister_arith t ~bw ~primary_edges ~groups ~backup_path
  | Unregistered { bw; primary_edges; groups; backup_path } ->
      register_arith t ~bw ~primary_edges ~groups ~backup_path
  | Conn_entry (id, None) -> Hashtbl.remove t.conns id
  | Conn_entry (id, Some c) -> Hashtbl.replace t.conns id c
  | Index_entry (e, id, None) -> Hashtbl.remove t.edge_primaries.(e) id
  | Index_entry (e, id, Some c) -> Hashtbl.replace t.edge_primaries.(e) id c
  | Conn_fields (c, primary, backups, degraded) ->
      c.primary <- primary;
      c.backups <- backups;
      c.degraded <- degraded
  | Failed (e, v) -> t.failed.(e) <- v

(* The [aplv_updates] odometer only counts up, so it is saved once per
   speculation instead of once per link visit. *)
let speculate t f =
  let outer = t.undo and aplv_updates = t.aplv_updates in
  t.undo <- [];
  t.speculating <- t.speculating + 1;
  Fun.protect f ~finally:(fun () ->
      List.iter (undo_entry t) t.undo;
      t.undo <- outer;
      t.speculating <- t.speculating - 1;
      t.aplv_updates <- aplv_updates)

(* ---- serialization (checkpoint) ------------------------------------------
   A checkpoint cannot re-run admissions: the digest includes the
   [aplv_updates] odometer and history-dependent spare pools / [degraded]
   flags, none of which a logical replay of the surviving connections would
   reproduce.  Instead [Serial.dump] captures the minimal mutable truth —
   the raw resource pools, failure flags, odometer, and the connection
   table with routes as link-id lists — and [Serial.restore] rebuilds every
   derived structure (the APLV matrix, SRLG spare weights with their maxima,
   backup totals, primary index) by replaying the registration
   {e arithmetic} only: no spare-pool adjustment (pools are blitted
   verbatim afterwards), no journal events.  Registration is commutative
   counter arithmetic, so the rebuilt state is bit-identical under the
   accessor digest. *)

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

  let restore (t : t) (r : repr) =
    let links = Graph.link_count t.graph in
    let edges = Graph.edge_count t.graph in
    if
      Array.length r.r_prime <> links
      || Array.length r.r_failed <> edges
    then invalid_arg "Net_state.Serial.restore: topology shape mismatch";
    if t.speculating > 0 then
      invalid_arg "Net_state.Serial.restore: inside a speculation";
    Aplv.clear t.aplv;
    for l = 0 to links - 1 do
      t.backup_total.(l) <- 0;
      let r = t.weights.(l) in
      Array.fill r.weight 0 (Array.length r.weight) 0;
      Array.fill r.at 0 (Array.length r.at) 0;
      r.top <- 0
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
        if conn.bw <= 0 then
          invalid_arg "Net_state.Serial.restore: bandwidth must be positive";
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

(* Each link's cached [‖APLV_l‖₁] against the sum of its entries, summed
   column by column so the matrix is read once in memory order.  The
   counts themselves are checked against the connection table by
   {!check_invariants}. *)
let check_routing_caches t =
  let links = Graph.link_count t.graph in
  let sums = Array.make links 0 and col = Array.make links 0 in
  for j = 0 to Graph.edge_count t.graph - 1 do
    Aplv.blit_column t.aplv ~edge:j col;
    for l = 0 to links - 1 do
      sums.(l) <- sums.(l) + col.(l)
    done
  done;
  let rec check l =
    if l = links then Ok ()
    else if sums.(l) <> Aplv.norm1 t.aplv ~link:l then
      Error
        (Printf.sprintf "link %d: cached aplv_norm %d, row sums to %d" l
           (Aplv.norm1 t.aplv ~link:l) sums.(l))
    else check (l + 1)
  in
  check 0

(* Count one backup crossing [link] in column [e] of an edge-major matrix
   of [links] links, for every edge [e] of its primary's [lset]. *)
let rec count_in_columns expect ~links link = function
  | [] -> ()
  | e :: rest ->
      let i = (e * links) + link in
      expect.(i) <- expect.(i) + 1;
      count_in_columns expect ~links link rest

let check_invariants t =
  match Resources.check_invariants t.resources with
  | Error _ as e -> e
  | Ok () -> (
  match check_routing_caches t with
  | Error _ as e -> e
  | Ok () -> (
      let links = Graph.link_count t.graph in
      let edges = Graph.edge_count t.graph in
      (* One pass over the connection table: the expected primary load per
         link, the primary-index entries, the expected APLV matrix in the
         store's layout (a_{l,j} at [j * links + l]), and per link the
         (bandwidth, SRLG groups of the primary) of every backup crossing
         it. *)
      let expect_prime = Array.make links 0 in
      let expect_a =
        if Array.length t.audit_matrix < links * edges then
          t.audit_matrix <- Array.make (links * edges) 0
        else Array.fill t.audit_matrix 0 (links * edges) 0;
        t.audit_matrix
      in
      let crossing = Array.make links [] in
      (* Primary-index entries the connection table accounts for, each
         checked to be bound to its connection's own record. *)
      let indexed = ref 0 and index_miss = ref None in
      Hashtbl.iter
        (fun _ conn ->
          List.iter
            (fun l -> expect_prime.(l) <- expect_prime.(l) + conn.bw)
            (Path.links conn.primary);
          let lset = edge_lset_of_path conn.primary in
          List.iter
            (fun e ->
              incr indexed;
              match Hashtbl.find_opt t.edge_primaries.(e) conn.id with
              | Some c when c == conn -> ()
              | _ -> if !index_miss = None then index_miss := Some (e, conn.id))
            lset;
          let backup = (conn.bw, Srlg.groups_of_edges t.srlg lset) in
          List.iter
            (fun b ->
              List.iter
                (fun l ->
                  crossing.(l) <- backup :: crossing.(l);
                  count_in_columns expect_a ~links l lset)
                (Path.links b))
            conn.backups)
        t.conns;
      let issue = ref None in
      let fail fmt = Printf.ksprintf (fun s -> if !issue = None then issue := Some s) fmt in
      (* The stored matrix against the rebuilt one, column by column: one
         pass over both in memory order. *)
      let have_a = Array.make links 0 in
      for j = 0 to edges - 1 do
        Aplv.blit_column t.aplv ~edge:j have_a;
        for l = 0 to links - 1 do
          let want = expect_a.((j * links) + l) in
          if have_a.(l) <> want then
            fail "link %d edge %d: APLV count %d, expected %d" l j have_a.(l) want
        done
      done;
      (* Per link: rebuild the group weights and their histogram in scratch
         rows, compare every entry, then zero the rows for the next link. *)
      let groups = Srlg.group_count t.srlg in
      let expect_w = Array.make groups 0 in
      let at_len = Array.fold_left (fun n r -> max n (Array.length r.at)) 0 t.weights in
      let expect_at = Array.make at_len 0 in
      for l = 0 to links - 1 do
        if Resources.prime_bw t.resources l <> expect_prime.(l) then
          fail "link %d: prime_bw %d, expected %d" l
            (Resources.prime_bw t.resources l) expect_prime.(l);
        let backups = ref 0 and total = ref 0 in
        List.iter
          (fun (bw, groups) ->
            incr backups;
            total := !total + bw;
            List.iter (fun g -> expect_w.(g) <- expect_w.(g) + bw) groups)
          crossing.(l);
        if Aplv.backup_count t.aplv ~link:l <> !backups then
          fail "link %d: %d backups registered, expected %d" l
            (Aplv.backup_count t.aplv ~link:l) !backups;
        if t.backup_total.(l) <> !total then
          fail "link %d: backup_total %d, expected %d" l t.backup_total.(l) !total;
        let r = t.weights.(l) in
        let top = ref 0 in
        for g = 0 to groups - 1 do
          let w = expect_w.(g) in
          if r.weight.(g) <> w then
            fail "link %d group %d: spare weight %d, expected %d" l g r.weight.(g) w;
          if w > !top then top := w;
          if w > 0 && w < at_len then expect_at.(w) <- expect_at.(w) + 1;
          expect_w.(g) <- 0
        done;
        if r.top <> !top then
          fail "link %d: cached maximum spare weight %d, expected %d" l r.top !top;
        if !top >= Array.length r.at then
          fail "link %d: weight histogram of length %d cannot count weight %d" l
            (Array.length r.at) !top;
        for v = 1 to at_len - 1 do
          let have = if v < Array.length r.at then r.at.(v) else 0 in
          if have <> expect_at.(v) then
            fail "link %d: %d groups counted at spare weight %d, expected %d" l have v
              expect_at.(v);
          expect_at.(v) <- 0
        done;
        let req = spare_required t ~link:l in
        let have = Resources.spare_bw t.resources l in
        if have > req then fail "link %d: spare %d exceeds requirement %d" l have req
      done;
      (match !index_miss with
      | Some (e, id) -> fail "edge %d: primary index misses connection %d" e id
      | None ->
          (* Every expected entry is present, so any surplus is stale. *)
          let entries =
            Array.fold_left (fun n idx -> n + Hashtbl.length idx) 0 t.edge_primaries
          in
          if entries <> !indexed then
            fail "primary index holds %d entries, connections need %d" entries
              !indexed);
      match !issue with None -> Ok () | Some msg -> Error msg))
