module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Shortest_path = Dr_topo.Shortest_path
module Srlg = Dr_resilience.Srlg
module J = Dr_obs.Journal

type scheme = Plsr | Dlsr | Spf

let scheme_name = function Plsr -> "P-LSR" | Dlsr -> "D-LSR" | Spf -> "SPF"

let scheme_of_string s =
  match String.lowercase_ascii s with
  | "p-lsr" | "plsr" -> Ok Plsr
  | "d-lsr" | "dlsr" -> Ok Dlsr
  | "spf" -> Ok Spf
  | other -> Error (Printf.sprintf "unknown scheme %S (want p-lsr, d-lsr or spf)" other)

let epsilon = 1e-3
let q_constant = 1.0e6

let link_alive state l =
  not (Net_state.edge_failed state ~edge:(Graph.edge_of_link l))

let find_primary state ~src ~dst ~bw =
  let result =
    let resources = Net_state.resources state in
    let usable l =
      link_alive state l && Resources.primary_feasible resources ~link:l ~bw
    in
    Shortest_path.min_hop_path (Net_state.graph state) ~usable ~src ~dst ()
  in
  (match result with
  | Some p when !J.on ->
      J.record (J.Primary_chosen { src; dst; bw; links = Path.links p })
  | Some _ | None -> ());
  result

type cost_parts = { q : float; conflict : float; eps : float }

let parts_total p = p.q +. p.conflict +. p.eps

type link_verdict =
  | Dead
  | No_bandwidth of { required : int }
  | Cost of cost_parts

(* The per-link cost decomposition every scheme's total is assembled from.
   [backup_link_cost_general] below sums the parts in exactly the order
   [parts_total] uses, so an explained row always matches the Dijkstra
   cost bit for bit. *)
let backup_link_verdict_general scheme state ~primary ~earlier_backups ~bw =
  let resources = Net_state.resources state in
  let primary_edges = Path.edge_set primary in
  let primary_edge_list = Path.Link_set.elements primary_edges in
  let primary_links = Path.lset primary in
  (* Directed-link share counts over the earlier backups: a link two
     earlier members both use must host the new backup on top of BOTH
     reservations, so multiplicity matters (admission counts occurrences
     the same way). *)
  let earlier_share_count =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun b ->
        List.iter
          (fun l ->
            Hashtbl.replace tbl l
              (1 + Option.value (Hashtbl.find_opt tbl l) ~default:0))
          (Path.links b))
      earlier_backups;
    tbl
  in
  let earlier_edges =
    List.fold_left
      (fun acc b -> Path.Link_set.union acc (Path.edge_set b))
      Path.Link_set.empty earlier_backups
  in
  (* Failure domains are SRLG groups: a link shares the primary's (or an
     earlier backup's) fate when its edge belongs to any group one of
     their edges belongs to.  With the singleton model this degenerates
     to plain edge membership, bit-identically — that branch is the
     pre-SRLG code verbatim. *)
  let srlg = Net_state.srlg state in
  let shares_primary, shares_earlier =
    if Srlg.is_singleton srlg then
      ( (fun e -> Path.Link_set.mem e primary_edges),
        fun e -> Path.Link_set.mem e earlier_edges )
    else
      let group_set edges =
        Path.Link_set.fold
          (fun e acc ->
            Array.fold_left
              (fun acc g -> Path.Link_set.add g acc)
              acc
              (Srlg.groups_of_edge_arr srlg e))
          edges Path.Link_set.empty
      in
      let primary_groups = group_set primary_edges
      and earlier_groups = group_set earlier_edges in
      let shares groups e =
        Array.exists
          (fun g -> Path.Link_set.mem g groups)
          (Srlg.groups_of_edge_arr srlg e)
      in
      (shares primary_groups, shares earlier_groups)
  in
  fun l ->
    (* A backup sharing a directed link with routes of its own connection
       must fit on top of their reservations there. *)
    let own_shares =
      (if Path.Link_set.mem l primary_links then 1 else 0)
      + Option.value (Hashtbl.find_opt earlier_share_count l) ~default:0
    in
    let required = bw * (1 + own_shares) in
    if not (link_alive state l) then Dead
    else if not (Resources.backup_feasible resources ~link:l ~bw:required) then
      No_bandwidth { required }
    else
      let q =
        (* The paper's large constant Q: sharing a failure domain with the
           primary is heavily penalised but not forbidden — a source whose
           only attachment edge carries the primary has no disjoint
           alternative, and the paper only requires *minimal* overlap.
           Subsequent backups get the same penalty on earlier backups'
           edges: a second backup matters exactly when the first cannot
           activate. *)
        let e = Graph.edge_of_link l in
        (if shares_primary e then q_constant else 0.0)
        +. if shares_earlier e then q_constant else 0.0
      in
      match scheme with
      | Spf -> Cost { q; conflict = 1.0; eps = 0.0 }
      | Plsr ->
          Cost
            {
              q;
              conflict = float_of_int (Net_state.aplv_norm state l);
              eps = epsilon;
            }
      | Dlsr ->
          Cost
            {
              q;
              conflict =
                float_of_int
                  (Net_state.conflict_count state ~link:l
                     ~edge_lset:primary_edge_list);
              eps = epsilon;
            }

let backup_link_verdict ?(earlier_backups = []) scheme state ~primary ~bw =
  backup_link_verdict_general scheme state ~primary ~earlier_backups ~bw

let backup_link_cost_general scheme state ~primary ~earlier_backups ~bw =
  let verdict =
    backup_link_verdict_general scheme state ~primary ~earlier_backups ~bw
  in
  fun l ->
    match verdict l with
    | Dead | No_bandwidth _ -> infinity
    | Cost p -> parts_total p

let backup_link_cost scheme state ~primary ~bw =
  backup_link_cost_general scheme state ~primary ~earlier_backups:[] ~bw

(* --- workspace fast path -------------------------------------------------- *)

(* Per-domain routing workspace: epoch-stamped membership arrays replacing
   the per-query [Path.Link_set] values of {!backup_link_verdict_general},
   and the query's cost row.  A query marks its primary/earlier links and
   edges once (stamping slots with the query's epoch) and stages the
   primary's edge LSET into a flat array; {!fill_cost_row} then prices
   every link in one pass into [row], which the search reads.  One
   workspace per domain (Domain.DLS) keeps [--jobs N] pools race-free; a
   row is consumed by a single search, before any other query in the
   domain refills it. *)
module Ws = struct
  type t = {
    mutable prim_link : int array; (* per link: epoch when on the primary *)
    mutable earl_link : int array; (* per link: epoch when on an earlier backup *)
    mutable earl_n : int array; (* per link: earlier backups using it (valid
                                   when earl_link carries the epoch) *)
    mutable prim_edge : int array; (* per edge: epoch when under the primary *)
    mutable earl_edge : int array; (* per edge: epoch when under an earlier backup *)
    mutable prim_group : int array; (* per SRLG: epoch when under the primary *)
    mutable earl_group : int array; (* per SRLG: epoch when under an earlier backup *)
    mutable pedges : int array; (* the primary's edge LSET, staged *)
    mutable pedge_n : int;
    mutable term : int array;
        (* per link: the scheme's conflict term, D-LSR's Σ_j c_{l,j} or
           P-LSR's ‖APLV_l‖₁ *)
    mutable avail : int array; (* per link: capacity - prime_bw *)
    mutable row : float array; (* per link: the query's backup cost *)
    mutable epoch : int;
  }

  let create () =
    {
      prim_link = [||];
      earl_link = [||];
      earl_n = [||];
      prim_edge = [||];
      earl_edge = [||];
      prim_group = [||];
      earl_group = [||];
      pedges = [||];
      pedge_n = 0;
      term = [||];
      avail = [||];
      row = [||];
      epoch = 0;
    }

  let key = Domain.DLS.new_key create

  let get ?(groups = 0) ~links ~edges () =
    let ws = Domain.DLS.get key in
    if Array.length ws.prim_link < links then begin
      ws.prim_link <- Array.make links 0;
      ws.earl_link <- Array.make links 0;
      ws.earl_n <- Array.make links 0;
      ws.term <- Array.make links 0;
      ws.avail <- Array.make links 0;
      ws.row <- Array.make links 0.0
    end;
    if Array.length ws.prim_edge < edges then begin
      ws.prim_edge <- Array.make edges 0;
      ws.earl_edge <- Array.make edges 0;
      ws.pedges <- Array.make edges 0
    end;
    if Array.length ws.prim_group < groups then begin
      ws.prim_group <- Array.make groups 0;
      ws.earl_group <- Array.make groups 0
    end;
    ws.epoch <- ws.epoch + 1;
    ws
end

(* Fill the workspace's cost row for one backup query: [row.(l)] is the
   value {!backup_link_cost_general} gives link [l] — [q +. conflict +.
   eps] in {!parts_total}'s association order, or [infinity] when the
   link is dead or short of bandwidth — bit for bit (the differential
   harness compares every entry with {!Routing_reference}'s verdicts).
   Liveness and the Q term belong to an edge and are computed once for
   its two links [2e] and [2e + 1] ({!Graph}'s numbering).  The per-link
   inputs are copied into the workspace first, each in one call: D-LSR's
   term from one {!Aplv.conflict_counts} pass, P-LSR's from the cached
   norms, and the bandwidth available to backups.  Returns the row's
   workspace. *)
let fill_cost_row scheme state ~primary ~earlier_backups ~bw =
  let graph = Net_state.graph state in
  let resources = Net_state.resources state in
  let aplv = Net_state.aplv state in
  let srlg = Net_state.srlg state in
  let singleton = Srlg.is_singleton srlg in
  let edges = Graph.edge_count graph in
  let ws =
    Ws.get
      ~groups:(if singleton then 0 else Srlg.group_count srlg)
      ~links:(Graph.link_count graph) ~edges ()
  in
  let ep = ws.Ws.epoch in
  let prim_link = ws.Ws.prim_link
  and earl_link = ws.Ws.earl_link
  and earl_n = ws.Ws.earl_n
  and prim_edge = ws.Ws.prim_edge
  and earl_edge = ws.Ws.earl_edge
  and prim_group = ws.Ws.prim_group
  and earl_group = ws.Ws.earl_group
  and pedges = ws.Ws.pedges
  and term = ws.Ws.term
  and avail = ws.Ws.avail
  and row = ws.Ws.row in
  List.iter (fun l -> prim_link.(l) <- ep) (Path.links primary);
  let n = ref 0 in
  Path.Link_set.iter
    (fun e ->
      pedges.(!n) <- e;
      incr n;
      prim_edge.(e) <- ep;
      if not singleton then
        Array.iter
          (fun g -> prim_group.(g) <- ep)
          (Srlg.groups_of_edge_arr srlg e))
    (Path.edge_set primary);
  ws.Ws.pedge_n <- !n;
  List.iter
    (fun b ->
      List.iter
        (fun l ->
          if earl_link.(l) = ep then earl_n.(l) <- earl_n.(l) + 1
          else begin
            earl_link.(l) <- ep;
            earl_n.(l) <- 1
          end)
        (Path.links b);
      Path.Link_set.iter
        (fun e ->
          earl_edge.(e) <- ep;
          if not singleton then
            Array.iter
              (fun g -> earl_group.(g) <- ep)
              (Srlg.groups_of_edge_arr srlg e))
        (Path.edge_set b))
    earlier_backups;
  (match scheme with
  | Dlsr -> Aplv.conflict_counts aplv ~edges:pedges ~n:ws.Ws.pedge_n ~into:term
  | Plsr -> Aplv.blit_norms aplv term
  | Spf -> ());
  Resources.available_for_backup_into resources avail;
  for e = 0 to edges - 1 do
    let dead = Net_state.edge_failed state ~edge:e in
    let q =
      if singleton then
        (if prim_edge.(e) = ep then q_constant else 0.0)
        +. if earl_edge.(e) = ep then q_constant else 0.0
      else
        (* SRLG generalisation: the link shares a failure domain when any
           group owning its edge is stamped.  Kept as a separate branch
           so the singleton term above stays the pre-SRLG code verbatim
           (and bit-identical). *)
        let owners = Srlg.groups_of_edge_arr srlg e in
        (if Array.exists (fun g -> prim_group.(g) = ep) owners then q_constant
         else 0.0)
        +.
        if Array.exists (fun g -> earl_group.(g) = ep) owners then q_constant
        else 0.0
    in
    for l = 2 * e to (2 * e) + 1 do
      let own_shares =
        (if prim_link.(l) = ep then 1 else 0)
        + if earl_link.(l) = ep then earl_n.(l) else 0
      in
      row.(l) <-
        (if dead || avail.(l) < bw * (1 + own_shares) then infinity
         else
           match scheme with
           | Spf -> q +. 1.0 +. 0.0
           | Plsr | Dlsr -> q +. float_of_int term.(l) +. epsilon)
    done
  done;
  ws

let backup_cost_row ?(earlier_backups = []) scheme state ~primary ~bw =
  let ws = fill_cost_row scheme state ~primary ~earlier_backups ~bw in
  Array.sub ws.Ws.row 0 (Graph.link_count (Net_state.graph state))

(* The backup search over a filled cost row: Dijkstra, or with a hop
   budget the layered dynamic program. *)
let search_row ?max_hops graph row ~src ~dst =
  let found =
    match max_hops with
    | None -> Shortest_path.dijkstra_path graph ~cost:row ~src ~dst
    | Some h ->
        (* QoS-bounded backup (paper §2: a backup longer than the delay
           budget allows is useless): cheapest conflict cost within the hop
           budget. *)
        Dr_topo.Constrained_path.cheapest_within_hops graph
          ~cost:(fun l -> row.(l))
          ~src ~dst ~max_hops:h
  in
  Option.map snd found

(* Journal the chosen backup with its per-link cost decomposition.  The
   network state is unchanged during route computation, so re-deriving the
   verdicts here reproduces exactly the costs the search minimised. *)
let journal_backup_chosen scheme state ~primary ~earlier_backups ~bw path =
  let verdict =
    backup_link_verdict_general scheme state ~primary ~earlier_backups ~bw
  in
  let links =
    List.map
      (fun l ->
        match verdict l with
        | Cost p ->
            { J.lc_link = l; lc_q = p.q; lc_conflict = p.conflict; lc_eps = p.eps }
        | Dead | No_bandwidth _ ->
            (* Unreachable: the search only returns feasible links. *)
            { J.lc_link = l; lc_q = infinity; lc_conflict = 0.0; lc_eps = 0.0 })
      (Path.links path)
  in
  J.record
    (J.Backup_chosen
       {
         src = Path.src primary;
         dst = Path.dst primary;
         bw;
         scheme = scheme_name scheme;
         rank = List.length earlier_backups;
         links;
       })

let find_backup_general ?max_hops scheme state ~primary ~earlier_backups ~bw =
  let ws = fill_cost_row scheme state ~primary ~earlier_backups ~bw in
  let found =
    search_row ?max_hops (Net_state.graph state) ws.Ws.row ~src:(Path.src primary)
      ~dst:(Path.dst primary)
  in
  (match found with
  | Some p when !J.on ->
      journal_backup_chosen scheme state ~primary ~earlier_backups ~bw p
  | Some _ | None -> ());
  found

let find_backup ?max_hops scheme state ~primary ~bw =
  find_backup_general ?max_hops scheme state ~primary ~earlier_backups:[] ~bw

let collect_backups ?max_hops scheme state ~primary ~bw ~count ~existing =
  let rec collect earlier fresh k =
    if k = 0 then List.rev fresh
    else
      match
        find_backup_general ?max_hops scheme state ~primary
          ~earlier_backups:earlier ~bw
      with
      | None -> List.rev fresh
      | Some b ->
          (* A repeat of the primary or of an already-chosen route adds no
             protection; the search is exhausted. *)
          if
            Path.links b = Path.links primary
            || List.exists (fun b' -> Path.links b' = Path.links b) earlier
          then List.rev fresh
          else collect (b :: earlier) (b :: fresh) (k - 1)
  in
  collect (List.rev existing) [] count

let find_backups ?max_hops scheme state ~primary ~bw ~count =
  collect_backups ?max_hops scheme state ~primary ~bw ~count ~existing:[]

let additional_backups ?max_hops scheme state ~primary ~bw ~existing ~count =
  collect_backups ?max_hops scheme state ~primary ~bw ~count ~existing

(* ---- k-resilient backup chains ------------------------------------------- *)

type chain_member = { cm_path : Path.t; cm_rank : int; cm_disjoint : bool }

(* Post-hoc disjointness flags for a singleton-model chain: member i is
   disjoint when it shares no failure group with the primary, the existing
   backups, or any earlier member.  (With singleton groups that's plain
   edge-disjointness.) *)
let chain_disjoint_flags srlg ~primary ~existing paths =
  let seen = ref Path.Link_set.empty in
  let add p =
    Path.Link_set.iter
      (fun e ->
        Array.iter
          (fun g -> seen := Path.Link_set.add g !seen)
          (Srlg.groups_of_edge_arr srlg e))
      (Path.edge_set p)
  in
  add primary;
  List.iter add existing;
  List.map
    (fun p ->
      let disjoint =
        Path.Link_set.for_all
          (fun e ->
            Array.for_all
              (fun g -> not (Path.Link_set.mem g !seen))
              (Srlg.groups_of_edge_arr srlg e))
          (Path.edge_set p)
      in
      add p;
      (p, disjoint))
    paths

let collect_chain ?max_hops scheme state ~primary ~bw ~count ~existing =
  let srlg = Net_state.srlg state in
  let base_rank = List.length existing in
  if Srlg.is_singleton srlg then
    (* Bit-identity by construction: with singleton groups the chain is
       exactly the multi-backup selection the soft Q-penalised search
       produces (the k=1 golden-fixture gate depends on this), with
       disjointness recovered post hoc. *)
    collect_backups ?max_hops scheme state ~primary ~bw ~count ~existing
    |> chain_disjoint_flags srlg ~primary ~existing
    |> List.mapi (fun i (p, disjoint) ->
           { cm_path = p; cm_rank = base_rank + i; cm_disjoint = disjoint })
  else begin
    let graph = Net_state.graph state in
    let src = Path.src primary and dst = Path.dst primary in
    let banned = Array.make (Srlg.group_count srlg) false in
    let ban p =
      Path.Link_set.iter
        (fun e ->
          Array.iter
            (fun g -> banned.(g) <- true)
            (Srlg.groups_of_edge_arr srlg e))
        (Path.edge_set p)
    in
    ban primary;
    List.iter ban existing;
    (* Strict pass: links whose edge lies in any banned group are pruned
       outright, so a hit is fully SRLG-disjoint from the primary and
       from every earlier chain member. *)
    let find_strict earlier =
      let row =
        (fill_cost_row scheme state ~primary ~earlier_backups:earlier ~bw).Ws.row
      in
      for l = 0 to Graph.link_count graph - 1 do
        if
          Array.exists
            (fun g -> banned.(g))
            (Srlg.groups_of_edge_arr srlg (Graph.edge_of_link l))
        then row.(l) <- infinity
      done;
      search_row ?max_hops graph row ~src ~dst
    in
    let rec collect earlier fresh rank k =
      if k = 0 then List.rev fresh
      else
        match find_strict earlier with
        | Some p ->
            (* A strict hit can never duplicate the primary or an earlier
               member — their edges' groups are banned. *)
            if !J.on then
              journal_backup_chosen scheme state ~primary
                ~earlier_backups:earlier ~bw p;
            ban p;
            collect (p :: earlier)
              ({ cm_path = p; cm_rank = rank; cm_disjoint = true } :: fresh)
              (rank + 1) (k - 1)
        | None -> (
            (* Graceful fallback when disjointness is infeasible: the soft
               Q-penalised search (the paper requires *minimal*, not zero,
               overlap).  Any fully disjoint route would have survived the
               strict pass, so a fallback member is genuinely
               non-disjoint. *)
            match
              find_backup_general ?max_hops scheme state ~primary
                ~earlier_backups:earlier ~bw
            with
            | None -> List.rev fresh
            | Some p ->
                if
                  Path.links p = Path.links primary
                  || List.exists (fun b -> Path.links b = Path.links p) earlier
                then List.rev fresh
                else begin
                  ban p;
                  collect (p :: earlier)
                    ({ cm_path = p; cm_rank = rank; cm_disjoint = false }
                    :: fresh)
                    (rank + 1) (k - 1)
                end)
    in
    collect (List.rev existing) [] base_rank count
  end

let find_backup_chain ?max_hops scheme state ~primary ~bw ~k =
  let chain =
    collect_chain ?max_hops scheme state ~primary ~bw ~count:k ~existing:[]
  in
  (match chain with
  | _ :: _ when !J.on ->
      J.record
        (J.Chain_built
           {
             src = Path.src primary;
             dst = Path.dst primary;
             members = List.length chain;
             disjoint =
               List.length (List.filter (fun m -> m.cm_disjoint) chain);
           })
  | _ -> ());
  chain

let additional_chain_members ?max_hops scheme state ~primary ~bw ~existing
    ~count =
  collect_chain ?max_hops scheme state ~primary ~bw ~count ~existing

type reject_reason = No_primary | No_backup

let reject_reason_name = function
  | No_primary -> "no-primary"
  | No_backup -> "no-backup"

type route_pair = { primary : Path.t; backups : Path.t list }

type route_fn =
  Net_state.t -> src:int -> dst:int -> bw:int -> (route_pair, reject_reason) result

let link_state_route_fn ?(backup_count = 1) ?backup_hop_slack scheme ~with_backup
    : route_fn =
 fun state ~src ~dst ~bw ->
  match find_primary state ~src ~dst ~bw with
  | None -> Error No_primary
  | Some primary ->
      if not with_backup then Ok { primary; backups = [] }
      else (
        let max_hops =
          Option.map (fun slack -> Path.hops primary + slack) backup_hop_slack
        in
        match
          find_backups ?max_hops scheme state ~primary ~bw ~count:backup_count
        with
        | [] -> Error No_backup
        | backups -> Ok { primary; backups })

let chain_route_fn ?(k = 1) ?backup_hop_slack scheme : route_fn =
 fun state ~src ~dst ~bw ->
  match find_primary state ~src ~dst ~bw with
  | None -> Error No_primary
  | Some primary -> (
      let max_hops =
        Option.map (fun slack -> Path.hops primary + slack) backup_hop_slack
      in
      match find_backup_chain ?max_hops scheme state ~primary ~bw ~k with
      | [] -> Error No_backup
      | chain -> Ok { primary; backups = List.map (fun m -> m.cm_path) chain })
