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

(* --- the backup price: one cost row per query ---------------------------- *)

(* Per-domain routing workspace.  A backup query runs in three stages over
   it ({!fill_cost_row}): [stamp] marks the links, edges and SRLG groups of
   the primary and of the earlier backups with the query's epoch instead of
   building sets, and stages the primary's edge LSET in [pedges]; the
   per-link inputs [avail] and [term] are filled from the ground truth or
   copied from an advertised view; [price] writes each edge's Q term into
   [q] and every link's cost into [row], which the search reads.
   {!verdict} reads a link's decomposition back from the same inputs.  One
   workspace per domain (Domain.DLS) keeps [--jobs N] pools race-free; a
   query's row and inputs are consumed (searched, journalled) before any
   other query in the domain refills them. *)
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
    mutable q : float array; (* per edge: the query's Q term *)
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
      q = [||];
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
      ws.pedges <- Array.make edges 0;
      ws.q <- Array.make edges 0.0
    end;
    if Array.length ws.prim_group < groups then begin
      ws.prim_group <- Array.make groups 0;
      ws.earl_group <- Array.make groups 0
    end;
    ws.epoch <- ws.epoch + 1;
    ws
end

(* Stage 1: stamp the query's route membership. *)
let stamp ws srlg ~singleton ~primary ~earlier_backups =
  let ep = ws.Ws.epoch in
  let prim_link = ws.Ws.prim_link
  and earl_link = ws.Ws.earl_link
  and earl_n = ws.Ws.earl_n
  and prim_edge = ws.Ws.prim_edge
  and earl_edge = ws.Ws.earl_edge
  and prim_group = ws.Ws.prim_group
  and earl_group = ws.Ws.earl_group
  and pedges = ws.Ws.pedges in
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
    earlier_backups

(* Stage 2 on the ground truth: D-LSR's term from one
   {!Aplv.conflict_counts} pass over the staged LSET, P-LSR's from the
   cached norms, and the bandwidth available to backups. *)
let ground_inputs ws scheme state =
  let aplv = Net_state.aplv state in
  (match scheme with
  | Dlsr ->
      Aplv.conflict_counts aplv ~edges:ws.Ws.pedges ~n:ws.Ws.pedge_n
        ~into:ws.Ws.term
  | Plsr -> Aplv.blit_norms aplv ws.Ws.term
  | Spf -> ());
  Resources.available_for_backup_into (Net_state.resources state) ws.Ws.avail

(* The bandwidth link [l] must have available for the query's backup: [bw]
   on top of every reservation its own connection makes there, the
   primary's and each earlier backup's (multiplicity counts, as admission
   does). *)
let[@inline] required ws ~bw l =
  let ep = ws.Ws.epoch in
  let own_shares =
    (if ws.Ws.prim_link.(l) = ep then 1 else 0)
    + if ws.Ws.earl_link.(l) = ep then ws.Ws.earl_n.(l) else 0
  in
  bw * (1 + own_shares)

(* Stage 3: price every link.  [q.(e)] is the paper's large constant Q for
   each of the primary's and the earlier backups' failure domains edge [e]
   shares, computed once for its two links [2e] and [2e + 1] ({!Graph}'s
   numbering).  Sharing is heavily penalised but not forbidden: a source
   whose only attachment edge carries the primary has no disjoint
   alternative, and the paper only requires minimal overlap; a second
   backup matters exactly when the first cannot activate, so earlier
   backups' domains get the same penalty.  [row.(l)] is [infinity] when
   the link is dead or short of {!required}, and otherwise
   [q +. term +. ε] in {!parts_total}'s association order. *)
let price ws scheme state srlg ~singleton ~bw =
  let ep = ws.Ws.epoch in
  let prim_edge = ws.Ws.prim_edge
  and earl_edge = ws.Ws.earl_edge
  and prim_group = ws.Ws.prim_group
  and earl_group = ws.Ws.earl_group
  and term = ws.Ws.term
  and avail = ws.Ws.avail
  and qs = ws.Ws.q
  and row = ws.Ws.row in
  for e = 0 to Graph.edge_count (Net_state.graph state) - 1 do
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
    qs.(e) <- q;
    for l = 2 * e to (2 * e) + 1 do
      row.(l) <-
        (if dead || avail.(l) < required ws ~bw l then infinity
         else
           match scheme with
           | Spf -> q +. 1.0 +. 0.0
           | Plsr | Dlsr -> q +. float_of_int term.(l) +. epsilon)
    done
  done

(* Fill the workspace for one backup query, reading the inputs from the
   ground truth, or from [advertised = (avail, term)], a view's per-link
   available bandwidth and scheme term.  Returns the workspace. *)
let fill_cost_row ?advertised scheme state ~primary ~earlier_backups ~bw =
  let graph = Net_state.graph state in
  let srlg = Net_state.srlg state in
  let singleton = Srlg.is_singleton srlg in
  let links = Graph.link_count graph in
  let ws =
    Ws.get
      ~groups:(if singleton then 0 else Srlg.group_count srlg)
      ~links ~edges:(Graph.edge_count graph) ()
  in
  stamp ws srlg ~singleton ~primary ~earlier_backups;
  (match advertised with
  | None -> ground_inputs ws scheme state
  | Some (avail, term) ->
      Array.blit avail 0 ws.Ws.avail 0 links;
      Array.blit term 0 ws.Ws.term 0 links);
  price ws scheme state srlg ~singleton ~bw;
  ws

(* Link [l]'s decomposition, read back from the inputs {!price} read:
   [Dead] or [No_bandwidth] exactly where [row.(l)] is [infinity], and
   otherwise [Cost p] with [parts_total p = row.(l)] bit for bit. *)
let verdict ws scheme state ~bw l =
  let e = Graph.edge_of_link l in
  let required = required ws ~bw l in
  if Net_state.edge_failed state ~edge:e then Dead
  else if ws.Ws.avail.(l) < required then No_bandwidth { required }
  else
    let q = ws.Ws.q.(e) in
    match scheme with
    | Spf -> Cost { q; conflict = 1.0; eps = 0.0 }
    | Plsr | Dlsr ->
        Cost { q; conflict = float_of_int ws.Ws.term.(l); eps = epsilon }

let backup_cost_row ?(earlier_backups = []) scheme state ~primary ~bw =
  let ws = fill_cost_row scheme state ~primary ~earlier_backups ~bw in
  Array.sub ws.Ws.row 0 (Graph.link_count (Net_state.graph state))

let backup_verdicts ?(earlier_backups = []) scheme state ~primary ~bw =
  let ws = fill_cost_row scheme state ~primary ~earlier_backups ~bw in
  Array.init
    (Graph.link_count (Net_state.graph state))
    (verdict ws scheme state ~bw)

(* Journal the chosen backup with its per-link cost decomposition, read
   from the workspace the search just ran on. *)
let journal_backup_chosen ws scheme state ~primary ~earlier_backups ~bw path =
  let links =
    List.map
      (fun l ->
        match verdict ws scheme state ~bw l with
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

(* The backup search over a filled workspace's row: Dijkstra, or with a hop
   budget the layered dynamic program.  With [journal], a hit is journalled
   when the journal is on. *)
let search_row ?max_hops ~journal ws scheme state ~primary ~earlier_backups ~bw =
  let graph = Net_state.graph state and row = ws.Ws.row in
  let src = Path.src primary and dst = Path.dst primary in
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
  match found with
  | Some (_, p) ->
      if journal && !J.on then
        journal_backup_chosen ws scheme state ~primary ~earlier_backups ~bw p;
      Some p
  | None -> None

(* An advertised search is a view's: it journals nothing. *)
let find_backup_general ?max_hops ?advertised scheme state ~primary
    ~earlier_backups ~bw =
  search_row ?max_hops ~journal:(Option.is_none advertised)
    (fill_cost_row ?advertised scheme state ~primary ~earlier_backups ~bw)
    scheme state ~primary ~earlier_backups ~bw

let find_backup ?max_hops scheme state ~primary ~bw =
  find_backup_general ?max_hops scheme state ~primary ~earlier_backups:[] ~bw

let collect_backups ?max_hops ?advertised scheme state ~primary ~bw ~count
    ~existing =
  let rec collect earlier fresh k =
    if k = 0 then List.rev fresh
    else
      match
        find_backup_general ?max_hops ?advertised scheme state ~primary
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

let find_advertised_backups ~avail ~term scheme state ~primary ~bw ~count =
  collect_backups ~advertised:(avail, term) scheme state ~primary ~bw ~count
    ~existing:[]

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
      let ws = fill_cost_row scheme state ~primary ~earlier_backups:earlier ~bw in
      for l = 0 to Graph.link_count graph - 1 do
        if
          Array.exists
            (fun g -> banned.(g))
            (Srlg.groups_of_edge_arr srlg (Graph.edge_of_link l))
        then ws.Ws.row.(l) <- infinity
      done;
      search_row ?max_hops ~journal:true ws scheme state ~primary
        ~earlier_backups:earlier ~bw
    in
    let rec collect earlier fresh rank k =
      if k = 0 then List.rev fresh
      else
        match find_strict earlier with
        | Some p ->
            (* A strict hit can never duplicate the primary or an earlier
               member — their edges' groups are banned. *)
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
