(* Differential harness: replay randomized admission workloads, querying
   the fast path ({!Routing}) and the oracle ({!Routing_reference}) on the
   same state, and record every disagreement.  Both sides only read the
   network state, so interleaving their queries is safe; mutations (admit,
   release, churn) go through {!Net_state} once, after the comparison. *)

module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Gen = Dr_topo.Gen
module Rng = Dr_rng.Splitmix64
module Dist = Dr_rng.Dist

type params = {
  graphs : int;
  nodes : int;
  avg_degree : float;
  admissions : int;
  seed : int;
  capacity : int;
  max_bw : int;
  backup_count : int;
  churn_every : int;
}

let default_params =
  {
    graphs = 4;
    nodes = 30;
    avg_degree = 4.0;
    admissions = 60;
    seed = 42;
    capacity = 60;
    max_bw = 4;
    backup_count = 2;
    churn_every = 7;
  }

type report = {
  graphs_run : int;
  admissions_checked : int;
  admitted : int;
  rejected : int;
  verdicts_checked : int;
  churn_events : int;
  divergence_count : int;
  divergences : string list;
}

let empty_report =
  {
    graphs_run = 0;
    admissions_checked = 0;
    admitted = 0;
    rejected = 0;
    verdicts_checked = 0;
    churn_events = 0;
    divergence_count = 0;
    divergences = [];
  }

let max_kept_divergences = 8

let merge a b =
  {
    graphs_run = a.graphs_run + b.graphs_run;
    admissions_checked = a.admissions_checked + b.admissions_checked;
    admitted = a.admitted + b.admitted;
    rejected = a.rejected + b.rejected;
    verdicts_checked = a.verdicts_checked + b.verdicts_checked;
    churn_events = a.churn_events + b.churn_events;
    divergence_count = a.divergence_count + b.divergence_count;
    divergences =
      (let kept = a.divergences @ b.divergences in
       if List.length kept <= max_kept_divergences then kept
       else List.filteri (fun i _ -> i < max_kept_divergences) kept);
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>graphs        %d@,\
     admissions    %d  (admitted %d, rejected %d)@,\
     link verdicts %d@,\
     churn events  %d@,\
     divergences   %d@]"
    r.graphs_run r.admissions_checked r.admitted r.rejected r.verdicts_checked
    r.churn_events r.divergence_count;
  if r.divergences <> [] then begin
    Format.fprintf ppf "@,@[<v>";
    List.iter (fun d -> Format.fprintf ppf "  %s@," d) r.divergences;
    Format.fprintf ppf "@]"
  end

(* --- per-graph check ----------------------------------------------------- *)

(* Bit-level float equality: the acceptance bar is exact reproduction of the
   oracle's arithmetic, not tolerance-based closeness. *)
let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let pp_links ppf p =
  Format.fprintf ppf "[%s]"
    (String.concat ";" (List.map string_of_int (Path.links p)))

let path_opt_str = function
  | None -> "none"
  | Some p -> Format.asprintf "%a" pp_links p

let paths_str ps = String.concat " " (List.map (Format.asprintf "%a" pp_links) ps)

let same_path a b = Path.links a = Path.links b

let same_paths a b =
  List.length a = List.length b && List.for_all2 same_path a b

type ctx = {
  mutable divergence_count : int;
  mutable divergences : string list;  (* newest first while accumulating *)
  mutable verdicts : int;
}

let diverge ctx fmt =
  Format.kasprintf
    (fun msg ->
      ctx.divergence_count <- ctx.divergence_count + 1;
      if List.length ctx.divergences < max_kept_divergences then
        ctx.divergences <- msg :: ctx.divergences)
    fmt

let verdict_str = function
  | Routing.Dead -> "dead"
  | Routing.No_bandwidth { required } -> Printf.sprintf "no-bw(%d)" required
  | Routing.Cost p ->
      Printf.sprintf "cost(q=%h conflict=%h eps=%h)" p.Routing.q
        p.Routing.conflict p.Routing.eps

(* Compare the fast path's per-link verdict decompositions and the cost
   row its search runs on against the oracle's verdicts.  [earlier]
   exercises the earlier-backup Q-penalty branch. *)
let check_verdicts ctx ~where scheme state ~primary ~earlier ~bw =
  let graph = Net_state.graph state in
  let row =
    Routing.backup_cost_row ~earlier_backups:earlier scheme state ~primary ~bw
  and fast_v =
    Routing.backup_verdicts ~earlier_backups:earlier scheme state ~primary ~bw
  and ref_v =
    Routing_reference.backup_link_verdict ~earlier_backups:earlier scheme state
      ~primary ~bw
  in
  Graph.iter_links graph (fun l ->
      ctx.verdicts <- ctx.verdicts + 1;
      let vf = fast_v.(l) and vr = ref_v l in
      let same =
        match (vf, vr) with
        | Routing.Dead, Routing.Dead -> true
        | Routing.No_bandwidth { required = a }, Routing.No_bandwidth
            { required = b } ->
            a = b
        | Routing.Cost p, Routing.Cost p' ->
            feq p.Routing.q p'.Routing.q
            && feq p.Routing.conflict p'.Routing.conflict
            && feq p.Routing.eps p'.Routing.eps
        | _ -> false
      in
      if not same then
        diverge ctx "%s: link %d verdict fast=%s ref=%s" where l
          (verdict_str vf) (verdict_str vr);
      let total =
        match vr with
        | Routing.Cost p -> Routing.parts_total p
        | Routing.Dead | Routing.No_bandwidth _ -> infinity
      in
      if not (feq row.(l) total) then
        diverge ctx "%s: link %d row cost %h <> oracle verdict total %h" where l
          row.(l) total)

(* The full audit after every mutation: it rebuilds every a_{l,j} from the
   connection table, so a drifted count is caught at the step that made it. *)
let check_state ctx ~where state =
  match Net_state.check_invariants state with
  | Ok () -> ()
  | Error msg -> diverge ctx "%s: invariant: %s" where msg

let scheme_names = [ (Routing.Plsr, "plsr"); (Dlsr, "dlsr"); (Spf, "spf") ]

let run_scheme params ~graph ~graph_index ~scheme ~name ctx =
  let state =
    Net_state.create ~graph ~capacity:params.capacity
      ~spare_policy:Net_state.Multiplexed
  in
  let rng =
    Rng.create (params.seed + (graph_index * 7919) + (Hashtbl.hash name * 13))
  in
  let n = Graph.node_count graph in
  let active = ref [] and next_id = ref 0 in
  let admissions = ref 0 and admitted = ref 0 and rejected = ref 0 in
  let churn = ref 0 in
  let step_where step = Printf.sprintf "g%d/%s step %d" graph_index name step in
  for step = 1 to params.admissions do
    let where = step_where step in
    let src, dst = Dist.pick_distinct_pair rng n in
    let bw = Dist.uniform_int rng ~lo:1 ~hi:params.max_bw in
    incr admissions;
    let fast_primary = Routing.find_primary state ~src ~dst ~bw
    and ref_primary = Routing_reference.find_primary state ~src ~dst ~bw in
    (match (fast_primary, ref_primary) with
    | None, None -> incr rejected
    | Some pf, Some pr when same_path pf pr ->
        let primary = pf in
        check_verdicts ctx ~where scheme state ~primary ~earlier:[] ~bw;
        let fast_backups =
          Routing.find_backups scheme state ~primary ~bw
            ~count:params.backup_count
        and ref_backups =
          Routing_reference.find_backups scheme state ~primary ~bw
            ~count:params.backup_count
        in
        if not (same_paths fast_backups ref_backups) then
          diverge ctx "%s: backups fast=%s ref=%s" where
            (paths_str fast_backups) (paths_str ref_backups);
        (* The hop-bounded search reads the same cost row. *)
        let max_hops = Path.hops primary + 2 in
        let fast_bounded =
          Routing.find_backups ~max_hops scheme state ~primary ~bw
            ~count:params.backup_count
        and ref_bounded =
          Routing_reference.find_backups ~max_hops scheme state ~primary ~bw
            ~count:params.backup_count
        in
        if not (same_paths fast_bounded ref_bounded) then
          diverge ctx "%s: backups within %d hops fast=%s ref=%s" where max_hops
            (paths_str fast_bounded) (paths_str ref_bounded);
        (match ref_backups with
        | first :: _ ->
            check_verdicts ctx ~where scheme state ~primary ~earlier:[ first ]
              ~bw
        | [] -> ());
        if ref_backups = [] then incr rejected
        else begin
          let id = !next_id in
          incr next_id;
          ignore
            (Net_state.admit state ~id ~bw ~primary ~backups:ref_backups
              : Net_state.conn);
          active := id :: !active;
          incr admitted;
          check_state ctx ~where state
        end
    | _ ->
        incr rejected;
        diverge ctx "%s: primary fast=%s ref=%s" where
          (path_opt_str fast_primary) (path_opt_str ref_primary));
    (* Random release keeps the state from saturating and exercises the
       count decrements. *)
    (match !active with
    | id :: rest when Dist.uniform_int rng ~lo:0 ~hi:3 = 0 ->
        Net_state.release state ~id;
        active := rest;
        check_state ctx ~where state
    | _ -> ());
    if params.churn_every > 0 && step mod params.churn_every = 0 then begin
      incr churn;
      let failed = ref [] in
      Graph.iter_edges graph (fun e ->
          if Net_state.edge_failed state ~edge:e then failed := e :: !failed);
      (match Dist.uniform_int rng ~lo:0 ~hi:2 with
      | 0 ->
          let e = Dist.uniform_int rng ~lo:0 ~hi:(Graph.edge_count graph - 1) in
          if not (Net_state.edge_failed state ~edge:e) then
            Net_state.fail_edge state ~edge:e
      | 1 ->
          let v = Dist.uniform_int rng ~lo:0 ~hi:(n - 1) in
          Net_state.fail_node state ~node:v
      | _ -> (
          match !failed with
          | [] -> ()
          | es ->
              let e = List.nth es (Dist.uniform_int rng ~lo:0 ~hi:(List.length es - 1)) in
              Net_state.restore_edge state ~edge:e));
      check_state ctx ~where state
    end
  done;
  (* Drain the survivors so release-side count deltas are fully exercised. *)
  List.iter
    (fun id ->
      Net_state.release state ~id;
      check_state ctx ~where:(step_where params.admissions) state)
    !active;
  (!admissions, !admitted, !rejected, !churn)

let run_graph params ~graph_index =
  if params.nodes < 2 then invalid_arg "Routing_check: nodes < 2";
  let rng = Rng.create (params.seed + (graph_index * 1_000_003)) in
  let graph =
    Gen.waxman ~rng ~n:params.nodes ~avg_degree:params.avg_degree ()
  in
  let ctx = { divergence_count = 0; divergences = []; verdicts = 0 } in
  let admissions = ref 0
  and admitted = ref 0
  and rejected = ref 0
  and churn = ref 0 in
  List.iter
    (fun (scheme, name) ->
      let a, ad, rj, ch =
        run_scheme params ~graph ~graph_index ~scheme ~name ctx
      in
      admissions := !admissions + a;
      admitted := !admitted + ad;
      rejected := !rejected + rj;
      churn := !churn + ch)
    scheme_names;
  {
    graphs_run = 1;
    admissions_checked = !admissions;
    admitted = !admitted;
    rejected = !rejected;
    verdicts_checked = ctx.verdicts;
    churn_events = !churn;
    divergence_count = ctx.divergence_count;
    divergences = List.rev ctx.divergences;
  }

let run ?progress params =
  let report = ref empty_report in
  for g = 0 to params.graphs - 1 do
    let r = run_graph params ~graph_index:g in
    (match progress with Some f -> f g r | None -> ());
    report := merge !report r
  done;
  !report
