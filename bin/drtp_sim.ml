(* drtp_sim — command-line driver for the DSN'01 reproduction.

   One subcommand per reproduced artifact: Table 1, Figures 4 and 5, the
   §6.2 claims check, the ablations, the routing-overhead table and the
   recovery extension, plus scenario-file and topology tooling.  Every
   subcommand is one [cmd] row: a name, a doc string and a term over the
   shared options below. *)

open Cmdliner
module Pool = Dr_parallel.Pool

let stderr_progress line =
  prerr_string line;
  prerr_newline ()

(* A bad command-line value: print "drtp_sim: MSG" and exit 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_string ("drtp_sim: " ^ msg ^ "\n");
      exit 2)
    fmt

let at_least_one name n =
  if n < 1 then usage_error "%s must be >= 1 (got %d)" name n;
  n

(* Every file a command writes is opened here, as its option is evaluated:
   a path that cannot be opened fails before the work, not after it. *)
let open_output what file =
  try open_out file
  with Sys_error msg -> usage_error "cannot open %s file (%s)" what msg

(* An optional [--NAME FILE] output, opened as soon as it is evaluated;
   [what] names the file in the error message. *)
let output_t ?what name ~doc =
  let what = Option.value what ~default:name in
  let file_t =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)
  in
  Term.(const (Option.map (fun file -> (file, open_output what file))) $ file_t)

let write_output oc contents =
  output_string oc contents;
  close_out oc

let flag_t name ~doc = Arg.(value & flag & info [ name ] ~doc)

let int_t ?(docv = "N") name default ~doc =
  Arg.(value & opt int default & info [ name ] ~docv ~doc)

let seconds_t name default ~doc =
  Arg.(value & opt float default & info [ name ] ~docv:"S" ~doc)

(* ---- observability ------------------------------------------------------ *)

module Journal = Dr_obs.Journal

let metrics_t =
  let doc =
    "Enable the flight-recorder journal and, when the command finishes, \
     print its exact per-kind event totals (stdout, identical for any \
     $(b,--jobs) count) and one GC line (stderr)."
  in
  flag_t "metrics" ~doc

let journal_t =
  let doc =
    "Enable the flight-recorder journal and write it as JSONL (one event \
     per line, simulation-time stamped) to $(docv) when the command \
     finishes.  Output is byte-identical for any $(b,--jobs) count."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

(* The "# events by kind" table of [--metrics] and [inspect]: one row per
   kind with a nonzero count, in [Journal.all_kinds] order. *)
let print_kind_counts counts =
  Format.printf "@.@[<v># events by kind@,";
  List.iter
    (fun (kind, n) -> if n > 0 then Format.printf "%-18s %8d@," kind n)
    counts;
  Format.printf "@]@."

(* Evaluating this term configures the journal as a side effect; [cmd]
   evaluates it first for every subcommand.  The totals table and the
   journal file are written from [at_exit]: they then also cover commands
   that leave through [exit] (claims). *)
let obs_t =
  let setup metrics journal =
    if metrics || journal <> None then Journal.set_enabled true;
    (match journal with
    | None -> ()
    | Some file ->
        let oc = open_output "journal" file in
        at_exit (fun () ->
            Journal.write_jsonl (Journal.current ()) oc;
            close_out_noerr oc));
    if metrics then
      at_exit (fun () ->
          print_kind_counts (Journal.totals (Journal.current ()));
          let s = Gc.quick_stat () in
          Printf.eprintf
            "gc: minor_words=%.0f major_words=%.0f promoted_words=%.0f \
             top_heap_words=%d major_collections=%d\n"
            s.Gc.minor_words s.Gc.major_words s.Gc.promoted_words
            s.Gc.top_heap_words s.Gc.major_collections)
  in
  Term.(const setup $ metrics_t $ journal_t)

let cmd ?man name ~doc term =
  Cmd.v (Cmd.info name ?man ~doc) Term.(const (fun () () -> ()) $ obs_t $ term)

(* ---- shared options ---------------------------------------------------- *)

let degree_t =
  let doc = "Average node degree E of the Waxman topology (3 or 4)." in
  Arg.(value & opt float 3.0 & info [ "degree"; "E" ] ~docv:"E" ~doc)

let lambda_t ~default =
  let doc = "Connection arrival rate lambda (requests/second)." in
  Arg.(value & opt float default & info [ "lambda" ] ~docv:"LAMBDA" ~doc)

let traffic_t =
  let doc = "Traffic pattern: UT (uniform) or NT (hotspots)." in
  let parse s = Result.map_error (fun e -> `Msg e) (Dr_exp.Config.traffic_of_string s) in
  let print ppf t = Format.pp_print_string ppf (Dr_exp.Config.traffic_name t) in
  Arg.(
    value
    & opt (conv (parse, print)) Dr_exp.Config.UT
    & info [ "traffic" ] ~docv:"PATTERN" ~doc)

(* The link-state schemes (d-lsr, p-lsr, spf); [replay]'s converter also
   takes bf and none. *)
let scheme_t ~doc =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Drtp.Routing.scheme_of_string s)
  in
  let print ppf s = Format.pp_print_string ppf (Drtp.Routing.scheme_name s) in
  Arg.(
    value
    & opt (conv (parse, print)) Drtp.Routing.Dlsr
    & info [ "scheme" ] ~docv:"SCHEME" ~doc)

let quick_t =
  let doc =
    "Quick mode: shorter horizon and fewer load points (for smoke tests)."
  in
  flag_t "quick" ~doc

let jobs_t =
  let doc =
    "Worker domains for independent simulation runs (default: the runtime's \
     recommended domain count).  Output is identical for any $(docv); \
     single-run commands accept the flag but run on one domain."
  in
  Term.(
    const (at_least_one "--jobs")
    $ Arg.(
        value
        & opt int (Pool.default_jobs ())
        & info [ "jobs"; "j" ] ~docv:"N" ~doc))

let seed_t =
  let doc = "Base seed for topology and workload generation." in
  int_t "seed" Dr_exp.Config.default.topology_seed ~docv:"SEED" ~doc

let config_of ~quick ~seed =
  let cfg =
    { Dr_exp.Config.default with
      topology_seed = seed; workload_seed = seed * 101 }
  in
  if quick then Dr_exp.Config.quick cfg else cfg

(* What [--jobs], [--quick] and [--seed] give a study: the Table-1
   configuration to run and the pool size to run it on. *)
type common = { cfg : Dr_exp.Config.t; jobs : int; quick : bool; seed : int }

let common_t =
  let make jobs quick seed =
    { cfg = config_of ~quick ~seed; jobs; quick; seed }
  in
  Term.(const make $ jobs_t $ quick_t $ seed_t)

(* ---- subcommands ------------------------------------------------------- *)

let table1_cmd =
  let run c = Format.printf "%a@." Dr_exp.Config.pp_table1 c.cfg in
  cmd "table1" ~doc:"Print the simulation parameters (paper Table 1)."
    Term.(const run $ common_t)

let csv_t = output_t "csv" ~doc:"Also dump the sweep as CSV to this file."

(* [fig4], [fig5] and [details]: one sweep at [degree], printed by [print]. *)
let sweep_cmd name ~doc print =
  let run print c degree csv =
    let sweep =
      Pool.with_pool ~jobs:c.jobs (fun pool ->
          Dr_exp.Sweep.run ~pool ~progress:stderr_progress c.cfg
            ~avg_degree:degree
            ~lambdas:(Dr_exp.Config.lambdas ~quick:c.quick degree) ())
    in
    print sweep;
    Option.iter
      (fun (file, oc) ->
        write_output oc (Dr_exp.Report.to_csv sweep);
        Format.eprintf "wrote %s@." file)
      csv
  in
  cmd name ~doc Term.(const run $ print $ common_t $ degree_t $ csv_t)

let figure pp = Term.const (Format.printf "%a@." pp)

let fig4_cmd =
  sweep_cmd "fig4"
    ~doc:"Reproduce Figure 4: fault-tolerance P_act-bk vs lambda."
    (figure Dr_exp.Report.print_figure4)

let fig5_cmd =
  sweep_cmd "fig5" ~doc:"Reproduce Figure 5: capacity overhead vs lambda."
    (figure Dr_exp.Report.print_figure5)

let details_cmd =
  let json_t =
    let doc =
      "Emit one machine-readable JSON record per sweep cell (the CSV \
       fields) instead of the aligned table — the journal/inspect \
       counterpart of $(b,claims --json)."
    in
    flag_t "json" ~doc
  in
  let print json sweep =
    if json then print_string (Dr_exp.Report.details_to_json sweep)
    else Format.printf "%a@." Dr_exp.Report.print_details sweep
  in
  sweep_cmd "details" ~doc:"Per-cell diagnostics for one sweep."
    Term.(const print $ json_t)

let claims_cmd =
  let json_t =
    let doc =
      "Emit one machine-readable JSON record per claim \
       (claim/expected/measured/pass) instead of the tables."
    in
    flag_t "json" ~doc
  in
  let run json c =
    let claims =
      Pool.with_pool ~jobs:c.jobs (fun pool ->
          let sweep degree =
            Dr_exp.Sweep.run ~pool ~progress:stderr_progress c.cfg
              ~avg_degree:degree
              ~lambdas:(Dr_exp.Config.lambdas ~quick:c.quick degree) ()
          in
          let e3 = sweep 3.0 in
          let e4 = sweep 4.0 in
          let claims = Dr_exp.Report.check_claims ~e3 ~e4 in
          if json then print_string (Dr_exp.Report.claims_to_json claims)
          else begin
            Format.printf "%a@.@.%a@.@.%a@.@.%a@.@." Dr_exp.Report.print_figure4
              e3 Dr_exp.Report.print_figure4 e4 Dr_exp.Report.print_figure5 e3
              Dr_exp.Report.print_figure5 e4;
            Format.printf "%a@." Dr_exp.Report.print_claims claims
          end;
          claims)
    in
    (* Nonzero exit on any failed claim, so CI can gate on this command.
       Outside [Pool.with_pool]: the workers are already joined. *)
    if not (Dr_exp.Report.all_claims_hold claims) then exit 1
  in
  cmd "claims"
    ~doc:
      "Run both sweeps and check the paper's summary claims (§6.2); exits 1 \
       if any claim fails."
    Term.(const run $ json_t $ common_t)

(* ---- ablate: one row per ablation or extension study --------------------- *)

(* Name, description, default lambda, and the study: it runs on the pool
   and prints its table. *)
let ablations =
  let module A = Dr_exp.Ablation in
  let show pp rows = Format.printf "%a@." pp rows in
  [
    ( "mux", "Ablation A1: multiplexed vs dedicated spare reservations.", 0.5,
      fun ~pool cfg ~degree ~traffic ~lambda ->
        show A.pp_mux
          (A.no_multiplexing ~pool cfg ~avg_degree:degree ~traffic ~lambda) );
    ( "flood", "Ablation A2: bounded-flooding scope parameters.", 0.5,
      fun ~pool cfg ~degree ~traffic ~lambda ->
        show A.pp_flood
          (A.flood_scope ~pool cfg ~avg_degree:degree ~traffic ~lambda ()) );
    ( "spf",
      "Ablation A3: conflict-aware vs conflict-blind backup routing, at E = 3 \
       and E = 4.",
      0.5,
      fun ~pool cfg ~degree:_ ~traffic ~lambda ->
        show A.pp_blind (A.conflict_blind ~pool cfg ~traffic ~lambda) );
    ( "backups",
      "Extension E2: zero, one or two backups per DR-connection (edge and \
       node fault-tolerance vs capacity).",
      0.4,
      fun ~pool cfg ~degree ~traffic ~lambda ->
        show A.pp_backup_count
          (A.backup_count ~pool cfg ~avg_degree:degree ~traffic ~lambda ()) );
    ( "qos",
      "Extension E5: hop (delay) budget on backup routes — tight QoS \
       forfeits protection.",
      0.4,
      fun ~pool cfg ~degree ~traffic ~lambda ->
        show A.pp_qos
          (A.qos_bound ~pool cfg ~avg_degree:degree ~traffic ~lambda ()) );
    ( "classes",
      "Heterogeneous bandwidth classes (audio/video mixes) through the \
       weighted multiplexing rule.",
      0.3,
      fun ~pool cfg ~degree ~traffic ~lambda ->
        show A.pp_classes
          (A.traffic_classes ~pool cfg ~avg_degree:degree ~traffic ~lambda
             ()) );
  ]

let ablate_cmd =
  let study_t =
    let doc =
      "The study to run, one of those listed under DESCRIPTION.  $(b,spf) \
       compares E = 3 and E = 4 itself, so $(b,--degree) does not apply to it."
    in
    let names = List.map (fun (name, _, _, _) -> (name, name)) ablations in
    Arg.(required & pos 0 (some (enum names)) None & info [] ~docv:"NAME" ~doc)
  in
  let lambda_t =
    let doc =
      "Connection arrival rate lambda (requests/second); default: the \
       study's own, listed under DESCRIPTION."
    in
    Arg.(value & opt (some float) None & info [ "lambda" ] ~docv:"LAMBDA" ~doc)
  in
  let man =
    `S Manpage.s_description
    :: List.map
         (fun (name, doc, lambda, _) ->
           `I
             ( Printf.sprintf "$(b,%s)" name,
               Printf.sprintf "%s  Default $(b,--lambda) %g." doc lambda ))
         ablations
  in
  let run name c degree traffic lambda =
    let _, _, default, study =
      List.find (fun (n, _, _, _) -> n = name) ablations
    in
    Pool.with_pool ~jobs:c.jobs (fun pool ->
        study ~pool c.cfg ~degree ~traffic
          ~lambda:(Option.value lambda ~default))
  in
  cmd "ablate" ~man
    ~doc:"Run one ablation or extension study and print its table."
    Term.(const run $ study_t $ common_t $ degree_t $ traffic_t $ lambda_t)

let replicate_cmd =
  let seeds_t =
    Term.(
      const (at_least_one "--seeds")
      $ int_t "seeds" 3 ~doc:"Number of independent replications.")
  in
  let run c degree seeds =
    let t =
      Pool.with_pool ~jobs:c.jobs (fun pool ->
          Dr_exp.Replicate.run ~pool ~progress:stderr_progress c.cfg
            ~avg_degree:degree
            ~seeds:(List.init seeds (fun i -> i))
            ~lambdas:(Dr_exp.Config.lambdas ~quick:c.quick degree) ())
    in
    Format.printf "%a@.@.%a@." Dr_exp.Replicate.print_figure4 t
      Dr_exp.Replicate.print_figure5 t
  in
  cmd "replicate"
    ~doc:"Figures 4/5 with multi-seed replication and confidence intervals."
    Term.(const run $ common_t $ degree_t $ seeds_t)

let availability_cmd =
  let mtbf_t =
    seconds_t "mtbf" 600.0 ~doc:"Mean time between failures (seconds)."
  in
  let mttr_t = seconds_t "mttr" 120.0 ~doc:"Mean time to repair (seconds)." in
  let run c degree traffic lambda mtbf mttr =
    Format.printf "%a@." Dr_exp.Availability_exp.pp
      (Dr_exp.Availability_exp.run c.cfg ~avg_degree:degree ~traffic ~lambda
         ~mtbf ~mttr ())
  in
  cmd "availability"
    ~doc:
      "Extension E6: service availability under a continuous failure/repair \
       process, DRTP vs reactive."
    Term.(
      const run $ common_t $ degree_t $ traffic_t $ lambda_t ~default:0.5
      $ mtbf_t $ mttr_t)

let staleness_cmd =
  let run c degree traffic lambda =
    Format.printf "%a@." Dr_exp.Staleness_exp.pp
      (Dr_exp.Staleness_exp.run c.cfg ~avg_degree:degree ~traffic ~lambda ())
  in
  cmd "staleness"
    ~doc:
      "Extension E4: distributed protocol with damped link-state \
       advertisements (setup failures vs advertisement traffic)."
    Term.(const run $ common_t $ degree_t $ traffic_t $ lambda_t ~default:0.5)

let overhead_cmd =
  let run c degree traffic lambda =
    Format.printf "%a@." Dr_exp.Overhead.pp
      (Dr_exp.Overhead.measure c.cfg ~avg_degree:degree ~traffic ~lambda)
  in
  cmd "overhead" ~doc:"Routing-overhead comparison of the schemes."
    Term.(const run $ common_t $ degree_t $ traffic_t $ lambda_t ~default:0.5)

let recovery_cmd =
  let failures_t = int_t "failures" 40 ~doc:"Failures to inject." in
  let run c degree traffic lambda failures =
    Format.printf "%a@." Dr_exp.Recovery_exp.pp
      (Dr_exp.Recovery_exp.run c.cfg ~avg_degree:degree ~traffic ~lambda
         ~failures ())
  in
  cmd "recovery"
    ~doc:"Extension E1: dynamic failure recovery, DRTP vs reactive."
    Term.(
      const run $ common_t $ degree_t $ traffic_t $ lambda_t ~default:0.5
      $ failures_t)

let topo_cmd =
  let dot_t = output_t "dot" ~doc:"Also write a Graphviz rendering." in
  let save_t =
    output_t "save" ~what:"edge-list" ~doc:"Also save the edge list."
  in
  let run c degree dot save =
    let g = Dr_exp.Config.make_graph c.cfg ~avg_degree:degree in
    Option.iter
      (fun (file, oc) ->
        write_output oc (Dr_topo.Graph.to_string g);
        Format.printf "saved %s@." file)
      save;
    Format.printf "%a@." Dr_topo.Topo_metrics.pp (Dr_topo.Topo_metrics.compute g);
    Format.printf "degree histogram: %a@."
      (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf (d, c) ->
           Format.fprintf ppf "%d:%d" d c))
      (Dr_topo.Topo_metrics.degree_histogram g);
    Option.iter
      (fun (file, oc) ->
        write_output oc (Dr_topo.Dot.to_dot g);
        Format.printf "wrote %s@." file)
      dot
  in
  cmd "topo" ~doc:"Describe the generated evaluation topology."
    Term.(const run $ common_t $ degree_t $ dot_t $ save_t)

let scenario_cmd =
  let out_t =
    Term.(
      const (fun file -> (file, open_output "scenario" file))
      $ Arg.(
          required
          & opt (some string) None
          & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output scenario file."))
  in
  let run c traffic lambda (file, oc) =
    let s = Dr_exp.Config.make_scenario c.cfg traffic ~lambda in
    write_output oc (Dr_sim.Scenario.to_string s);
    Format.printf "wrote %d events (%d requests) to %s@."
      (Dr_sim.Scenario.length s)
      (Dr_sim.Scenario.request_count s)
      file
  in
  cmd "scenario"
    ~doc:"Generate and save a scenario file (the paper's Matlab step)."
    Term.(const run $ common_t $ traffic_t $ lambda_t ~default:0.5 $ out_t)

let replay_cmd =
  let file_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "scenario" ] ~docv:"FILE" ~doc:"Scenario file to replay.")
  in
  let scheme_t =
    let parse s =
      match String.lowercase_ascii s with
      | "bf" -> Ok `Bf
      | "none" | "no-backup" -> Ok `None
      | other ->
          Result.map_error (fun e -> `Msg e)
            (Result.map (fun x -> `Lsr x) (Drtp.Routing.scheme_of_string other))
    in
    let print ppf = function
      | `Bf -> Format.pp_print_string ppf "bf"
      | `None -> Format.pp_print_string ppf "none"
      | `Lsr x -> Format.pp_print_string ppf (Drtp.Routing.scheme_name x)
    in
    Arg.(
      value
      & opt (conv (parse, print)) (`Lsr Drtp.Routing.Dlsr)
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:"Routing scheme: d-lsr, p-lsr, spf, bf or none.")
  in
  let run c degree file scheme =
    match Dr_sim.Scenario.load file with
    | Error msg ->
        Format.eprintf "cannot load %s: %s@." file msg;
        exit 1
    | Ok scenario ->
        let graph = Dr_exp.Config.make_graph c.cfg ~avg_degree:degree in
        let spec =
          match scheme with
          | `Bf -> Dr_exp.Runner.Bf Dr_flood.Bounded_flood.default_config
          | `None -> Dr_exp.Runner.No_backup
          | `Lsr x -> Dr_exp.Runner.Lsr x
        in
        let m = Dr_exp.Runner.run c.cfg ~graph ~scenario ~scheme:spec in
        Format.printf
          "%s: %d requests, acceptance %.3f, ft %.4f, node-ft %.4f, avg \
           active %.1f, degraded %d@."
          m.Dr_exp.Runner.label m.Dr_exp.Runner.requests m.Dr_exp.Runner.acceptance
          m.Dr_exp.Runner.ft_overall m.Dr_exp.Runner.node_ft_overall
          m.Dr_exp.Runner.avg_active m.Dr_exp.Runner.degraded
  in
  cmd "replay"
    ~doc:"Replay a saved scenario file under a chosen routing scheme."
    Term.(const run $ common_t $ degree_t $ file_t $ scheme_t)

(* ---- explain: route one connection and show the decision ---------------- *)

let explain_cmd =
  let scheme_t =
    scheme_t ~doc:"Link-state scheme to explain: d-lsr, p-lsr or spf."
  in
  let src_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "src" ] ~docv:"NODE" ~doc:"Source node (default: a seeded draw).")
  in
  let dst_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "dst" ] ~docv:"NODE"
          ~doc:"Destination node (default: a seeded draw).")
  in
  let bw_t = int_t "bw" 1 ~docv:"UNITS" ~doc:"Requested bandwidth units." in
  let top_t =
    int_t "top" 3 ~docv:"K" ~doc:"Candidate backup routes to tabulate."
  in
  let dot_t =
    output_t "dot"
      ~doc:
        "Write an annotated Graphviz overlay of the chosen routes (edges \
         labelled id/capacity/spare)."
  in
  let chain_t =
    int_t "chain" 0 ~docv:"K"
      ~doc:
        "Also build and print the $(docv)-resilient backup chain \
         (failover order, per-member SRLG-disjointness).  0 = off."
  in
  let srlg_size_t =
    int_t "srlg-size" 1 ~docv:"S"
      ~doc:
        "Warm the network under a random SRLG partition of mean group \
         size $(docv) (seeded); 1 = singleton model."
  in
  let run { cfg; seed; _ } degree traffic lambda scheme src dst bw top dot
      chain srlg_size =
    let graph = Dr_exp.Config.make_graph cfg ~avg_degree:degree in
    let scenario = Dr_exp.Config.make_scenario cfg traffic ~lambda in
    Format.eprintf "warming network to t=%.0f s (%s, lambda=%.2f)...@."
      cfg.Dr_exp.Config.warmup
      (Dr_exp.Config.traffic_name traffic)
      lambda;
    let srlg_model =
      if srlg_size <= 1 then None
      else
        Some
          (Dr_resilience.Srlg.random_partition ~seed:(seed + 2)
             ~edge_count:(Dr_topo.Graph.edge_count graph)
             ~mean_size:srlg_size)
    in
    let state =
      Dr_exp.Runner.load_state ?srlg:srlg_model cfg ~graph ~scenario
        ~scheme:(Dr_exp.Runner.Lsr scheme) ~until:cfg.Dr_exp.Config.warmup
    in
    let n = Dr_topo.Graph.node_count graph in
    let src, dst =
      match (src, dst) with
      | Some s, Some d -> (s, d)
      | _ ->
          let rng = Dr_rng.Splitmix64.create ((seed * 7919) + 17) in
          let s, d = Dr_rng.Dist.pick_distinct_pair rng n in
          (Option.value src ~default:s, Option.value dst ~default:d)
    in
    if src < 0 || src >= n || dst < 0 || dst >= n || src = dst then
      usage_error "bad src/dst pair (%d, %d) for %d nodes" src dst n;
    let pp_nodes ppf p =
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '-')
        Format.pp_print_int ppf (Dr_topo.Path.nodes graph p)
    in
    match Drtp.Routing.find_primary state ~src ~dst ~bw with
    | None ->
        Format.printf "no feasible primary route %d -> %d (bw=%d)@." src dst bw;
        exit 1
    | Some primary ->
        Format.printf "request: %d -> %d, bw=%d, scheme=%s@." src dst bw
          (Drtp.Routing.scheme_name scheme);
        Format.printf "primary (%d hops): %a@."
          (Dr_topo.Path.hops primary)
          pp_nodes primary;
        let chosen = Drtp.Routing.find_backup scheme state ~primary ~bw in
        (match chosen with
        | None -> Format.printf "chosen backup: none (no feasible route)@."
        | Some b ->
            Format.printf "chosen backup (%d hops): %a@." (Dr_topo.Path.hops b)
              pp_nodes b);
        (if chain > 0 then begin
           let srlg = Drtp.Net_state.srlg state in
           let groups_of p =
             Dr_resilience.Srlg.groups_of_edges srlg
               (List.sort_uniq compare
                  (List.map
                     (fun l -> Dr_topo.Graph.edge_of_link l)
                     (Dr_topo.Path.links p)))
           in
           let pp_groups ppf gs =
             Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
               (fun ppf g ->
                 Format.pp_print_string ppf
                   (Dr_resilience.Srlg.group_name srlg g))
               ppf gs
           in
           Format.printf
             "@.k-resilient chain (k=%d, srlg model: %d groups, mean size \
              %.1f):@."
             chain
             (Dr_resilience.Srlg.group_count srlg)
             (Dr_resilience.Srlg.mean_group_size srlg);
           Format.printf "primary crosses srlgs: %a@." pp_groups
             (groups_of primary);
           match
             Drtp.Routing.find_backup_chain scheme state ~primary ~bw ~k:chain
           with
           | [] -> Format.printf "no chain member found@."
           | members ->
               List.iter
                 (fun (m : Drtp.Routing.chain_member) ->
                   Format.printf "member #%d (%d hops, %s): %a@."
                     m.Drtp.Routing.cm_rank
                     (Dr_topo.Path.hops m.Drtp.Routing.cm_path)
                     (if m.Drtp.Routing.cm_disjoint then "srlg-disjoint"
                      else "shares risk")
                     pp_nodes m.Drtp.Routing.cm_path;
                   Format.printf "  crosses srlgs: %a@." pp_groups
                     (groups_of m.Drtp.Routing.cm_path))
                 members
         end);
        let chosen_links = Option.map Dr_topo.Path.links chosen in
        let row = Drtp.Routing.backup_cost_row scheme state ~primary ~bw
        and verdicts = Drtp.Routing.backup_verdicts scheme state ~primary ~bw in
        let cands =
          Dr_topo.Yen.k_shortest graph ~cost:(Array.get row) ~src ~dst ~k:top
        in
        let resources = Drtp.Net_state.resources state in
        if cands = [] then Format.printf "no feasible backup candidates@."
        else
          List.iteri
            (fun i (total, path) ->
              let mark =
                if Some (Dr_topo.Path.links path) = chosen_links then
                  "  <== chosen"
                else ""
              in
              Format.printf "@.candidate #%d (%d hops, cost %g)%s: %a@." (i + 1)
                (Dr_topo.Path.hops path)
                total mark pp_nodes path;
              Format.printf "  %4s %9s %5s %5s %10s %10s %8s %10s@." "link"
                "route" "free" "spare" "q" "conflict" "eps" "total";
              let sum = ref 0.0 in
              List.iter
                (fun l ->
                  let u = Dr_topo.Graph.link_src graph l
                  and v = Dr_topo.Graph.link_dst graph l in
                  match verdicts.(l) with
                  | Drtp.Routing.Cost p ->
                      let t = Drtp.Routing.parts_total p in
                      sum := !sum +. t;
                      Format.printf
                        "  %4d %4d>%-4d %5d %5d %10g %10g %8g %10g@." l u v
                        (Drtp.Resources.free resources l)
                        (Drtp.Resources.spare_bw resources l)
                        p.Drtp.Routing.q p.Drtp.Routing.conflict
                        p.Drtp.Routing.eps t
                  | Drtp.Routing.Dead ->
                      Format.printf "  %4d %4d>%-4d (link dead)@." l u v
                  | Drtp.Routing.No_bandwidth { required } ->
                      Format.printf "  %4d %4d>%-4d (needs %d units)@." l u v
                        required)
                (Dr_topo.Path.links path);
              Format.printf "  %56s %10g@." "sum =" !sum)
            cands;
        Option.iter
          (fun (file, oc) ->
            let edge_label e =
              let l, _ = Dr_topo.Graph.links_of_edge e in
              Some
                (Printf.sprintf "e%d c=%d s=%d" e
                   (Drtp.Resources.capacity resources l)
                   (Drtp.Resources.spare_bw resources l))
            in
            let backups = match chosen with None -> [] | Some b -> [ b ] in
            write_output oc
              (Dr_topo.Dot.routes_to_dot ~edge_label graph ~primary ~backups);
            Format.printf "wrote %s@." file)
          dot
  in
  cmd "explain"
    ~doc:
      "Route one seeded DR-connection on a warmed network and print the \
       backup decision: the chosen route next to the top-K candidate routes, \
       each link's cost decomposed into Q-penalty, conflict term and epsilon \
       tie-break (rows sum bit-exactly to the search cost)."
    Term.(
      const run $ common_t $ degree_t $ traffic_t $ lambda_t ~default:0.5
      $ scheme_t $ src_t $ dst_t $ bw_t $ top_t $ dot_t $ chain_t
      $ srlg_size_t)

(* ---- serve: throughput-gated admission-control service loop ------------- *)

let serve_cmd =
  let module Serve = Dr_service.Serve in
  let module Serve_exp = Dr_exp.Serve_exp in
  let scheme_t =
    scheme_t
      ~doc:
        "Link-state scheme to serve with: d-lsr, p-lsr or spf (bounded \
         flooding shares mutable flood statistics and is not servable)."
  in
  let batch_t =
    int_t "batch" Serve.default.Serve.sv_batch
      ~doc:"Requests per admission batch."
  in
  let reorder_t =
    flag_t "reorder"
      ~doc:
        "Commit each batch in locality order (grouped by source, then \
         destination) instead of arrival order."
  in
  let what_if_every_t =
    int_t "what-if-every" Serve.default.Serve.sv_what_if_every
      ~doc:"Inject a what-if query burst every $(docv) batches (0 = never)."
  in
  let what_if_burst_t =
    int_t "what-if-burst" Serve.default.Serve.sv_what_if_burst
      ~doc:"Queries per what-if burst."
  in
  let probe_every_t =
    int_t "probe-every" Serve.default.Serve.sv_probe_every
      ~doc:
        "Evaluate a seeded link-failure probe every $(docv) batches (0 = \
         never)."
  in
  let check_every_t =
    int_t "check-every" Serve.default.Serve.sv_check_every
      ~doc:
        "Audit state invariants, every APLV count included, every \
         $(docv) batches (a final audit always runs)."
  in
  let smoke_t =
    flag_t "smoke"
      ~doc:
        "Tiny fixed-seed run for CI: a short horizon, frequent invariant \
         audits, nonzero exit on any violation."
  in
  let wal_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"PATH"
          ~doc:
            "Write-ahead-log every admission and release to $(docv) (the \
             checkpoint lives at $(docv).ckpt); enables crash recovery.")
  in
  let checkpoint_every_t =
    int_t "checkpoint-every" Serve.default.Serve.sv_checkpoint_every
      ~doc:
        "Checkpoint the manager once the WAL tail reaches $(docv) \
         records (at the next batch boundary); 0 = never."
  in
  let crash_every_t =
    int_t "crash-every" Serve.default.Serve.sv_crash_every
      ~doc:
        "Crash the manager every $(docv) batches and recover it from \
         the checkpoint + WAL tail (requires $(b,--wal)); 0 = never."
  in
  let queue_cap_t =
    int_t "queue-cap" Serve.default.Serve.sv_queue_cap
      ~doc:
        "Bound the admission queue at $(docv) requests; excess arrivals \
         are shed with a journalled verdict (0 = unbounded)."
  in
  let deadline_t =
    Arg.(
      value
      & opt float Serve.default.Serve.sv_deadline
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Shed queued requests whose simulated wait exceeds $(docv) at \
             flush time (0 = off).")
  in
  let overload_every_t =
    int_t "overload-every" Serve.default.Serve.sv_overload_every
      ~doc:
        "Inject a seeded synthetic request burst every $(docv) batches \
         (0 = off)."
  in
  let overload_burst_t =
    int_t "overload-burst" Serve.default.Serve.sv_overload_burst
      ~doc:"Synthetic requests per overload burst."
  in
  let run { cfg; seed; _ } degree traffic lambda scheme batch reorder
      what_if_every what_if_burst probe_every check_every smoke wal
      checkpoint_every crash_every queue_cap deadline overload_every
      overload_burst =
    let cfg =
      if smoke then { cfg with Dr_exp.Config.warmup = 600.0; horizon = 1200.0 }
      else cfg
    in
    let serve_cfg =
      {
        Serve.default with
        Serve.sv_batch = batch;
        sv_reorder = reorder;
        sv_what_if_every = what_if_every;
        sv_what_if_burst = what_if_burst;
        sv_probe_every = probe_every;
        sv_check_every = (if smoke then min check_every 4 else check_every);
        sv_bw = cfg.Dr_exp.Config.bw_req;
        sv_seed = seed;
        sv_wal = wal;
        sv_checkpoint_every = checkpoint_every;
        sv_crash_every = crash_every;
        sv_queue_cap = queue_cap;
        sv_deadline = deadline;
        sv_overload_every = overload_every;
        sv_overload_burst = overload_burst;
      }
    in
    let params =
      { Serve_exp.scheme; traffic; lambda; avg_degree = degree; serve = serve_cfg }
    in
    let report = Serve_exp.run cfg params in
    (* Deterministic counts on stdout (CI diffs them); wall-clock
       throughput/latency/GC on stderr. *)
    Format.printf "%a%!" Serve.pp_deterministic report;
    Format.eprintf "%a%!" Serve.pp_timing report;
    if report.Serve.rp_invariant_failures > 0 then exit 1;
    if smoke && report.Serve.rp_accepted = 0 then begin
      prerr_endline "drtp_sim serve --smoke: no admissions were accepted";
      exit 1
    end
  in
  cmd "serve"
    ~doc:
      "Drive a seeded open-loop request stream through the batched admission \
       service, with interleaved what-if queries and failure probes; reports \
       sustained admissions/sec and latency quantiles.  Runs on one domain: \
       $(b,--jobs) is accepted and changes nothing."
    Term.(
      const run $ common_t $ degree_t $ traffic_t $ lambda_t ~default:0.4
      $ scheme_t $ batch_t $ reorder_t $ what_if_every_t $ what_if_burst_t
      $ probe_every_t $ check_every_t $ smoke_t $ wal_t $ checkpoint_every_t
      $ crash_every_t $ queue_cap_t $ deadline_t $ overload_every_t
      $ overload_burst_t)

(* ---- recover: rebuild a manager from checkpoint + WAL ------------------- *)

let recover_cmd =
  let module Persist = Dr_persist.Persist in
  let scheme_t =
    scheme_t
      ~doc:
        "Link-state scheme the logged run served with (d-lsr, p-lsr or spf) \
         — replay must route exactly as the live run did."
  in
  let wal_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "wal" ] ~docv:"PATH"
          ~doc:
            "Write-ahead log to recover from (the checkpoint is read from \
             $(docv).ckpt when present).")
  in
  let smoke_t =
    flag_t "smoke"
      ~doc:
        "Use the serve $(b,--smoke) topology parameters, so the digest \
         is comparable with a smoke run's."
  in
  let run degree scheme quick smoke wal seed =
    let cfg = config_of ~quick:(quick || smoke) ~seed in
    let graph = Dr_exp.Config.make_graph cfg ~avg_degree:degree in
    let route = Drtp.Routing.link_state_route_fn scheme ~with_backup:true in
    let manager =
      Drtp.Manager.create ~graph ~capacity:cfg.Dr_exp.Config.capacity
        ~spare_policy:Drtp.Net_state.Multiplexed ~route
    in
    match Persist.recover (Persist.default_config ~wal_path:wal) ~manager with
    | Error e ->
        Printf.eprintf "drtp_sim recover: %s\n%!" e;
        exit 1
    | Ok rv ->
        let state = Drtp.Manager.state manager in
        (match Drtp.Net_state.check_invariants state with
        | Ok () -> ()
        | Error m ->
            (* Flush pending stdout before the stderr diagnostic so the
               two streams never interleave mid-line. *)
            Format.print_flush ();
            Printf.eprintf "drtp_sim recover: check_invariants failed: %s\n%!" m;
            exit 1);
        Format.printf "recover: checkpoint-seq=%d replayed=%d wal-seq=%d@."
          rv.Persist.rv_checkpoint_seq rv.Persist.rv_replayed
          rv.Persist.rv_wal_seq;
        Format.printf "recover: active=%d digest=%s@."
          (Drtp.Net_state.active_count state)
          (Dr_persist.State_digest.manager_hex graph manager);
        Format.print_flush ()
  in
  cmd "recover"
    ~doc:
      "Rebuild admission-control state from a serve run's checkpoint and \
       write-ahead-log tail, audit its invariants, and print the state digest \
       — compare with the serve run's $(b,digest=) line to verify \
       crash-recovery equivalence."
    Term.(const run $ degree_t $ scheme_t $ quick_t $ smoke_t $ wal_t $ seed_t)

(* ---- check-routing: fast path vs reference oracle ----------------------- *)

let check_routing_cmd =
  let module RC = Drtp.Routing_check in
  let graphs_t =
    int_t "graphs" RC.default_params.RC.graphs
      ~doc:"Independent Waxman graphs to check."
  in
  let nodes_t =
    int_t "nodes" RC.default_params.RC.nodes ~doc:"Nodes per graph."
  in
  let admissions_t =
    int_t "admissions" RC.default_params.RC.admissions
      ~doc:"Random admission attempts per graph per scheme."
  in
  let run jobs graphs nodes admissions degree seed =
    let params =
      {
        RC.default_params with
        RC.graphs;
        nodes;
        admissions;
        avg_degree = degree;
        seed;
      }
    in
    let report =
      Pool.with_pool ~jobs (fun pool ->
          let results =
            Pool.map pool
              (fun g -> RC.run_graph params ~graph_index:g)
              (Array.init graphs (fun g -> g))
          in
          Array.fold_left
            (fun acc res ->
              match res with
              | Ok r -> RC.merge acc r
              | Error e ->
                  RC.merge acc
                    {
                      RC.empty_report with
                      RC.divergence_count = 1;
                      divergences =
                        [
                          Printf.sprintf "graph %d: harness crashed: %s"
                            e.Pool.index
                            e.Pool.message;
                        ];
                    })
            RC.empty_report results)
    in
    Format.printf "%a@." RC.pp_report report;
    if report.RC.divergence_count > 0 then begin
      Format.printf "check-routing: FAIL (%d divergences)@."
        report.RC.divergence_count;
      exit 1
    end
    else Format.printf "check-routing: OK@."
  in
  cmd "check-routing"
    ~doc:
      "Differential check of the routing fast path against the reference \
       oracle: replay randomized admission workloads (all three schemes, with \
       failure churn) on Waxman graphs, comparing routes and bit-exact \
       per-link cost decompositions between $(b,Routing) and \
       $(b,Routing_reference).  Exits non-zero on any divergence."
    Term.(
      const run $ jobs_t $ graphs_t $ nodes_t $ admissions_t $ degree_t
      $ seed_t)

(* ---- chaos: robustness sweep under control-plane loss + repair churn ----- *)

let under_test_t =
  scheme_t ~doc:"Link-state scheme under test: d-lsr, p-lsr or spf."

let chaos_cmd =
  let losses_t =
    Arg.(
      value
      & opt (list float) Dr_exp.Robustness_exp.default_losses
      & info [ "losses" ] ~docv:"P,P,..."
          ~doc:"Control-message loss probabilities to sweep (comma-separated).")
  in
  let mtbfs_t =
    Arg.(
      value
      & opt (list float) Dr_exp.Robustness_exp.default_mtbfs
      & info [ "mtbfs" ] ~docv:"S,S,..."
          ~doc:"Mean times between link failures to sweep (seconds).")
  in
  let mttr_t = seconds_t "mttr" 60.0 ~doc:"Mean time to repair (seconds)." in
  let no_queue_t =
    flag_t "no-queue"
      ~doc:
        "Disable the reprotection queue (the no-queue baseline for the \
         differential comparison)."
  in
  let baseline_t =
    flag_t "baseline"
      ~doc:
        "Bypass the fault-injection layer entirely (no loss plan is \
         even installed).  A sweep at $(b,--losses) 0 must be \
         byte-identical to this — the zero-loss equivalence CI gate."
  in
  let run { cfg; jobs; seed; _ } degree traffic lambda scheme losses mtbfs
      mttr no_queue baseline =
    let rows =
      Pool.with_pool ~jobs (fun pool ->
          Dr_exp.Robustness_exp.run ~pool cfg ~avg_degree:degree ~traffic
            ~lambda ~scheme ~losses ~mtbfs ~mttr ~queue:(not no_queue)
            ~fault_layer:(not baseline)
            ~seed:((seed * 31) + 7) ())
    in
    Format.printf "%a@." Dr_exp.Robustness_exp.pp rows
  in
  cmd "chaos"
    ~doc:
      "Robustness sweep: recovery success, latency (retransmissions included) \
       and time-unprotected over a loss-probability x repair-churn grid, with \
       lossy failure reports and activation signals and the manager's \
       reprotection queue."
    Term.(
      const run $ common_t $ degree_t $ traffic_t $ lambda_t ~default:0.5
      $ under_test_t $ losses_t $ mtbfs_t $ mttr_t $ no_queue_t $ baseline_t)

(* ---- srlg: k-resilient chains under correlated failures ------------------ *)

let srlg_cmd =
  let ks_t =
    Arg.(
      value
      & opt (list int) Dr_exp.Resilience_exp.default_ks
      & info [ "ks" ] ~docv:"K,K,..."
          ~doc:"Backup-chain depths to sweep (comma-separated).")
  in
  let sizes_t =
    Arg.(
      value
      & opt (list int) Dr_exp.Resilience_exp.default_sizes
      & info [ "sizes" ] ~docv:"S,S,..."
          ~doc:
            "Mean SRLG sizes to sweep; 1 is the singleton model (the \
             paper's independent single-link failures).")
  in
  let mtbf_t =
    seconds_t "mtbf" 300.0
      ~doc:"Mean time between correlated failure events (seconds)."
  in
  let mttr_t =
    seconds_t "mttr" 60.0 ~doc:"Mean group outage duration (seconds)."
  in
  let baseline_t =
    flag_t "baseline"
      ~doc:
        "Route with SRLG-blind backup sets \
         ($(b,link_state_route_fn ~backup_count:k)) instead of \
         SRLG-disjoint chains.  At $(b,--sizes) 1 this must be \
         byte-identical to the chain router — the singleton \
         equivalence CI gate."
  in
  let regional_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "regional" ] ~docv:"RADIUS"
          ~doc:
            "Merge a geographic burst schedule into the sweep: each event \
             fails every alive edge whose midpoint lies within $(docv) of \
             a random disc center in the unit square.")
  in
  let overlay_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "overlay" ] ~docv:"EXTRA"
          ~doc:
            "Replace the SRLG partition with singletons plus $(docv) \
             random overlapping groups of $(b,--sizes) edges each \
             (edges may belong to several risk groups).")
  in
  let run { cfg; jobs; seed; _ } degree traffic lambda scheme ks sizes mtbf
      mttr regional overlay baseline =
    let rows =
      Pool.with_pool ~jobs (fun pool ->
          Dr_exp.Resilience_exp.run ~pool cfg ~avg_degree:degree ~traffic
            ~lambda ~scheme ~ks ~mean_sizes:sizes ~mtbf ~mttr ?regional
            ?overlay ~baseline
            ~seed:((seed * 37) + 11) ())
    in
    Format.printf "%a@." Dr_exp.Resilience_exp.pp rows
  in
  cmd "srlg"
    ~doc:
      "Correlated-failure sweep: k-resilient backup chains over random \
       shared-risk link groups, failing whole groups at a time.  Shows the \
       k=1 dependability degradation under correlated failures and how much \
       deeper SRLG-disjoint chains win back, plus the acceptance-ratio cost \
       of the generalised spare rule."
    Term.(
      const run $ common_t $ degree_t $ traffic_t $ lambda_t ~default:0.5
      $ under_test_t $ ks_t $ sizes_t $ mtbf_t $ mttr_t $ regional_t
      $ overlay_t $ baseline_t)

(* ---- shard: sharded control plane, convergence-lag sweep ----------------- *)

let shard_cmd =
  let shards_t =
    Arg.(
      value
      & opt (list int) Dr_exp.Shard_exp.default_parts
      & info [ "shards" ] ~docv:"N,N,..."
          ~doc:
            "Shard counts to sweep (comma-separated); 1 is the centralised \
             anchor configuration.")
  in
  let intervals_t =
    Arg.(
      value
      & opt (list float) Dr_exp.Shard_exp.default_intervals
      & info [ "intervals" ] ~docv:"S,S,..."
          ~doc:
            "Triggered-LSA damping intervals to sweep (seconds, \
             comma-separated); 0 floods every change immediately.")
  in
  let losses_t =
    Arg.(
      value
      & opt (list float) Dr_exp.Shard_exp.default_losses
      & info [ "losses" ] ~docv:"P,P,..."
          ~doc:"LSA/setup/ACK loss probabilities to sweep (comma-separated).")
  in
  let refresh_t =
    seconds_t "refresh" 30.0
      ~doc:
        "Periodic full re-advertisement period (seconds); 0 disables, \
         leaving loss repair to triggered traffic."
  in
  let flood_delay_t =
    seconds_t "flood-delay" 0.050
      ~doc:"LSA origination-to-delivery latency (seconds)."
  in
  let hop_delay_t =
    seconds_t "hop-delay" 0.001 ~doc:"Per-hop setup/teardown latency (seconds)."
  in
  let retries_t =
    int_t "retries" 1
      ~doc:"Crankback budget per connection after a stale-view rejection."
  in
  let backups_t = int_t "backups" 1 ~doc:"Backups per DR-connection." in
  let baseline_t =
    flag_t "baseline"
      ~doc:
        "Drive the same workload and sampling through the centralised \
         $(b,Drtp.Manager) instead of the sharded control plane.  A \
         sweep at $(b,--shards) 1 must be byte-identical to this — \
         the single-shard equivalence CI gate."
  in
  let run { cfg; jobs; seed; _ } degree traffic lambda scheme shards
      intervals losses refresh flood_delay hop_delay retries backups baseline =
    let rows =
      Pool.with_pool ~jobs (fun pool ->
          Dr_exp.Shard_exp.run ~pool cfg ~avg_degree:degree ~traffic ~lambda
            ~scheme ~backup_count:backups ~parts_list:shards ~intervals ~losses
            ~lsa_refresh:refresh ~flood_delay ~hop_delay ~max_retries:retries
            ~baseline
            ~seed:((seed * 41) + 13) ())
    in
    Format.printf "%a@." Dr_exp.Shard_exp.pp rows
  in
  cmd "shard"
    ~doc:
      "Sharded-control-plane sweep: partition the topology into region shards \
       exchanging sequence-numbered link-state advertisements over lossy \
       channels, and measure convergence lag, advertisement age at decision \
       time, and how often stale inter-shard routing diverges from the \
       omniscient choice, over a shard-count x LSA-interval x loss grid."
    Term.(
      const run $ common_t $ degree_t $ traffic_t $ lambda_t ~default:0.5
      $ under_test_t $ shards_t $ intervals_t $ losses_t $ refresh_t
      $ flood_delay_t $ hop_delay_t $ retries_t $ backups_t $ baseline_t)

(* ---- inspect: summarise a journal file ---------------------------------- *)

let inspect_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL" ~doc:"Journal JSONL file to summarise.")
  in
  let check_t =
    flag_t "check"
      ~doc:
        "Schema-validate only: parse every line and exit 1 if any line \
         is malformed or of unknown event kind."
  in
  let top_t = int_t "top" 10 ~doc:"Rows per ranking table." in
  let run file check top =
    let num fields name =
      match List.assoc_opt name fields with
      | Some (Journal.Num v) -> Some v
      | _ -> None
    in
    let lines = ref 0 and error_count = ref 0 in
    let first_errors = ref [] in
    let kind_counts = Hashtbl.create 32 in
    (* Conflict mass each link accumulated across backup-chosen cost rows:
       the links the schemes kept paying for are the contended ones. *)
    let contended = Hashtbl.create 64 in
    (* Spare-capacity high water per link, with the sim time it was first
       reached (from spare-change events). *)
    let spare_hw = Hashtbl.create 64 in
    let s_det = ref 0.0 and s_rep = ref 0.0 and s_act = ref 0.0 in
    let n_act = ref 0 and n_lost = ref 0 and n_cont = ref 0 in
    (* Chain health: membership and disjointness at build time, residual
       resilience (members left) after each failover, exhaustions. *)
    let n_built = ref 0 and s_members = ref 0 and s_disjoint = ref 0 in
    let remaining_hist = Hashtbl.create 8 in
    let n_failover = ref 0 and n_exhausted = ref 0 in
    (* Victim mass per SRLG across group-failed events: the risk groups
       whose failure keeps hurting are the exposed ones. *)
    let group_victims = Hashtbl.create 16 in
    (* Events the bounded ring overwrote before export ([ring-dropped]
       lines): the journal is a suffix of what the run recorded. *)
    let ring_dropped = ref 0 in
    let folded =
      Journal.fold_jsonl file ~init:() ~f:(fun () lineno parsed ->
          incr lines;
          match parsed with
          | Error msg ->
              incr error_count;
              if List.length !first_errors < 5 then
                first_errors := (lineno, msg) :: !first_errors
          | Ok p ->
              Hashtbl.replace kind_counts p.Journal.p_kind
                (1
                + Option.value
                    (Hashtbl.find_opt kind_counts p.Journal.p_kind)
                    ~default:0);
              let fields = p.Journal.p_fields in
              (match p.Journal.p_kind with
              | "backup-chosen" -> (
                  match List.assoc_opt "links" fields with
                  | Some (Journal.Arr rows) ->
                      List.iter
                        (function
                          | Journal.Obj row -> (
                              match (num row "link", num row "conflict") with
                              | Some l, Some c ->
                                  let l = int_of_float l in
                                  let s, k =
                                    Option.value
                                      (Hashtbl.find_opt contended l)
                                      ~default:(0.0, 0)
                                  in
                                  Hashtbl.replace contended l (s +. c, k + 1)
                              | _ -> ())
                          | _ -> ())
                        rows
                  | _ -> ())
              | "spare-change" -> (
                  match (num fields "link", num fields "after") with
                  | Some l, Some after -> (
                      let l = int_of_float l in
                      match Hashtbl.find_opt spare_hw l with
                      | Some (peak, _) when after <= peak -> ()
                      | _ -> Hashtbl.replace spare_hw l (after, p.Journal.p_time)
                      )
                  | _ -> ())
              | "backup-activated" -> (
                  match
                    ( num fields "detection_s",
                      num fields "report_s",
                      num fields "activation_s" )
                  with
                  | Some d, Some r, Some a ->
                      s_det := !s_det +. d;
                      s_rep := !s_rep +. r;
                      s_act := !s_act +. a;
                      incr n_act
                  | _ -> ())
              | "connection-lost" -> incr n_lost
              | "backup-contended" -> incr n_cont
              | "chain-built" -> (
                  match (num fields "members", num fields "disjoint") with
                  | Some m, Some d ->
                      incr n_built;
                      s_members := !s_members + int_of_float m;
                      s_disjoint := !s_disjoint + int_of_float d
                  | _ -> ())
              | "chain-failover" -> (
                  incr n_failover;
                  match num fields "remaining" with
                  | Some r ->
                      let r = int_of_float r in
                      Hashtbl.replace remaining_hist r
                        (1
                        + Option.value
                            (Hashtbl.find_opt remaining_hist r)
                            ~default:0)
                  | None -> ())
              | "chain-exhausted" -> incr n_exhausted
              | "ring-dropped" -> (
                  match num fields "count" with
                  | Some c -> ring_dropped := !ring_dropped + int_of_float c
                  | None -> ())
              | "group-failed" -> (
                  match (num fields "group", num fields "victims") with
                  | Some g, Some v ->
                      let g = int_of_float g in
                      let s, k =
                        Option.value
                          (Hashtbl.find_opt group_victims g)
                          ~default:(0, 0)
                      in
                      Hashtbl.replace group_victims g
                        (s + int_of_float v, k + 1)
                  | _ -> ())
              | _ -> ()))
    in
    match folded with
    | Error msg -> usage_error "cannot read %s (%s)" file msg
    | Ok () ->
        if check then begin
          Printf.printf "%s: %d lines, %d errors\n" file !lines !error_count;
          List.iter
            (fun (ln, msg) -> Printf.printf "  line %d: %s\n" ln msg)
            (List.rev !first_errors);
          if !error_count > 0 then exit 1
        end
        else begin
          Format.printf "# journal %s: %d events%s@." file !lines
            (if !error_count > 0 then
               Printf.sprintf " (%d malformed lines!)" !error_count
             else "");
          if !ring_dropped > 0 then
            Format.printf
              "# warning: ring overwrote %d events before export — the \
               journal is a suffix of the run; traces may be incomplete@."
              !ring_dropped;
          print_kind_counts
            (List.map
               (fun k ->
                 (k, Option.value ~default:0 (Hashtbl.find_opt kind_counts k)))
               Journal.all_kinds);
          let ranked tbl =
            List.sort compare
              (Hashtbl.fold (fun l (v, x) acc -> (-.v, l, x) :: acc) tbl [])
          in
          (match ranked contended with
          | [] -> ()
          | rows ->
              Format.printf
                "@.@[<v># top contended links (conflict mass across \
                 backup-chosen rows)@,";
              List.iteri
                (fun i (neg_sum, l, k) ->
                  if i < top then
                    Format.printf "link %-5d conflict-sum %10.1f over %d rows@,"
                      l (-.neg_sum) k)
                rows;
              Format.printf "@]@.");
          (match
             List.sort compare
               (Hashtbl.fold
                  (fun l (peak, t) acc -> (-.peak, t, l) :: acc)
                  spare_hw [])
           with
          | [] -> ()
          | rows ->
              Format.printf
                "@.@[<v># spare-capacity high water (SC_i peaks)@,";
              List.iteri
                (fun i (neg_peak, t, l) ->
                  if i < top then
                    Format.printf
                      "link %-5d peak %4.0f units, first reached t=%.1f s@," l
                      (-.neg_peak) t)
                rows;
              Format.printf "@]@.");
          if !n_act > 0 || !n_lost > 0 || !n_cont > 0 then begin
            Format.printf "@.@[<v># recovery breakdown@,";
            (if !n_act > 0 then
               let m = float_of_int !n_act in
               Format.printf
                 "backup activations %d: mean detection %.4f s + report %.4f \
                  s + activation %.4f s = %.4f s@,"
                 !n_act (!s_det /. m) (!s_rep /. m) (!s_act /. m)
                 ((!s_det +. !s_rep +. !s_act) /. m));
            Format.printf "contended backups %d, connections lost %d@," !n_cont
              !n_lost;
            Format.printf "@]@."
          end;
          if !n_built > 0 || !n_failover > 0 || !n_exhausted > 0 then begin
            Format.printf "@.@[<v># chain health@,";
            (if !n_built > 0 then
               let m = float_of_int !n_built in
               Format.printf
                 "chains built %d: mean members %.2f, mean srlg-disjoint \
                  %.2f@,"
                 !n_built
                 (float_of_int !s_members /. m)
                 (float_of_int !s_disjoint /. m));
            Format.printf "failovers %d, chains exhausted %d@," !n_failover
              !n_exhausted;
            (match
               List.sort compare
                 (Hashtbl.fold (fun r c acc -> (r, c) :: acc) remaining_hist [])
             with
            | [] -> ()
            | rows ->
                Format.printf
                  "residual resilience after failover (members left -> \
                   connections):@,";
                List.iter
                  (fun (r, c) -> Format.printf "  %d left %8d@," r c)
                  rows);
            Format.printf "@]@."
          end;
          match
            List.sort compare
              (Hashtbl.fold
                 (fun g (v, k) acc -> (-v, g, k) :: acc)
                 group_victims [])
          with
          | [] -> ()
          | rows ->
              Format.printf
                "@.@[<v># top srlgs by exposure (victims across group-failed \
                 events)@,";
              List.iteri
                (fun i (neg_v, g, k) ->
                  if i < top then
                    Format.printf "group %-5d victims %6d over %d events@," g
                      (-neg_v) k)
                rows;
              Format.printf "@]@."
        end
  in
  cmd "inspect"
    ~doc:
      "Summarise a flight-recorder journal (written with $(b,--journal)): \
       event histogram, top contended links, spare-capacity high-water marks \
       and the recovery-latency phase breakdown."
    Term.(const run $ file_t $ check_t $ top_t)

(* ---- trace: causal-trace assembly and critical-path report -------------- *)

let trace_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL"
          ~doc:
            "Journal JSONL file (written with $(b,--journal)) carrying \
             span-open/span-close records.")
  in
  let perfetto_t =
    output_t "perfetto"
      ~doc:
        "Also write the traces as Chrome trace-event JSON to $(docv) — load \
         in ui.perfetto.dev to inspect tails visually."
  in
  let check_t =
    flag_t "check"
      ~doc:
        "Validate trace structure only: duplicate spans, unclosed \
         spans, dangling parent/cause edges, cycles, multi-root \
         traces.  Exit 1 on structural errors; ring-overwrite \
         incompleteness is reported as a warning, not an error."
  in
  let top_t =
    int_t "top" 5 ~doc:"Slowest traces whose critical paths are spelled out."
  in
  let run file perfetto check top =
    let module Tr = Dr_trace.Trace in
    match Tr.of_file file with
    | Error msg -> usage_error "cannot read %s (%s)" file msg
    | Ok t ->
        Option.iter
          (fun (_, oc) ->
            Tr.write_perfetto t oc;
            close_out oc)
          perfetto;
        if check then begin
          let issues = Tr.check t in
          let errors = List.filter Tr.is_error issues in
          Printf.printf "%s: %d spans in %d traces, %d errors, %d warnings\n"
            file (Tr.span_count t)
            (List.length (Tr.traces t))
            (List.length errors)
            (List.length issues - List.length errors);
          List.iter (fun m -> Printf.printf "  %s\n" m) issues;
          if errors <> [] then exit 1
        end
        else Tr.report ~top Format.std_formatter t
  in
  cmd "trace"
    ~doc:
      "Assemble the causal traces recorded in a flight-recorder journal and \
       report sim-time critical paths: per-phase attribution tables with \
       p50/p95/p99 quantiles, the slowest traces spelled out, optional \
       Perfetto (Chrome trace-event) export, and a structural validation mode \
       ($(b,--check))."
    Term.(const run $ file_t $ perfetto_t $ check_t $ top_t)

let default_info =
  Cmd.info "drtp_sim" ~version:"1.0.0"
    ~doc:
      "Reproduction of 'Design and Evaluation of Routing Schemes for \
       Dependable Real-Time Connections' (DSN 2001)."

let () =
  (* Surface silent flooding degradation: a truncated flood means BF routed
     on an incomplete candidate set.  Warn once per process (floods may run
     on worker domains, hence the atomic latch); every occurrence is also
     journalled as a [flood-truncated] event. *)
  let truncation_warned = Atomic.make false in
  (Dr_flood.Bounded_flood.on_truncated :=
     fun ~src ~dst ~messages ->
       if not (Atomic.exchange truncation_warned true) then
         Printf.eprintf
           "drtp_sim: warning: bounded flood %d->%d truncated at %d messages \
            (cdp_cap reached); BF candidate sets are incomplete — consider a \
            larger cdp_cap\n\
            %!"
           src dst messages);
  let cmds =
    [
      table1_cmd; fig4_cmd; fig5_cmd; details_cmd; claims_cmd; ablate_cmd;
      replicate_cmd; staleness_cmd; availability_cmd; overhead_cmd;
      recovery_cmd; chaos_cmd; srlg_cmd; shard_cmd; topo_cmd; scenario_cmd;
      replay_cmd; explain_cmd; serve_cmd; recover_cmd; inspect_cmd; trace_cmd;
      check_routing_cmd;
    ]
  in
  exit (Cmd.eval (Cmd.group default_info cmds))
