module Graph = Dr_topo.Graph
module Path = Dr_topo.Path
module Net_state = Drtp.Net_state
module Resources = Drtp.Resources
module Aplv = Drtp.Aplv

(* 3x3 mesh:   0 - 1 - 2
               |   |   |
               3 - 4 - 5
               |   |   |
               6 - 7 - 8 *)
let mesh () = Dr_topo.Gen.mesh ~rows:3 ~cols:3

let state ?(capacity = 10) ?(policy = Net_state.Multiplexed) () =
  let graph = mesh () in
  (graph, Net_state.create ~graph ~capacity ~spare_policy:policy)

let path g nodes = Path.of_nodes g nodes

let link g a b = Option.get (Graph.find_link g ~src:a ~dst:b)

let check_inv state =
  match Net_state.check_invariants state with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant violated: %s" msg

let test_admit_reserves () =
  let g, st = state () in
  let primary = path g [ 0; 1; 2 ] and backup = path g [ 0; 3; 4; 5; 2 ] in
  let conn = Net_state.admit st ~id:1 ~bw:2 ~primary ~backups:[ backup ] in
  Alcotest.(check bool) "not degraded" false conn.Net_state.degraded;
  let r = Net_state.resources st in
  List.iter
    (fun l -> Alcotest.(check int) "prime on primary links" 2 (Resources.prime_bw r l))
    (Path.links primary);
  List.iter
    (fun l -> Alcotest.(check int) "spare on backup links" 2 (Resources.spare_bw r l))
    (Path.links backup);
  Alcotest.(check int) "active" 1 (Net_state.active_count st);
  check_inv st

let test_admit_without_backup () =
  let g, st = state () in
  let primary = path g [ 0; 1 ] in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary ~backups:[]);
  Alcotest.(check int) "no spare anywhere" 0 (Resources.total_spare (Net_state.resources st));
  check_inv st

let test_multiplexing_disjoint_primaries () =
  let g, st = state () in
  (* P1 = top row, P2 = middle row (disjoint); both backups use the bottom
     corridor. *)
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2; 5; 8 ])
       ~backups:[ path g [ 0; 3; 6; 7; 8 ] ]);
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 3; 4; 5 ])
       ~backups:[ path g [ 3; 6; 7; 8; 5 ] ]);
  let shared = link g 6 7 in
  Alcotest.(check int) "two backups on shared link" 2
    (Net_state.backup_count_on_link st ~link:shared);
  Alcotest.(check int) "but spare for one (safe multiplexing)" 1
    (Net_state.spare_required st ~link:shared);
  Alcotest.(check int) "spare actually reserved" 1
    (Resources.spare_bw (Net_state.resources st) shared);
  check_inv st

let test_conflicting_primaries_need_more_spare () =
  let g, st = state () in
  (* Both primaries cross edge (1,2); both backups cross link 3->4. *)
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 1; 2; 5 ])
       ~backups:[ path g [ 1; 4; 5 ] ]);
  (* Conflicting pair on link 4->5. *)
  let contended = link g 4 5 in
  Alcotest.(check int) "spare for two" 2 (Net_state.spare_required st ~link:contended);
  Alcotest.(check int) "deficit zero (capacity suffices)" 0
    (Net_state.spare_deficit st ~link:contended);
  check_inv st

let test_release_returns_everything () =
  let g, st = state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:3 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  Net_state.release st ~id:1;
  let r = Net_state.resources st in
  Alcotest.(check int) "no prime" 0 (Resources.total_prime r);
  Alcotest.(check int) "no spare" 0 (Resources.total_spare r);
  Alcotest.(check int) "no conns" 0 (Net_state.active_count st);
  Graph.iter_links g (fun l ->
      Alcotest.(check int) "APLV empty" 0 (Aplv.norm1 (Net_state.aplv st l)));
  check_inv st

let test_release_unknown () =
  let _, st = state () in
  Alcotest.(check bool) "raises" true
    (try Net_state.release st ~id:9; false with Invalid_argument _ -> true)

let test_admit_duplicate_id () =
  let g, st = state () in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1 ]) ~backups:[]);
  Alcotest.(check bool) "duplicate id raises" true
    (try
       ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 3; 4 ]) ~backups:[]);
       false
     with Invalid_argument _ -> true)

let test_admit_infeasible_primary () =
  let g, st = state ~capacity:2 () in
  ignore (Net_state.admit st ~id:1 ~bw:2 ~primary:(path g [ 0; 1 ]) ~backups:[]);
  Alcotest.(check bool) "full link raises" true
    (try
       ignore (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 1; 2 ]) ~backups:[]);
       false
     with Invalid_argument _ -> true)

let test_degraded_when_no_room_for_spare () =
  let g, st = state ~capacity:2 () in
  (* Fill link 3->4 with primaries so its spare pool cannot grow. *)
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 3; 4 ]) ~backups:[]);
  ignore (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 3; 4; 7 ]) ~backups:[]);
  (* Conn 3's backup runs through the full link: available_for_backup = 0
     there, so admission must refuse it outright. *)
  Alcotest.(check bool) "backup on full link rejected" true
    (try
       ignore
         (Net_state.admit st ~id:3 ~bw:1 ~primary:(path g [ 0; 1 ])
            ~backups:[ path g [ 0; 3; 4; 1 ] ]);
       false
     with Invalid_argument _ -> true);
  (* Now a link where prime = 1, spare = 1 and a conflicting second backup
     wants spare 2: the grow fails, the connection is degraded. *)
  let _, st = state ~capacity:2 () in
  let g = Net_state.graph st in
  ignore (Net_state.admit st ~id:10 ~bw:1 ~primary:(path g [ 3; 4 ]) ~backups:[]);
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  let c2 =
    Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 1; 4 ])
      ~backups:[ path g [ 0; 3; 4 ] ]
  in
  Alcotest.(check bool) "conflicting backup degraded" true c2.Net_state.degraded;
  Alcotest.(check int) "deficit recorded" 1
    (Net_state.spare_deficit st ~link:(link g 0 3) + Net_state.spare_deficit st ~link:(link g 3 4));
  check_inv st

let test_deficit_reclaimed_after_release () =
  let g, st = state ~capacity:2 () in
  (* Occupy link 0->3 with a primary, then create a conflicting backup pair
     needing 2 spare units there; one unit short -> deficit. *)
  ignore (Net_state.admit st ~id:10 ~bw:1 ~primary:(path g [ 0; 3 ]) ~backups:[]);
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 1; 4 ])
       ~backups:[ path g [ 0; 3; 4 ] ]);
  let l03 = link g 0 3 in
  Alcotest.(check int) "deficit present" 1 (Net_state.spare_deficit st ~link:l03);
  (* Releasing the occupying primary frees a unit, which must flow into the
     deficient spare pool (§5 last paragraph). *)
  Net_state.release st ~id:10;
  Alcotest.(check int) "deficit repaired" 0 (Net_state.spare_deficit st ~link:l03);
  Alcotest.(check int) "spare now 2" 2 (Resources.spare_bw (Net_state.resources st) l03);
  check_inv st

let test_dedicated_policy () =
  let g, st = state ~policy:Net_state.Dedicated () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2; 5; 8 ])
       ~backups:[ path g [ 0; 3; 6; 7; 8 ] ]);
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 3; 4; 5 ])
       ~backups:[ path g [ 3; 6; 7; 8; 5 ] ]);
  let shared = link g 6 7 in
  Alcotest.(check int) "dedicated: spare for each backup" 2
    (Net_state.spare_required st ~link:shared);
  check_inv st

let test_primaries_crossing_edge () =
  let g, st = state () in
  ignore
    (Net_state.admit st ~id:2 ~bw:1 ~primary:(path g [ 0; 1; 2 ]) ~backups:[]);
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 2; 1; 0; 3 ]) ~backups:[]);
  ignore (Net_state.admit st ~id:3 ~bw:1 ~primary:(path g [ 6; 7 ]) ~backups:[]);
  let edge01 = Graph.edge_of_link (link g 0 1) in
  let ids =
    List.map (fun c -> c.Net_state.id) (Net_state.primaries_crossing_edge st edge01)
  in
  Alcotest.(check (list int)) "both directions counted, sorted" [ 1; 2 ] ids

let test_promote_backup () =
  let g, st = state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:2 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  Alcotest.(check bool) "activation feasible" true (Net_state.activation_feasible st ~id:1 ());
  Net_state.promote_backup st ~id:1 ();
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check (list int)) "backup became primary" [ 0; 3; 4; 5; 2 ]
    (Path.nodes g conn.Net_state.primary);
  Alcotest.(check bool) "no backup left" true (conn.Net_state.backups = []);
  let r = Net_state.resources st in
  List.iter
    (fun l -> Alcotest.(check int) "new primary reserved" 2 (Resources.prime_bw r l))
    (Path.links conn.Net_state.primary);
  Alcotest.(check int) "old primary links free" 0 (Resources.prime_bw r (link g 0 1));
  Alcotest.(check int) "no spare left" 0 (Resources.total_spare r);
  (* The index must follow the new primary. *)
  let edge34 = Graph.edge_of_link (link g 3 4) in
  Alcotest.(check int) "index updated" 1
    (List.length (Net_state.primaries_crossing_edge st edge34));
  check_inv st

let test_promote_without_backup_rejected () =
  let g, st = state () in
  ignore (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1 ]) ~backups:[]);
  Alcotest.(check bool) "raises" true
    (try Net_state.promote_backup st ~id:1 (); false with Invalid_argument _ -> true)

let test_replace_backup () =
  let g, st = state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  Alcotest.(check int) "kept" 1
    (List.length
       (Net_state.replace_backups_drop st ~id:1 ~backups:[ path g [ 0; 3; 4; 1; 2 ] ]));
  let conn = Option.get (Net_state.find st 1) in
  Alcotest.(check (list int)) "new backup installed" [ 0; 3; 4; 1; 2 ]
    (Path.nodes g (List.hd conn.Net_state.backups));
  Alcotest.(check int) "old backup link spare gone" 0
    (Resources.spare_bw (Net_state.resources st) (link g 4 5));
  check_inv st;
  Alcotest.(check int) "nothing kept" 0
    (List.length (Net_state.replace_backups_drop st ~id:1 ~backups:[]));
  Alcotest.(check int) "unprotected: no spare" 0
    (Resources.total_spare (Net_state.resources st));
  check_inv st

let test_fail_restore_edge () =
  let g, st = state () in
  let e = Graph.edge_of_link (link g 0 1) in
  Alcotest.(check bool) "initially alive" false (Net_state.edge_failed st ~edge:e);
  Net_state.fail_edge st ~edge:e;
  Alcotest.(check bool) "failed" true (Net_state.edge_failed st ~edge:e);
  Net_state.restore_edge st ~edge:e;
  Alcotest.(check bool) "restored" false (Net_state.edge_failed st ~edge:e)

let test_drop () =
  let g, st = state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  Net_state.drop st ~id:1;
  Alcotest.(check int) "gone" 0 (Net_state.active_count st);
  Alcotest.(check int) "resources returned" 0
    (Resources.total_prime (Net_state.resources st));
  check_inv st

(* Four backups share link 3->4; their one-hop primaries cross edges A
   (bw 3), A (bw 1), B (bw 2) and C (bw 1), so the link's weights start at
   A = 4, B = 2, C = 1.  Releasing A(3), B(2), A(1), C(1) in turn lowers
   the maximum through the empty weight 3 (4 -> 2), then past a group
   emptied while another holds the next weight (2 -> 1), then at a tie
   (A and C both at 1: the maximum stays 1), then to nothing.  Under
   [Dedicated] the requirement is the backup total: 7, 4, 2, 1, 0. *)
let test_spare_maximum_steps_down () =
  let admit_four policy =
    let g, st = state ~policy () in
    List.iter
      (fun (id, bw, primary, backup) ->
        ignore
          (Net_state.admit st ~id ~bw ~primary:(path g primary)
             ~backups:[ path g backup ]))
      [
        (1, 3, [ 0; 1 ], [ 0; 3; 4; 1 ]);
        (2, 1, [ 0; 1 ], [ 0; 3; 4; 1 ]);
        (3, 2, [ 6; 7 ], [ 6; 3; 4; 7 ]);
        (4, 1, [ 7; 4 ], [ 7; 6; 3; 4 ]);
      ];
    (g, st)
  in
  List.iter
    (fun (policy, name, steps) ->
      let g, st = admit_four policy in
      let shared = link g 3 4 in
      let required () = Net_state.spare_required st ~link:shared in
      Alcotest.(check int) (name ^ ": four backups") 4
        (Net_state.backup_count_on_link st ~link:shared);
      let first = required () in
      let after =
        List.map
          (fun id ->
            Net_state.release st ~id;
            check_inv st;
            Alcotest.(check int) (name ^ ": spare pool follows") (required ())
              (Resources.spare_bw (Net_state.resources st) shared);
            required ())
          [ 1; 3; 2; 4 ]
      in
      Alcotest.(check (list int)) (name ^ ": requirement steps") steps (first :: after))
    [
      (Net_state.Multiplexed, "multiplexed", [ 4; 2; 1; 1; 0 ]);
      (Net_state.Dedicated, "dedicated", [ 7; 4; 2; 1; 0 ]);
    ]

(* A checkpoint's bandwidths reach the weight rows unchecked by {!admit},
   so [Serial.restore] refuses a non-positive one as [admit] does. *)
let test_restore_rejects_non_positive_bw () =
  let g, st = state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1 ])
       ~backups:[ path g [ 0; 3; 4; 1 ] ]);
  let r = Net_state.Serial.dump st in
  List.iter
    (fun bw ->
      let bad =
        { r with r_conns = List.map (fun c -> { c with Net_state.Serial.r_bw = bw }) r.r_conns }
      in
      let _, fresh = state () in
      Alcotest.(check bool) (Printf.sprintf "bw %d rejected" bw) true
        (try
           Net_state.Serial.restore fresh bad;
           false
         with Invalid_argument _ -> true))
    [ 0; -1 ];
  let _, fresh = state () in
  Net_state.Serial.restore fresh r;
  check_inv fresh

(* check_invariants rebuilds every a_{l,j} from the connection table, so a
   count injected behind Net_state's back is reported by link and edge. *)
let test_invariants_catch_aplv_drift () =
  let g, st = state () in
  ignore
    (Net_state.admit st ~id:1 ~bw:1 ~primary:(path g [ 0; 1; 2 ])
       ~backups:[ path g [ 0; 3; 4; 5; 2 ] ]);
  check_inv st;
  let l = link g 3 4 and e = Graph.edge_of_link (link g 7 8) in
  let row = Net_state.aplv st l in
  Aplv.register row ~edge_lset:[ e ];
  (match Net_state.check_invariants st with
  | Ok () -> Alcotest.fail "injected count went unnoticed"
  | Error msg ->
      let prefix = Printf.sprintf "link %d edge %d:" l e in
      if not (String.starts_with ~prefix msg) then
        Alcotest.failf "%S does not name link %d and edge %d" msg l e);
  Aplv.unregister row ~edge_lset:[ e ];
  check_inv st

let suite =
  [
    ( "drtp.net_state",
      [
        Alcotest.test_case "admit reserves resources" `Quick test_admit_reserves;
        Alcotest.test_case "admit without backup" `Quick test_admit_without_backup;
        Alcotest.test_case "safe multiplexing (Fig 1, L8)" `Quick test_multiplexing_disjoint_primaries;
        Alcotest.test_case "conflict needs more spare (Fig 1, L7)" `Quick test_conflicting_primaries_need_more_spare;
        Alcotest.test_case "release returns everything" `Quick test_release_returns_everything;
        Alcotest.test_case "release unknown id" `Quick test_release_unknown;
        Alcotest.test_case "duplicate id rejected" `Quick test_admit_duplicate_id;
        Alcotest.test_case "infeasible primary rejected" `Quick test_admit_infeasible_primary;
        Alcotest.test_case "degraded on spare shortage" `Quick test_degraded_when_no_room_for_spare;
        Alcotest.test_case "deficit repaired by release (§5)" `Quick test_deficit_reclaimed_after_release;
        Alcotest.test_case "dedicated policy" `Quick test_dedicated_policy;
        Alcotest.test_case "spare maximum steps down on release" `Quick
          test_spare_maximum_steps_down;
        Alcotest.test_case "primaries_crossing_edge" `Quick test_primaries_crossing_edge;
        Alcotest.test_case "promote backup (DRTP step 3)" `Quick test_promote_backup;
        Alcotest.test_case "promote without backup" `Quick test_promote_without_backup_rejected;
        Alcotest.test_case "replace backup (DRTP step 4)" `Quick test_replace_backup;
        Alcotest.test_case "fail/restore edge" `Quick test_fail_restore_edge;
        Alcotest.test_case "drop" `Quick test_drop;
        Alcotest.test_case "invariants catch APLV drift" `Quick
          test_invariants_catch_aplv_drift;
        Alcotest.test_case "restore rejects non-positive bandwidth" `Quick
          test_restore_rejects_non_positive_bw;
      ] );
  ]
