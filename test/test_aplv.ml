module Aplv = Drtp.Aplv

(* The tests work on the middle link of a three-link matrix, so a write
   that lands in the wrong row or column shows up on a neighbour. *)
let link = 1

let create ~domains = Aplv.create ~links:3 ~edges:domains

let neighbours_empty a =
  List.iter
    (fun l ->
      Alcotest.(check int) (Printf.sprintf "link %d norm1" l) 0 (Aplv.norm1 a ~link:l);
      Alcotest.(check int) (Printf.sprintf "link %d backups" l) 0
        (Aplv.backup_count a ~link:l);
      Alcotest.(check (list int)) (Printf.sprintf "link %d support" l) []
        (Aplv.support a ~link:l))
    [ 0; 2 ]

let test_empty () =
  let a = create ~domains:16 in
  Alcotest.(check int) "norm1" 0 (Aplv.norm1 a ~link);
  Alcotest.(check int) "max" 0 (Aplv.max_element a ~link);
  Alcotest.(check int) "backups" 0 (Aplv.backup_count a ~link);
  Alcotest.(check (list int)) "support" [] (Aplv.support a ~link);
  Alcotest.(check int) "get absent" 0 (Aplv.get a ~link 7)

let test_register () =
  let a = create ~domains:16 in
  Aplv.register a ~link ~edge_lset:[ 1; 3; 5 ];
  Alcotest.(check int) "counts set" 1 (Aplv.get a ~link 3);
  Alcotest.(check int) "norm1" 3 (Aplv.norm1 a ~link);
  Alcotest.(check int) "max" 1 (Aplv.max_element a ~link);
  Alcotest.(check int) "one backup" 1 (Aplv.backup_count a ~link);
  Alcotest.(check (list int)) "support sorted" [ 1; 3; 5 ] (Aplv.support a ~link);
  neighbours_empty a

let test_overlapping_registrations () =
  let a = create ~domains:16 in
  Aplv.register a ~link ~edge_lset:[ 1; 2 ];
  Aplv.register a ~link ~edge_lset:[ 2; 3 ];
  Aplv.register a ~link ~edge_lset:[ 2 ];
  Alcotest.(check int) "a_2 accumulated" 3 (Aplv.get a ~link 2);
  Alcotest.(check int) "norm1" 5 (Aplv.norm1 a ~link);
  Alcotest.(check int) "max element" 3 (Aplv.max_element a ~link);
  Alcotest.(check int) "three backups" 3 (Aplv.backup_count a ~link);
  neighbours_empty a

let test_unregister () =
  let a = create ~domains:16 in
  Aplv.register a ~link ~edge_lset:[ 1; 2 ];
  Aplv.register a ~link ~edge_lset:[ 2; 3 ];
  Aplv.unregister a ~link ~edge_lset:[ 1; 2 ];
  Alcotest.(check int) "1 removed" 0 (Aplv.get a ~link 1);
  Alcotest.(check int) "2 decremented" 1 (Aplv.get a ~link 2);
  Alcotest.(check int) "norm1" 2 (Aplv.norm1 a ~link);
  Alcotest.(check int) "one backup left" 1 (Aplv.backup_count a ~link);
  Aplv.unregister a ~link ~edge_lset:[ 2; 3 ];
  Alcotest.(check int) "empty again" 0 (Aplv.norm1 a ~link);
  Alcotest.(check (list int)) "no support" [] (Aplv.support a ~link)

(* A rejected update is validated before anything moves: unregistering
   [1; 9] must not decrement edge 1 before it finds edge 9 empty. *)
let test_unregister_underflow () =
  let a = create ~domains:16 in
  Aplv.register a ~link ~edge_lset:[ 1; 2 ];
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "unknown edge raises" true
    (raises (fun () -> Aplv.unregister a ~link ~edge_lset:[ 9 ]));
  Alcotest.(check bool) "underflow after a valid edge raises" true
    (raises (fun () -> Aplv.unregister a ~link ~edge_lset:[ 1; 9 ]));
  Alcotest.(check bool) "duplicate raises" true
    (raises (fun () -> Aplv.unregister a ~link ~edge_lset:[ 2; 1; 2 ]));
  Alcotest.(check bool) "out of range raises" true
    (raises (fun () -> Aplv.register a ~link ~edge_lset:[ 3; 16 ]));
  Alcotest.(check bool) "link out of range raises" true
    (raises (fun () -> Aplv.register a ~link:3 ~edge_lset:[ 3 ]));
  Alcotest.(check (list int)) "get unchanged"
    (List.init 16 (fun j -> if j = 1 || j = 2 then 1 else 0))
    (List.init 16 (Aplv.get a ~link));
  Alcotest.(check int) "norm1 unchanged" 2 (Aplv.norm1 a ~link);
  Alcotest.(check int) "backup count unchanged" 1 (Aplv.backup_count a ~link);
  Alcotest.(check (list int)) "support unchanged" [ 1; 2 ] (Aplv.support a ~link);
  neighbours_empty a

let test_duplicate_lset_rejected () =
  let a = create ~domains:16 in
  Alcotest.(check bool) "duplicate edge in one LSET" true
    (try Aplv.register a ~link ~edge_lset:[ 1; 1 ]; false with Invalid_argument _ -> true)

let test_conflict_count () =
  let a = create ~domains:16 in
  Aplv.register a ~link ~edge_lset:[ 1; 2; 3 ];
  Aplv.register a ~link ~edge_lset:[ 3; 4 ];
  (* New primary crossing edges {2, 3, 9}: conflicts at 2 and 3. *)
  Alcotest.(check int) "distinct conflicting positions" 2
    (Aplv.conflict_count_with a ~link ~edge_lset:[ 2; 3; 9 ]);
  (* Weighted variant counts multiplicity at 3. *)
  Alcotest.(check int) "overlap weight" 3
    (Aplv.overlap_weight_with a ~link ~edge_lset:[ 2; 3; 9 ]);
  (* The column scan prices every link at once: link 0 conflicts at 9. *)
  Aplv.register a ~link:0 ~edge_lset:[ 9 ];
  let into = Array.make 3 (-1) in
  Aplv.conflict_counts a ~edges:[| 2; 3; 9; 0 |] ~n:3 ~into;
  Alcotest.(check (array int)) "conflict counts of every link" [| 1; 2; 0 |] into;
  let col = Array.make 3 (-1) in
  Aplv.blit_column a ~edge:3 col;
  Alcotest.(check (array int)) "column of edge 3" [| 0; 2; 0 |] col;
  Aplv.blit_norms a col;
  Alcotest.(check (array int)) "norms of every link" [| 1; 5; 0 |] col

let test_paper_example_values () =
  (* Mirrors the paper's APLV_7 example (§3): PSET_7 = {P1, P3} with
     LSET(P1) = {8, 12, 13} and LSET(P3) = {11, 13}; then
     a_{7,13} = 2 and ||APLV_7||_1 = 5. *)
  let a = create ~domains:16 in
  Aplv.register a ~link ~edge_lset:[ 8; 12; 13 ];
  Aplv.register a ~link ~edge_lset:[ 11; 13 ];
  Alcotest.(check int) "a_13 = 2" 2 (Aplv.get a ~link 13);
  Alcotest.(check int) "a_8 = 1" 1 (Aplv.get a ~link 8);
  Alcotest.(check int) "norm = 5" 5 (Aplv.norm1 a ~link);
  Alcotest.(check int) "spare requirement = 2 connections" 2 (Aplv.max_element a ~link)

let suite =
  [
    ( "drtp.aplv",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "register" `Quick test_register;
        Alcotest.test_case "overlapping registrations" `Quick test_overlapping_registrations;
        Alcotest.test_case "unregister" `Quick test_unregister;
        Alcotest.test_case "unregister underflow" `Quick test_unregister_underflow;
        Alcotest.test_case "duplicate LSET rejected" `Quick test_duplicate_lset_rejected;
        Alcotest.test_case "conflict counting" `Quick test_conflict_count;
        Alcotest.test_case "paper APLV_7 example" `Quick test_paper_example_values;
      ] );
  ]
