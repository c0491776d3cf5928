module Aplv = Drtp.Aplv
module CV = Drtp.Conflict_vector

let test_from_aplv () =
  let a = Aplv.create ~links:1 ~edges:8 in
  Aplv.register a ~link:0 ~edge_lset:[ 0; 2; 7 ];
  let cv = CV.of_aplv a ~link:0 ~domains:8 in
  Alcotest.(check int) "length" 8 (CV.length cv);
  Alcotest.(check bool) "bit 0" true (CV.get cv 0);
  Alcotest.(check bool) "bit 1" false (CV.get cv 1);
  Alcotest.(check bool) "bit 2" true (CV.get cv 2);
  Alcotest.(check bool) "bit 7" true (CV.get cv 7);
  Alcotest.(check int) "popcount" 3 (CV.popcount cv)

let test_bits_not_counts () =
  (* The CV keeps positions, not multiplicities (paper §3.2). *)
  let a = Aplv.create ~links:1 ~edges:5 in
  Aplv.register a ~link:0 ~edge_lset:[ 4 ];
  Aplv.register a ~link:0 ~edge_lset:[ 4 ];
  let cv = CV.of_aplv a ~link:0 ~domains:5 in
  Alcotest.(check int) "one bit despite count 2" 1 (CV.popcount cv)

let test_paper_cv6_example () =
  (* Paper §3.2: PSET_6 = {P1, P2}, CV_6 = 1010000100011 (bits 0,2,7,11,12
     using 0-based indexing of the 13 links). *)
  let a = Aplv.create ~links:1 ~edges:13 in
  Aplv.register a ~link:0 ~edge_lset:[ 0; 7; 11 ];
  Aplv.register a ~link:0 ~edge_lset:[ 2; 12 ];
  let cv = CV.of_aplv a ~link:0 ~domains:13 in
  let expected = [ 0; 2; 7; 11; 12 ] in
  for j = 0 to 12 do
    Alcotest.(check bool) (Printf.sprintf "bit %d" j) (List.mem j expected) (CV.get cv j)
  done

let test_conflict_count_matches_aplv () =
  let a = Aplv.create ~links:1 ~edges:6 in
  Aplv.register a ~link:0 ~edge_lset:[ 1; 3 ];
  Aplv.register a ~link:0 ~edge_lset:[ 3; 5 ];
  let cv = CV.of_aplv a ~link:0 ~domains:6 in
  let lset = [ 0; 3; 5 ] in
  Alcotest.(check int) "CV and APLV agree on D-LSR cost"
    (Aplv.conflict_count_with a ~link:0 ~edge_lset:lset)
    (CV.conflict_count_with cv ~edge_lset:lset)

let test_byte_size () =
  let a = Aplv.create ~links:1 ~edges:8 in
  Alcotest.(check int) "8 bits -> 1 byte" 1 (CV.byte_size (CV.of_aplv a ~link:0 ~domains:8));
  Alcotest.(check int) "9 bits -> 2 bytes" 2 (CV.byte_size (CV.of_aplv a ~link:0 ~domains:9));
  Alcotest.(check int) "0 bits -> 0 bytes" 0 (CV.byte_size (CV.of_aplv a ~link:0 ~domains:0))

let test_of_bits_and_equal () =
  let cv1 = CV.of_bits [| true; false; true |] in
  let cv2 = CV.of_bits [| true; false; true |] in
  let cv3 = CV.of_bits [| true; true; true |] in
  Alcotest.(check bool) "equal" true (CV.equal cv1 cv2);
  Alcotest.(check bool) "not equal" false (CV.equal cv1 cv3)

let test_pp () =
  let cv = CV.of_bits [| true; false; true; false |] in
  Alcotest.(check string) "rendering" "1010" (Format.asprintf "%a" CV.pp cv)

let test_out_of_range () =
  let cv = CV.of_bits [| true |] in
  Alcotest.(check bool) "get out of range raises" true
    (try ignore (CV.get cv 1); false with Invalid_argument _ -> true);
  let a = Aplv.create ~links:1 ~edges:11 in
  Aplv.register a ~link:0 ~edge_lset:[ 10 ];
  Alcotest.(check bool) "domain too small raises" true
    (try ignore (CV.of_aplv a ~link:0 ~domains:5); false with Invalid_argument _ -> true)

let suite =
  [
    ( "drtp.conflict_vector",
      [
        Alcotest.test_case "from APLV" `Quick test_from_aplv;
        Alcotest.test_case "bits not counts" `Quick test_bits_not_counts;
        Alcotest.test_case "paper CV_6 example" `Quick test_paper_cv6_example;
        Alcotest.test_case "agrees with APLV costs" `Quick test_conflict_count_matches_aplv;
        Alcotest.test_case "byte size" `Quick test_byte_size;
        Alcotest.test_case "of_bits / equal" `Quick test_of_bits_and_equal;
        Alcotest.test_case "pretty printing" `Quick test_pp;
        Alcotest.test_case "range checks" `Quick test_out_of_range;
      ] );
  ]
