module Scenario = Dr_sim.Scenario

let request ~time ~conn ~src ~dst =
  { Scenario.time; event = Scenario.Request { conn; src; dst; bw = 1; duration = 10.0 } }

let release ~time ~conn = { Scenario.time; event = Scenario.Release { conn } }

let test_sorting () =
  let s =
    Scenario.of_items
      [ release ~time:5.0 ~conn:0; request ~time:1.0 ~conn:0 ~src:0 ~dst:1 ]
  in
  let times = Array.to_list (Array.map (fun i -> i.Scenario.time) (Scenario.items s)) in
  Alcotest.(check (list (float 1e-9))) "sorted" [ 1.0; 5.0 ] times

let test_request_before_release_at_tie () =
  let s =
    Scenario.of_items
      [
        release ~time:2.0 ~conn:0;
        request ~time:1.0 ~conn:0 ~src:0 ~dst:1;
        request ~time:2.0 ~conn:1 ~src:1 ~dst:2;
      ]
  in
  let kinds =
    Array.to_list
      (Array.map
         (fun i -> match i.Scenario.event with Scenario.Request _ -> 'R' | _ -> 'L')
         (Scenario.items s))
  in
  Alcotest.(check (list char)) "R before L at equal time" [ 'R'; 'R'; 'L' ] kinds

let test_counts_and_horizon () =
  let s =
    Scenario.of_items
      [
        request ~time:1.0 ~conn:0 ~src:0 ~dst:1;
        release ~time:4.0 ~conn:0;
        request ~time:2.0 ~conn:1 ~src:1 ~dst:2;
        release ~time:3.0 ~conn:1;
      ]
  in
  Alcotest.(check int) "length" 4 (Scenario.length s);
  Alcotest.(check int) "requests" 2 (Scenario.request_count s);
  Alcotest.(check (float 1e-9)) "horizon" 4.0 (Scenario.horizon s)

let test_validation () =
  let invalid items =
    try ignore (Scenario.of_items items); false with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "duplicate request" true
    (invalid [ request ~time:1.0 ~conn:0 ~src:0 ~dst:1; request ~time:2.0 ~conn:0 ~src:1 ~dst:2 ]);
  Alcotest.(check bool) "release without request" true
    (invalid [ release ~time:1.0 ~conn:9 ]);
  Alcotest.(check bool) "release before request" true
    (invalid [ request ~time:5.0 ~conn:0 ~src:0 ~dst:1; release ~time:1.0 ~conn:0 ]);
  Alcotest.(check bool) "src = dst" true
    (invalid [ request ~time:1.0 ~conn:0 ~src:3 ~dst:3 ]);
  Alcotest.(check bool) "negative time" true
    (invalid [ request ~time:(-1.0) ~conn:0 ~src:0 ~dst:1 ]);
  Alcotest.(check bool) "double release" true
    (invalid
       [
         request ~time:1.0 ~conn:0 ~src:0 ~dst:1;
         release ~time:2.0 ~conn:0;
         release ~time:3.0 ~conn:0;
       ])

let test_text_roundtrip () =
  let s =
    Scenario.of_items
      [
        request ~time:1.25 ~conn:0 ~src:0 ~dst:1;
        request ~time:2.5 ~conn:1 ~src:3 ~dst:2;
        release ~time:11.25 ~conn:0;
        release ~time:12.5 ~conn:1;
      ]
  in
  match Scenario.of_string (Scenario.to_string s) with
  | Error e -> Alcotest.fail e
  | Ok s2 ->
      Alcotest.(check int) "same length" (Scenario.length s) (Scenario.length s2);
      Array.iteri
        (fun i item ->
          let item2 = (Scenario.items s2).(i) in
          Alcotest.(check (float 1e-6)) "same time" item.Scenario.time item2.Scenario.time;
          Alcotest.(check bool) "same event" true (item.Scenario.event = item2.Scenario.event))
        (Scenario.items s)

let test_file_roundtrip () =
  let s =
    Scenario.of_items
      [ request ~time:0.5 ~conn:0 ~src:0 ~dst:5; release ~time:60.5 ~conn:0 ]
  in
  let file = Filename.temp_file "drtp_scenario" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Scenario.save s file;
      match Scenario.load file with
      | Error e -> Alcotest.fail e
      | Ok s2 -> Alcotest.(check int) "round-trips" 2 (Scenario.length s2))

let test_parse_errors () =
  let check_err name text =
    match Scenario.of_string text with
    | Ok _ -> Alcotest.failf "%s should fail" name
    | Error _ -> ()
  in
  check_err "missing header" "R 1.0 0 0 1 1 10.0\n";
  check_err "garbage line" "# drtp-scenario v1\nnonsense here\n";
  check_err "bad number" "# drtp-scenario v1\nR x 0 0 1 1 10.0\n";
  check_err "truncated" "# drtp-scenario v1\nR 1.0 0\n"

let test_parse_tolerates_comments_and_blanks () =
  let text = "# drtp-scenario v1\n\n# comment\nR 1.0 0 0 1 1 10.0\nL 11.0 0\n" in
  match Scenario.of_string text with
  | Error e -> Alcotest.fail e
  | Ok s -> Alcotest.(check int) "two events" 2 (Scenario.length s)

(* The sort [Scenario.of_items] made before it compared times with
   [Float.compare]: polymorphic [compare] on (time, kind rank, input index,
   item) tuples.  The reference the typed sort is checked against. *)
let tuple_sort items =
  let rank = function Scenario.Request _ -> 0 | Scenario.Release _ -> 1 in
  let arr =
    Array.of_list (List.mapi (fun i it -> (it.Scenario.time, rank it.Scenario.event, i, it)) items)
  in
  Array.sort compare arr;
  Array.map (fun (_, _, _, it) -> it) arr

(* A shuffled item list over a few instants, so times tie often and a
   release often shares its request's instant; now and then an item is
   corrupted so that validation fails. *)
let random_items seed =
  let rng = Dr_rng.Splitmix64.create seed in
  let int n = Dr_rng.Splitmix64.int rng n in
  let items =
    List.concat
      (List.init (int 30) (fun conn ->
           let t = float_of_int (int 5) in
           let req = request ~time:t ~conn ~src:(int 3) ~dst:(1 + int 3) in
           let rel = release ~time:(t +. float_of_int (int 3)) ~conn in
           match int 150 with
           | 0 -> [ rel ]
           | 1 -> [ req; rel; rel ]
           | 2 -> [ req; release ~time:(t -. 1.0) ~conn ]
           | 3 -> [ request ~time:(-1.0) ~conn ~src:0 ~dst:1 ]
           | 4 -> [ req; request ~time:t ~conn ~src:0 ~dst:1 ]
           | _ -> [ req; rel ]))
  in
  let arr = Array.of_list items in
  for i = Array.length arr - 1 downto 1 do
    let j = int (i + 1) in
    let x = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- x
  done;
  Array.to_list arr

let outcome f = try Ok (f ()) with Invalid_argument m -> Error m

(* Valid lists sort to exactly the tuple sort's array; invalid ones fail
   with the message validation gives on the tuple-sorted order, so errors
   are still found in the same order. *)
let prop_of_items_equals_tuple_sort =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"of_items = tuple sort"
       (QCheck.int_range 0 1_000_000) (fun seed ->
         let items = random_items seed in
         let sorted = tuple_sort items in
         match outcome (fun () -> Scenario.items (Scenario.of_items items)) with
         | Ok got -> got = sorted
         | Error m ->
             outcome (fun () -> Scenario.of_items (Array.to_list sorted)) = Error m))

let suite =
  [
    ( "eventsim.scenario",
      [
        Alcotest.test_case "sorted by time" `Quick test_sorting;
        Alcotest.test_case "requests first at ties" `Quick test_request_before_release_at_tie;
        Alcotest.test_case "counts and horizon" `Quick test_counts_and_horizon;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "text round-trip" `Quick test_text_roundtrip;
        Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "comments and blanks ok" `Quick test_parse_tolerates_comments_and_blanks;
        prop_of_items_equals_tuple_sort;
      ] );
  ]
