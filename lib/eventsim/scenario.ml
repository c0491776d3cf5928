type event =
  | Request of { conn : int; src : int; dst : int; bw : int; duration : float }
  | Release of { conn : int }

type item = { time : float; event : event }

type t = item array

let event_rank = function Request _ -> 0 | Release _ -> 1

let validate items =
  let requested = Hashtbl.create (Array.length items) in
  let released = Hashtbl.create (Array.length items) in
  Array.iter
    (fun { time; event } ->
      if time < 0.0 || Float.is_nan time then
        invalid_arg "Scenario.of_items: negative or NaN event time";
      match event with
      | Request { conn; src; dst; bw; duration } ->
          if Hashtbl.mem requested conn then
            invalid_arg "Scenario.of_items: duplicate request for connection";
          if src = dst then invalid_arg "Scenario.of_items: src = dst";
          if bw <= 0 then invalid_arg "Scenario.of_items: non-positive bandwidth";
          if duration <= 0.0 then invalid_arg "Scenario.of_items: non-positive duration";
          Hashtbl.add requested conn time
      | Release { conn } -> (
          if Hashtbl.mem released conn then
            invalid_arg "Scenario.of_items: duplicate release for connection";
          Hashtbl.add released conn ();
          match Hashtbl.find_opt requested conn with
          | None -> invalid_arg "Scenario.of_items: release before request"
          | Some t_req ->
              if time < t_req then
                invalid_arg "Scenario.of_items: release before request"))
    items

let of_items list =
  let items = Array.of_list list in
  (* Stable sort by (time, kind): a release scheduled at the same instant as
     a request is processed after it, freeing resources for later events
     only; items equal in both keep their list order. *)
  Array.stable_sort
    (fun a b ->
      match Float.compare a.time b.time with
      | 0 -> Int.compare (event_rank a.event) (event_rank b.event)
      | c -> c)
    items;
  validate items;
  items

let items t = t
let length t = Array.length t
let iter t f = Array.iter f t

let request_count t =
  Array.fold_left
    (fun acc it -> match it.event with Request _ -> acc + 1 | Release _ -> acc)
    0 t

let horizon t = if Array.length t = 0 then 0.0 else t.(Array.length t - 1).time

let header = "# drtp-scenario v1"

let to_string t =
  let buf = Buffer.create (64 * (Array.length t + 1)) in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Array.iter
    (fun { time; event } ->
      (match event with
      | Request { conn; src; dst; bw; duration } ->
          Buffer.add_string buf
            (Printf.sprintf "R %.6f %d %d %d %d %.6f" time conn src dst bw duration)
      | Release { conn } -> Buffer.add_string buf (Printf.sprintf "L %.6f %d" time conn));
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | [] -> Error "empty scenario"
  | first :: rest ->
      if String.trim first <> header then Error "missing scenario header"
      else begin
        let parse_line lineno line =
          let line = String.trim line in
          if line = "" || line.[0] = '#' then Ok None
          else
            match String.split_on_char ' ' line with
            | [ "R"; time; conn; src; dst; bw; duration ] -> (
                try
                  Ok
                    (Some
                       {
                         time = float_of_string time;
                         event =
                           Request
                             {
                               conn = int_of_string conn;
                               src = int_of_string src;
                               dst = int_of_string dst;
                               bw = int_of_string bw;
                               duration = float_of_string duration;
                             };
                       })
                with Failure _ ->
                  Error (Printf.sprintf "line %d: malformed request" lineno))
            | [ "L"; time; conn ] -> (
                try
                  Ok
                    (Some
                       {
                         time = float_of_string time;
                         event = Release { conn = int_of_string conn };
                       })
                with Failure _ ->
                  Error (Printf.sprintf "line %d: malformed release" lineno))
            | _ -> Error (Printf.sprintf "line %d: unrecognised event" lineno)
        in
        let rec collect lineno acc = function
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
              match parse_line lineno line with
              | Error _ as e -> e
              | Ok None -> collect (lineno + 1) acc rest
              | Ok (Some item) -> collect (lineno + 1) (item :: acc) rest)
        in
        match collect 2 [] rest with
        | Error _ as e -> e
        | Ok items -> (
            try Ok (of_items items) with Invalid_argument msg -> Error msg)
      end

let save t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load file =
  match open_in file with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let len = in_channel_length ic in
          let s = really_input_string ic len in
          of_string s)
