(* Client-side spans for the traced benchmark run.

   One span per call the benchmark makes into a layer: (layer, start, end,
   parent), kept in flat int arrays so recording a span allocates nothing.
   Spans stay in memory until [flush] folds them into per-layer totals and,
   when asked, writes them out as Chrome trace-event JSON.  A layer's self
   time is its busy time minus the time of the spans nested directly in
   it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let names =
  [|
    "batch.admit";
    "routing.find_primary";
    "routing.find_backups";
    "service.release_now";
    "service.what_if_admit";
    "service.what_if_fail_edge";
    "net_state.audit";
    "persist.append";
    "persist.checkpoint";
    "persist.recover";
    "sweep.run";
  |]

let batch_admit = 0
let find_primary = 1
let find_backups = 2
let release_now = 3
let what_if_admit = 4
let what_if_fail_edge = 5
let audit = 6
let persist_append = 7
let persist_checkpoint = 8
let persist_recover = 9
let sweep_run = 10

let on = ref false

type buf = {
  mutable layer : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable len : int;
  mutable cur : int;
}

let b = { layer = [||]; parent = [||]; t0 = [||]; t1 = [||]; len = 0; cur = -1 }

let grow () =
  let n = max 4096 (2 * Array.length b.layer) in
  let ext a =
    let a' = Array.make n 0 in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  b.layer <- ext b.layer;
  b.parent <- ext b.parent;
  b.t0 <- ext b.t0;
  b.t1 <- ext b.t1

let with_ l f =
  if not !on then f ()
  else begin
    if b.len = Array.length b.layer then grow ();
    let i = b.len in
    b.len <- i + 1;
    b.layer.(i) <- l;
    b.parent.(i) <- b.cur;
    b.cur <- i;
    b.t0.(i) <- now_ns ();
    match f () with
    | v ->
        b.t1.(i) <- now_ns ();
        b.cur <- b.parent.(i);
        v
    | exception e ->
        b.t1.(i) <- now_ns ();
        b.cur <- b.parent.(i);
        raise e
  end

(* Per-layer totals in ns, summed over every flushed span. *)
let calls = Array.make (Array.length names) 0
let busy = Array.make (Array.length names) 0
let child = Array.make (Array.length names) 0

(* Total duration of the spans that have no parent. *)
let top = ref 0

let self l = busy.(l) - child.(l)

let write_chrome file =
  let oc = open_out file in
  let base = if b.len > 0 then b.t0.(0) else 0 in
  let us t = float_of_int t /. 1e3 in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to b.len - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n\
       {\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
      names.(b.layer.(i))
      (us (b.t0.(i) - base))
      (us (b.t1.(i) - b.t0.(i)))
      i b.parent.(i)
  done;
  output_string oc "\n]}\n";
  close_out oc

let flush ?chrome () =
  for i = 0 to b.len - 1 do
    let l = b.layer.(i) and d = b.t1.(i) - b.t0.(i) in
    calls.(l) <- calls.(l) + 1;
    busy.(l) <- busy.(l) + d;
    let p = b.parent.(i) in
    if p < 0 then top := !top + d
    else child.(b.layer.(p)) <- child.(b.layer.(p)) + d
  done;
  Option.iter write_chrome chrome;
  b.len <- 0;
  b.cur <- -1
