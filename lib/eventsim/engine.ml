module Pqueue = Dr_pqueue.Pqueue
module J = Dr_obs.Journal

type 'e t = { queue : 'e Pqueue.t; mutable clock : float }

let create ?(start = 0.0) () = { queue = Pqueue.create (); clock = start }

let now t = t.clock
let pending t = Pqueue.length t.queue

let schedule t ~at event =
  if at < t.clock then invalid_arg "Engine.schedule: event in the past";
  Pqueue.add t.queue ~key:at event

let schedule_after t ~delay event =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.clock +. delay) event

let step t ~handler =
  match Pqueue.pop t.queue with
  | None -> false
  | Some (at, event) ->
      t.clock <- at;
      if !J.on then J.set_now at;
      handler t event;
      true

let run t ~handler = while step t ~handler do () done

let run_until t ~stop ~handler =
  let continue = ref true in
  while !continue do
    match Pqueue.peek t.queue with
    | Some (at, _) when at <= stop -> ignore (step t ~handler)
    | Some _ | None -> continue := false
  done;
  if t.clock < stop then t.clock <- stop
