module Pqueue = Dr_pqueue.Pqueue

let unreachable = max_int

let bfs_generic links_of other_end g start =
  let n = Graph.node_count g in
  let dist = Array.make n unreachable in
  dist.(start) <- 0;
  let queue = Queue.create () in
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun l ->
        let w = other_end l in
        if dist.(w) = unreachable then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
      (links_of v)
  done;
  dist

let bfs_hops g ~src =
  bfs_generic (Graph.out_links g) (fun l -> Graph.link_dst g l) g src

let bfs_hops_rev g ~dst =
  bfs_generic (Graph.in_links g) (fun l -> Graph.link_src g l) g dst

let hop_matrix g =
  Array.init (Graph.node_count g) (fun src -> bfs_hops g ~src)

(* Per-domain search workspace: preallocated dist/prev/queue/heap storage
   shared by every {!min_hop_path} and {!dijkstra_path} call made from one
   domain.  Slots are invalidated by bumping [epoch] instead of refilling
   the arrays, so a search touches only the nodes it actually reaches.
   Each domain owns its workspace through [Domain.DLS] — parallel sweeps
   ([--jobs N]) never share one.  Nothing the public API returns aliases
   workspace storage: results are rebuilt into fresh [Path.t] values. *)
module Ws = struct
  type t = {
    mutable stamp : int array;  (* last epoch that wrote a node's slots *)
    mutable dist_hops : int array;  (* BFS distance, valid iff stamped *)
    mutable dist_cost : float array;  (* Dijkstra distance, valid iff stamped *)
    mutable prev : int array;  (* incoming link, valid iff stamped *)
    mutable queue : int array;  (* BFS FIFO ring, capacity = node count *)
    mutable heap : int array;  (* Dijkstra frontier: node ids, a binary heap *)
    mutable pos : int array;
        (* a stamped node's heap slot; -1 once settled *)
    mutable seq : int array;
        (* a stamped node's insertion sequence number, the tie-break *)
    mutable epoch : int;
  }

  let create () =
    {
      stamp = [||];
      dist_hops = [||];
      dist_cost = [||];
      prev = [||];
      queue = [||];
      heap = [||];
      pos = [||];
      seq = [||];
      epoch = 0;
    }

  let key = Domain.DLS.new_key create

  (* Fresh epoch over at least [n] node slots.  Newly grown arrays are
     zero-filled and the epoch starts at 1, so unwritten slots can never
     alias a live stamp. *)
  let get ~n =
    let ws = Domain.DLS.get key in
    if Array.length ws.stamp < n then begin
      ws.stamp <- Array.make n 0;
      ws.dist_hops <- Array.make n 0;
      ws.dist_cost <- Array.make n 0.0;
      ws.prev <- Array.make n 0;
      ws.queue <- Array.make n 0;
      ws.heap <- Array.make n 0;
      ws.pos <- Array.make n 0;
      ws.seq <- Array.make n 0
    end;
    ws.epoch <- ws.epoch + 1;
    ws
end

let min_hop_path g ?(usable = fun _ -> true) ~src ~dst () =
  let n = Graph.node_count g in
  if src = dst then invalid_arg "Shortest_path.min_hop_path: src = dst";
  let ws = Ws.get ~n in
  let ep = ws.Ws.epoch in
  let stamp = ws.Ws.stamp
  and dist = ws.Ws.dist_hops
  and prev = ws.Ws.prev
  and queue = ws.Ws.queue in
  stamp.(src) <- ep;
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let found = ref false in
  while (not !found) && !head < !tail do
    let v = queue.(!head) in
    incr head;
    if v = dst then found := true
    else
      Array.iter
        (fun l ->
          if usable l then begin
            let w = Graph.link_dst g l in
            if stamp.(w) <> ep then begin
              stamp.(w) <- ep;
              dist.(w) <- dist.(v) + 1;
              prev.(w) <- l;
              queue.(!tail) <- w;
              incr tail
            end
          end)
        (Graph.out_links g v)
  done;
  if stamp.(dst) <> ep then None
  else begin
    let rec rebuild v acc =
      if v = src then acc
      else
        let l = prev.(v) in
        rebuild (Graph.link_src g l) (l :: acc)
    in
    Some (Path.of_links g (rebuild dst []))
  end

type dijkstra_result = { dist : float array; prev_link : int array }

let dijkstra g ~cost ~src =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let prev_link = Array.make n (-1) in
  let settled = Array.make n false in
  dist.(src) <- 0.0;
  let queue = Pqueue.create () in
  Pqueue.add queue ~key:0.0 src;
  let rec drain () =
    match Pqueue.pop queue with
    | None -> ()
    | Some (d, v) ->
        if not settled.(v) then begin
          settled.(v) <- true;
          Array.iter
            (fun l ->
              let c = cost l in
              if c < 0.0 then invalid_arg "Shortest_path.dijkstra: negative cost";
              if c < infinity then begin
                let w = Graph.link_dst g l in
                let nd = d +. c in
                if nd < dist.(w) then begin
                  dist.(w) <- nd;
                  prev_link.(w) <- l;
                  Pqueue.add queue ~key:nd w
                end
              end)
            (Graph.out_links g v)
        end;
        drain ()
  in
  drain ();
  { dist; prev_link }

let extract_path g result ~dst =
  if result.dist.(dst) = infinity then None
  else if result.prev_link.(dst) = -1 then None (* dst is the source itself *)
  else begin
    let rec rebuild v acc =
      let l = result.prev_link.(v) in
      if l = -1 then acc else rebuild (Graph.link_src g l) (l :: acc)
    in
    Some (Path.of_links g (rebuild dst []))
  end

(* The single-pair search: {!dijkstra} + {!extract_path}, on the
   workspace, stopping once [dst] is settled.  Stopping early is sound: a
   settled node's [dist]/[prev] slots are final under non-negative costs,
   and every predecessor on the extracted path was settled before [dst].

   The frontier is an indexed binary heap of node ids ordered by
   (distance, seq), where [seq] counts insertions and a decrease-key takes
   a fresh one.  {!dijkstra}'s lazy heap holds, besides stale entries, one
   live entry per reached unsettled node, keyed (distance, seq of its
   latest push); a stale entry of a node has a strictly larger key than
   its live one, so it pops only after the node is settled and is skipped.
   The live entries are exactly this heap's entries under the same total
   order, so both searches settle the same nodes in the same order,
   relax the same links, and resolve every tie alike — the same paths,
   bit for bit, with no allocation per push. *)

(* [a] pops before [b]. *)
let before (dist : float array) (seq : int array) a b =
  let da = Array.unsafe_get dist a and db = Array.unsafe_get dist b in
  da < db || (da = db && Array.unsafe_get seq a < Array.unsafe_get seq b)

let sift_up heap pos dist seq i0 =
  let v = heap.(i0) in
  let i = ref i0 in
  while !i > 0 && before dist seq v heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    let u = heap.(parent) in
    heap.(!i) <- u;
    pos.(u) <- !i;
    i := parent
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let sift_down heap pos dist seq size i0 =
  let v = heap.(i0) in
  let i = ref i0 and continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= size then continue := false
    else begin
      let right = left + 1 in
      let child =
        if right < size && before dist seq heap.(right) heap.(left) then right
        else left
      in
      let u = heap.(child) in
      if before dist seq u v then begin
        heap.(!i) <- u;
        pos.(u) <- !i;
        i := child
      end
      else continue := false
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let dijkstra_path g ~(cost : float array) ~src ~dst =
  let n = Graph.node_count g in
  if Array.length cost < Graph.link_count g then
    invalid_arg "Shortest_path.dijkstra_path: cost row shorter than the link count";
  let ws = Ws.get ~n in
  let ep = ws.Ws.epoch in
  let stamp = ws.Ws.stamp
  and dist = ws.Ws.dist_cost
  and prev = ws.Ws.prev
  and heap = ws.Ws.heap
  and pos = ws.Ws.pos
  and seq = ws.Ws.seq in
  stamp.(src) <- ep;
  dist.(src) <- 0.0;
  prev.(src) <- -1;
  seq.(src) <- 0;
  heap.(0) <- src;
  pos.(src) <- 0;
  let size = ref 1 and next_seq = ref 1 and dst_settled = ref false in
  while (not !dst_settled) && !size > 0 do
    let v = heap.(0) in
    decr size;
    if !size > 0 then begin
      heap.(0) <- heap.(!size);
      sift_down heap pos dist seq !size 0
    end;
    pos.(v) <- -1;
    if v = dst then dst_settled := true
    else begin
      let d = dist.(v) in
      let out = Graph.out_links g v in
      for k = 0 to Array.length out - 1 do
        let l = out.(k) in
        let c = cost.(l) in
        if c < 0.0 then invalid_arg "Shortest_path.dijkstra: negative cost";
        if c < infinity then begin
          let w = Graph.link_dst g l in
          let nd = d +. c in
          if stamp.(w) <> ep then begin
            stamp.(w) <- ep;
            dist.(w) <- nd;
            prev.(w) <- l;
            seq.(w) <- !next_seq;
            incr next_seq;
            heap.(!size) <- w;
            incr size;
            sift_up heap pos dist seq (!size - 1)
          end
          else if pos.(w) >= 0 && nd < dist.(w) then begin
            dist.(w) <- nd;
            prev.(w) <- l;
            seq.(w) <- !next_seq;
            incr next_seq;
            sift_up heap pos dist seq pos.(w)
          end
        end
      done
    end
  done;
  if not !dst_settled then None
  else if prev.(dst) = -1 then None (* dst is the source itself *)
  else begin
    let total = dist.(dst) in
    let rec rebuild v acc =
      let l = prev.(v) in
      if l = -1 then acc else rebuild (Graph.link_src g l) (l :: acc)
    in
    Some (total, Path.of_links g (rebuild dst []))
  end

let bellman_ford g ~cost ~src =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  dist.(src) <- 0.0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < n do
    changed := false;
    incr rounds;
    Graph.iter_links g (fun l ->
        let c = cost l in
        if c < infinity then begin
          let u = Graph.link_src g l and v = Graph.link_dst g l in
          if dist.(u) < infinity && dist.(u) +. c < dist.(v) then begin
            dist.(v) <- dist.(u) +. c;
            prev.(v) <- l;
            changed := true
          end
        end);
  done;
  if !changed then Error "negative-cost cycle reachable from source"
  else Ok (dist, prev)
