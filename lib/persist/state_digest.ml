(* Canonical textual digest of a Net_state / Manager — every accessor the
   test-suite equivalence oracles compare, in one string.  Two states with
   equal digests agree on pools, every APLV count, spare accounting,
   failure flags, the full connection table (routes included) and the
   stats odometers.  The per-link conflict bits ("C" entries) are the
   nonzero counts again, so they add nothing the counts do not say; they
   stay so that digests pinned earlier remain valid.
   The crash-recovery gate is "digest of a crashed-and-recovered run =
   digest of the uncrashed run", bit for bit.

   Lifted from test/test_service.ml (which now delegates here) so the
   recovery code, the tests and the CLI all agree on what "identical
   state" means. *)

open Dr_topo
open Drtp

let digest graph state =
  let b = Buffer.create (1 lsl 12) in
  let links = Graph.link_count graph in
  let edges = Graph.edge_count graph in
  let res = Net_state.resources state in
  let a = Net_state.aplv state in
  for l = 0 to links - 1 do
    Buffer.add_string b
      (Printf.sprintf "L%d c%d p%d s%d f%d ab%d n%d bc%d sr%d sd%d bl%d|" l
         (Resources.capacity res l) (Resources.prime_bw res l)
         (Resources.spare_bw res l) (Resources.free res l)
         (Resources.available_for_backup res l)
         (Net_state.aplv_norm state l)
         (Aplv.backup_count a ~link:l)
         (Net_state.spare_required state ~link:l)
         (Net_state.spare_deficit state ~link:l)
         (Net_state.backup_count_on_link state ~link:l));
    let support = Aplv.support a ~link:l in
    List.iter
      (fun e -> Buffer.add_string b (Printf.sprintf "e%d:%d," e (Aplv.get a ~link:l e)))
      support;
    List.iter (fun e -> Buffer.add_string b (Printf.sprintf "C%d:1;" e)) support;
    Buffer.add_char b '\n'
  done;
  for e = 0 to edges - 1 do
    if Net_state.edge_failed state ~edge:e then
      Buffer.add_string b (Printf.sprintf "F%d;" e)
  done;
  let conns = ref [] in
  Net_state.iter_conns state (fun c -> conns := c :: !conns);
  let conns =
    List.sort (fun a b -> compare a.Net_state.id b.Net_state.id) !conns
  in
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "K%d %d->%d bw%d d%b P[%s] B[%s]\n" c.Net_state.id
           c.Net_state.src c.Net_state.dst c.Net_state.bw c.Net_state.degraded
           (String.concat "," (List.map string_of_int (Path.links c.Net_state.primary)))
           (String.concat "|"
              (List.map
                 (fun p ->
                   String.concat "," (List.map string_of_int (Path.links p)))
                 c.Net_state.backups))))
    conns;
  Buffer.add_string b
    (Printf.sprintf "U%d A%d\n"
       (Net_state.aplv_updates state)
       (Net_state.active_count state));
  Buffer.contents b

let manager_digest graph m =
  let st = Manager.stats m in
  let rs = Manager.reprotect_stats m in
  Printf.sprintf "%s|req%d acc%d rnp%d rnb%d rel%d deg%d unp%d|pend%d q%d d%d a%d ab%d ut%.9f"
    (digest graph (Manager.state m))
    st.Manager.requests st.Manager.accepted st.Manager.rejected_no_primary
    st.Manager.rejected_no_backup st.Manager.released st.Manager.degraded
    st.Manager.unprotected
    (Manager.reprotect_pending m)
    rs.Manager.queued rs.Manager.drained rs.Manager.attempts rs.Manager.abandoned
    rs.Manager.unprotected_time

let manager_hex graph m = Digest.to_hex (Digest.string (manager_digest graph m))
