let pp_node ppf node =
  let rvm = Lbc_rvm.Rvm.stats (Node.rvm node) in
  let st = Node.stats node in
  let locks = Lbc_locks.Table.stats (Node.locks node) in
  let log = Lbc_rvm.Rvm.log (Node.rvm node) in
  Format.fprintf ppf
    "node %d: %d commits (%d aborts), %d set_ranges | sent %d upd/%dB, \
     recv %d (%d held) | locks %d local/%d remote, %d interlock waits | \
     log %dB live%s%s%s%s"
    (Node.id node) rvm.Lbc_rvm.Rvm.commits rvm.Lbc_rvm.Rvm.aborts
    rvm.Lbc_rvm.Rvm.set_ranges st.Node.updates_sent st.Node.update_bytes_sent
    st.Node.records_received st.Node.records_held
    locks.Lbc_locks.Table.local_grants locks.Lbc_locks.Table.remote_grants
    st.Node.interlock_waits
    (Lbc_wal.Log.live_bytes log)
    (if st.Node.repair_fetches > 0 || locks.Lbc_locks.Table.stale_msgs > 0
     then
       Printf.sprintf " | %d repair fetches, %d stale lock msgs"
         st.Node.repair_fetches locks.Lbc_locks.Table.stale_msgs
     else "")
    (if Lbc_wal.Log.group_commit_enabled log then
       Printf.sprintf " | group commit: %d records in %d batches"
         (Lbc_wal.Log.records_batched log)
         (Lbc_wal.Log.batches_flushed log)
     else "")
    (if rvm.Lbc_rvm.Rvm.unmapped_ranges > 0 then
       Printf.sprintf " | %d UNMAPPED ranges dropped"
         rvm.Lbc_rvm.Rvm.unmapped_ranges
     else "")
    (if Node.pending_count node > 0 then
       Printf.sprintf " | %d PENDING" (Node.pending_count node)
     else "")

let pp_cluster ppf cluster =
  let dropped = Cluster.total_dropped cluster in
  Format.fprintf ppf
    "@[<v>cluster: %d nodes, %d messages, %d bytes on the wire%s@,\
    \  data path: %dB copied (baseline %dB), %d encode arenas"
    (Cluster.size cluster)
    (Cluster.total_messages cluster)
    (Cluster.total_bytes cluster)
    (if dropped > 0 then Printf.sprintf ", %d dropped" dropped else "")
    (Lbc_util.Slice.bytes_copied ())
    (Lbc_util.Slice.bytes_copied_baseline ())
    (Lbc_util.Slice.encode_allocs ());
  (* Flight-ring health: overflow shows up as a drop count here rather
     than as silently missing events in a dump. *)
  let obs = Cluster.obs cluster in
  if Lbc_obs.Obs.enabled obs then begin
    Format.fprintf ppf "@,  obs: flight";
    Array.iteri
      (fun i (recorded, dropped, bytes) ->
        Format.fprintf ppf " n%d %d/%d/%dB" i recorded dropped bytes)
      (Lbc_obs.Obs.ring_stats obs);
    Format.fprintf ppf " (rec/drop/bytes)"
  end;
  for n = 0 to Cluster.size cluster - 1 do
    Format.fprintf ppf "@,  %a%s" pp_node
      (Cluster.node cluster n)
      (if Cluster.is_crashed cluster n then " [DOWN]" else "")
  done;
  match Cluster.blocked cluster with
  | [] -> Format.fprintf ppf "@]"
  | blocked ->
      Format.fprintf ppf "@,  blocked: %s@]" (String.concat "; " blocked)
