(* Group commit: many committers, few syncs.

   With [Config.group_commit] on, a node's redo log coalesces concurrent
   commits into one device write and one sync per batch instead of one
   sync per transaction.  Four application processes on node 0 commit in
   lockstep against separate locks; a batch closes at eight records or
   100 us after its first one, so each round's four commits share a
   batch, the sync count lands well below the transaction count, and
   every committed byte still reaches node 1 and survives recovery.

   Run with:  dune exec examples/group_commit.exe *)

open Lbc_core

let region = 0
let rounds = 6
let workers = 4

let () =
  let config =
    { Config.default with Config.disk_logging = true; group_commit = true }
  in
  let cluster = Cluster.create ~config ~nodes:2 () in
  Cluster.add_region cluster ~id:region ~size:4096;
  Cluster.map_region_all cluster ~region;
  for w = 0 to workers - 1 do
    Cluster.spawn cluster ~node:0 (fun node ->
        for round = 1 to rounds do
          let txn = Node.Txn.begin_ node in
          Node.Txn.acquire txn w;
          Node.Txn.set_u64 txn ~region ~offset:(8 * w)
            (Int64.of_int (100 * w + round));
          Node.Txn.commit txn
        done)
  done;
  Cluster.run cluster;

  let node0 = Cluster.node cluster 0 in
  let log = Lbc_rvm.Rvm.log (Node.rvm node0) in
  let commits = workers * rounds in
  let syncs = Lbc_storage.Dev.sync_count (Lbc_wal.Log.dev log) in
  Format.printf "group commit: %d commits in %d batches, %d log syncs@."
    (Lbc_wal.Log.records_batched log)
    (Lbc_wal.Log.batches_flushed log)
    syncs;
  assert (Lbc_wal.Log.group_commit_enabled log);
  assert (Lbc_wal.Log.records_batched log = commits);
  assert (syncs < commits);

  (* Every commit still propagated to node 1 ... *)
  let node1 = Cluster.node cluster 1 in
  for w = 0 to workers - 1 do
    assert (Node.get_u64 node1 ~region ~offset:(8 * w)
            = Int64.of_int (100 * w + rounds))
  done;
  Format.printf "node 1 converged on all %d workers' final values@." workers;

  (* ... and every batch is durable: the log replays clean. *)
  let records, status = Lbc_wal.Log.read_all log in
  (match status with
   | Lbc_wal.Log.Clean -> ()
   | Lbc_wal.Log.Torn_at (off, why) ->
       Format.kasprintf failwith "torn log at %d: %s" off why);
  Format.printf "log replays clean: %d durable records@." (List.length records);
  assert (List.length records = commits)
