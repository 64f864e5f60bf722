(* Whole-system randomized stress ("chaos") tests: many nodes, several
   regions and locks, mixed configurations, interleaved online
   checkpoints, pin/accept readers — always ending with the two global
   invariants: every cache converges to the same image, and server-side
   recovery reproduces it. *)

open Lbc_core

let regions = 2
let locks_per_region = 2
let region_size = 2048

(* lock l covers region (l / locks_per_region), byte range partitioned by
   (l mod locks_per_region). *)
let lock_region l = l / locks_per_region

let lock_offset rng l =
  let part = l mod locks_per_region in
  let span = region_size / locks_per_region in
  (part * span) + (8 * Lbc_util.Rng.int rng (span / 8))

(* Workload seeds are threaded (and overridable: LBC_CHAOS_SEED=n dune
   test) so a red chaos test is re-runnable, and on failure each seeded
   test prints a one-line repro command.  Tests with a scenario twin in
   lbc-explore name it, so the failure can be explored under alternative
   schedules, shrunk and replayed from a counterexample trace. *)
let chaos_seed default =
  match Sys.getenv_opt "LBC_CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let with_repro ?scenario ~seed f =
  try f ()
  with e ->
    Printf.eprintf "repro: LBC_CHAOS_SEED=%d dune runtest\n" seed;
    (match scenario with
    | Some name ->
        Printf.eprintf
          "explore: lbc-explore --scenario %s --seeds 100   # shrink + \
           --replay counterexample.trace\n"
          name
    | None -> ());
    (* Strand/crash paths auto-dump the flight recorder before the
       exception reaches us; name the file so the last moments are one
       lbc-trace invocation away. *)
    (match Cluster.last_flight_dump () with
    | Some path ->
        Printf.eprintf "flight dump: %s (decode with lbc-trace)\n" path
    | None -> ());
    flush stderr;
    raise e

let mk_cluster config nodes =
  let c = Cluster.create ~config ~nodes () in
  for r = 0 to regions - 1 do
    Cluster.add_region c ~id:r ~size:region_size;
    Cluster.map_region_all c ~region:r
  done;
  c

let worker c rng n iterations =
  let rng = Lbc_util.Rng.split rng in
  Cluster.spawn c ~node:n (fun node ->
      for _ = 1 to iterations do
        let txn = Node.Txn.begin_ node in
        (* Acquire 1-2 locks in canonical order (avoiding deadlock, as
           the paper's applications must). *)
        let l1 = Lbc_util.Rng.int rng (regions * locks_per_region) in
        let l2 = Lbc_util.Rng.int rng (regions * locks_per_region) in
        let ls = List.sort_uniq compare [ l1; l2 ] in
        List.iter (fun l -> Node.Txn.acquire txn l) ls;
        List.iter
          (fun l ->
            (* Writes stay inside the acquired lock's partition. *)
            if Lbc_util.Rng.int rng 4 > 0 then
              Node.Txn.set_u64 txn ~region:(lock_region l)
                ~offset:(lock_offset rng l)
                (Lbc_util.Rng.int64 rng))
          ls;
        if Lbc_util.Rng.int rng 10 = 0 then Node.Txn.abort txn
        else Node.Txn.commit txn;
        Lbc_sim.Proc.sleep (Lbc_util.Rng.float rng 30.0)
      done)

let converged c nodes =
  let image n r = Node.read (Cluster.node c n) ~region:r ~offset:0 ~len:region_size in
  let ok = ref true in
  for r = 0 to regions - 1 do
    for n = 1 to nodes - 1 do
      if not (Bytes.equal (image 0 r) (image n r)) then ok := false
    done
  done;
  !ok

let recovery_matches c =
  ignore (Cluster.recover_database c);
  let ok = ref true in
  for r = 0 to regions - 1 do
    let dev = Cluster.region_dev c r in
    let len = min region_size (Lbc_storage.Dev.size dev) in
    let db = Lbc_storage.Dev.read dev ~off:0 ~len in
    let cache = Node.read (Cluster.node c 0) ~region:r ~offset:0 ~len in
    if not (Bytes.equal db cache) then begin
      if Sys.getenv_opt "LBC_DEBUG_RECOVERY" <> None then
        for i = 0 to len - 1 do
          if Bytes.get db i <> Bytes.get cache i then
            Printf.eprintf "region %d offset %d: db=%02x cache=%02x\n" r i
              (Char.code (Bytes.get db i))
              (Char.code (Bytes.get cache i))
        done;
      ok := false
    end
  done;
  !ok

let run_chaos ?scenario ~config ~nodes ~seed ~checkpoints () =
  let seed = chaos_seed seed in
  with_repro ?scenario ~seed (fun () ->
      let c = mk_cluster config nodes in
      let rng = Lbc_util.Rng.create seed in
      for n = 0 to nodes - 1 do
        worker c rng n 20
      done;
      if checkpoints then begin
        (* Interleave online checkpoints with the running workload. *)
        Cluster.run ~until:300.0 c;
        ignore (Cluster.online_checkpoint c);
        Cluster.run ~until:600.0 c;
        ignore (Cluster.online_checkpoint c)
      end;
      Cluster.run c;
      Alcotest.(check bool) "caches converged" true (converged c nodes);
      Alcotest.(check bool) "recovery matches caches" true (recovery_matches c))

let test_chaos_eager () =
  run_chaos ~config:Config.default ~nodes:4 ~seed:101 ~checkpoints:false ()

let test_chaos_eager_checkpoints () =
  run_chaos ~config:Config.default ~nodes:3 ~seed:202 ~checkpoints:true ()

let test_chaos_multicast () =
  run_chaos
    ~config:{ Config.default with Config.multicast = true }
    ~nodes:5 ~seed:303 ~checkpoints:false ()

let test_chaos_costs_charged () =
  run_chaos ~config:{ Config.measured with Config.disk_logging = true }
    ~nodes:3 ~seed:404 ~checkpoints:false ()

(* Lazy mode: convergence happens on demand, so instead of comparing raw
   caches we make every node acquire every lock at the end (pulling the
   chains), then compare. *)
let test_chaos_lazy () =
  let seed = chaos_seed 505 in
  with_repro ~seed @@ fun () ->
  let config = { Config.default with Config.propagation = Config.Lazy } in
  let nodes = 3 in
  let c = mk_cluster config nodes in
  let rng = Lbc_util.Rng.create seed in
  for n = 0 to nodes - 1 do
    worker c rng n 15
  done;
  Cluster.run c;
  for n = 0 to nodes - 1 do
    Cluster.spawn c ~node:n (fun node ->
        let txn = Node.Txn.begin_ node in
        for l = 0 to (regions * locks_per_region) - 1 do
          Node.Txn.acquire txn l
        done;
        Node.Txn.commit txn)
  done;
  Cluster.run c;
  Alcotest.(check bool) "caches converged after pulls" true (converged c nodes);
  Alcotest.(check bool) "recovery matches" true (recovery_matches c)

(* Random pin/accept readers interleaved with writers. *)
let test_chaos_pinned_readers () =
  let nodes = 3 in
  let c = mk_cluster Config.default nodes in
  let rng = Lbc_util.Rng.create 606 in
  worker c rng 0 25;
  worker c rng 1 25;
  Cluster.spawn c ~node:2 (fun node ->
      for _ = 1 to 6 do
        Node.pin node;
        Lbc_sim.Proc.sleep 50.0;
        (* While pinned, the cache must not change. *)
        let before = Node.read node ~region:0 ~offset:0 ~len:region_size in
        Lbc_sim.Proc.sleep 50.0;
        let after = Node.read node ~region:0 ~offset:0 ~len:region_size in
        if not (Bytes.equal before after) then
          Alcotest.fail "pinned cache changed";
        Node.accept node;
        Lbc_sim.Proc.sleep 20.0
      done);
  Cluster.run c;
  Node.accept (Cluster.node c 2);
  Alcotest.(check bool) "caches converged" true (converged c nodes);
  Alcotest.(check bool) "recovery matches" true (recovery_matches c)

(* QCheck-driven version: the same invariants over arbitrary seeds and
   cluster shapes. *)
let prop_random_clusters_converge =
  QCheck.Test.make ~name:"random clusters converge and recover" ~count:30
    QCheck.(pair (int_range 2 5) small_nat)
    (fun (nodes, seed) ->
      let c = mk_cluster Config.default nodes in
      let rng = Lbc_util.Rng.create (seed + 1) in
      for n = 0 to nodes - 1 do
        worker c rng n 8
      done;
      Cluster.run c;
      converged c nodes && recovery_matches c)

(* The simulator promises determinism: identical seeds must give
   bit-identical final states and identical virtual completion times. *)
let test_simulation_deterministic () =
  let run () =
    let c = mk_cluster Config.default 3 in
    let rng = Lbc_util.Rng.create 777 in
    for n = 0 to 2 do
      worker c rng n 12
    done;
    Cluster.run c;
    let images =
      List.concat_map
        (fun r ->
          List.init 3 (fun n ->
              Node.read (Cluster.node c n) ~region:r ~offset:0 ~len:region_size))
        [ 0; 1 ]
    in
    (Cluster.now c, Bytes.concat Bytes.empty images, Cluster.total_messages c)
  in
  let t1, img1, m1 = run () in
  let t2, img2, m2 = run () in
  Alcotest.(check (float 0.0)) "same virtual end time" t1 t2;
  Alcotest.(check bool) "same final images" true (Bytes.equal img1 img2);
  Alcotest.(check int) "same message count" m1 m2

(* ----------------------------------------------------------------- *)
(* Fault injection: message loss, node crash and rejoin *)

let all_locks = regions * locks_per_region

(* Every node acquires every lock once: the interlock (plus the repair
   watchdog) forces each cache to pull in whatever it missed. *)
let final_pull c nodes =
  for n = 0 to nodes - 1 do
    Cluster.spawn c ~node:n (fun node ->
        let txn = Node.Txn.begin_ node in
        for l = 0 to all_locks - 1 do
          Node.Txn.acquire txn l
        done;
        Node.Txn.commit txn)
  done;
  Cluster.run c

let logs_of c nodes =
  List.init nodes (fun n -> Lbc_rvm.Rvm.log (Node.rvm (Cluster.node c n)))

let check_logs_clean what c nodes =
  let vs = Lbc_analysis.Invariants.check_logs (logs_of c nodes) in
  Alcotest.(check (list string))
    what []
    (List.map Lbc_analysis.Violation.to_string vs)

let drop_updates c ~src ~dst on =
  let filter =
    if on then Some (function Msg.Update _ -> true | _ -> false) else None
  in
  Lbc_net.Fabric.set_drop_filter (Cluster.fabric c) ~src ~dst filter

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Data-plane loss with repair enabled: a channel silently eats every
   update, yet the seqno-gap watchdog re-fetches the missing records and
   the system converges — with the loss visible in the accounting. *)
let test_chaos_drop_repair_heals () =
  let seed = chaos_seed 808 in
  with_repro ~scenario:"drop-heal" ~seed @@ fun () ->
  let config =
    { Config.default with Config.repair = true; Config.repair_timeout = 100.0 }
  in
  let nodes = 3 in
  let c = mk_cluster config nodes in
  drop_updates c ~src:0 ~dst:1 true;
  let rng = Lbc_util.Rng.create seed in
  for n = 0 to nodes - 1 do
    worker c rng n 20
  done;
  Cluster.run c;
  final_pull c nodes;
  Alcotest.(check bool)
    "updates were dropped" true
    (Lbc_net.Fabric.messages_dropped (Cluster.fabric c) ~src:0 ~dst:1 > 0);
  Alcotest.(check bool)
    "drops surface in totals" true
    (Cluster.total_dropped c > 0);
  Alcotest.(check bool)
    "repair fetches were issued" true
    ((Node.stats (Cluster.node c 1)).Node.repair_fetches > 0);
  Alcotest.(check bool) "caches converged" true (converged c nodes);
  Alcotest.(check bool) "recovery matches" true (recovery_matches c);
  check_logs_clean "merged logs clean after repair" c nodes

(* The same loss without repair must not complete silently: the victim is
   stranded in the acquire interlock and [Cluster.run] says so. *)
let test_chaos_drop_without_repair_strands () =
  let nodes = 3 in
  let c = mk_cluster Config.default nodes in
  drop_updates c ~src:0 ~dst:1 true;
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn 0;
      Node.Txn.set_u64 txn ~region:0 ~offset:0 1234L;
      Node.Txn.commit txn);
  Cluster.spawn c ~node:1 (fun node ->
      Lbc_sim.Proc.sleep 50.0;
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn 0;
      (* unreachable: the update was dropped and nothing repairs it *)
      Node.Txn.commit txn);
  (match Cluster.run c with
  | () -> Alcotest.fail "run completed despite a lost update"
  | exception Lbc_sim.Engine.Stranded descs ->
      Alcotest.(check bool) "stranded report non-empty" true (descs <> []);
      Alcotest.(check bool)
        "report names the interlock" true
        (List.exists (fun d -> contains d "interlock") descs));
  Alcotest.(check bool)
    "the lost update was counted" true
    (Lbc_net.Fabric.messages_dropped (Cluster.fabric c) ~src:0 ~dst:1 > 0);
  (* Tracing is off (default config), yet the always-on flight recorder
     auto-dumped on the strand: the last moments of every node decode
     back clean. *)
  let module FD = Lbc_obs.Flight_dump in
  (match Cluster.last_flight c with
  | None -> Alcotest.fail "no flight dump auto-written on strand"
  | Some path ->
      Alcotest.(check bool) "dump file exists" true (Sys.file_exists path);
      Alcotest.(check bool) "LBCF magic" true (FD.is_flight_file path);
      (match FD.read path with
      | Error e -> Alcotest.failf "flight dump unreadable: %s" e
      | Ok d ->
          Alcotest.(check (list string))
            "flight self-check clean" [] (FD.self_check d);
          Alcotest.(check string) "sim clock" "virtual-us" d.FD.d_clock;
          Alcotest.(check int) "one ring per node" nodes
            (Array.length d.FD.d_rings);
          (* Node 0 committed and node 1 hit the interlock: both rings
             must hold their last events. *)
          Array.iter
            (fun ring ->
              if ring.FD.r_id < 2 && Array.length ring.FD.r_events = 0 then
                Alcotest.failf "ring %d has no events" ring.FD.r_id)
            d.FD.d_rings);
      Sys.remove path)

(* Node crash mid-flight, lease-based token reclaim, rejoin with log
   replay — on top of a lossy channel.  Five nodes and four locks, so the
   crashed node manages no lock (manager failure is out of the fault
   model, see DESIGN.md). *)
let test_chaos_crash_rejoin () =
  let seed = chaos_seed 909 in
  with_repro ~scenario:"crash-rejoin" ~seed @@ fun () ->
  let config =
    {
      Config.default with
      Config.repair = true;
      Config.repair_timeout = 100.0;
      Config.lease_timeout = 500.0;
    }
  in
  let nodes = 5 in
  let c = mk_cluster config nodes in
  drop_updates c ~src:0 ~dst:1 true;
  drop_updates c ~src:2 ~dst:3 true;
  let rng = Lbc_util.Rng.create seed in
  for n = 0 to nodes - 1 do
    worker c rng n 20
  done;
  Lbc_sim.Proc.spawn (Cluster.engine c) ~name:"chaos-controller" (fun () ->
      Lbc_sim.Proc.sleep 150.0;
      Cluster.crash c ~node:4;
      let rec rejoin_when_lease_expires () =
        match Cluster.rejoin c ~node:4 with
        | () -> ()
        | exception Invalid_argument _ ->
            Lbc_sim.Proc.sleep 50.0;
            rejoin_when_lease_expires ()
      in
      rejoin_when_lease_expires ();
      (* The node is back: give it fresh work. *)
      worker c rng 4 5);
  Cluster.run c;
  Alcotest.(check bool) "node is back up" false (Cluster.is_crashed c 4);
  final_pull c nodes;
  Alcotest.(check bool)
    "faults actually dropped traffic" true
    (Cluster.total_dropped c > 0);
  Alcotest.(check bool) "caches converged" true (converged c nodes);
  Alcotest.(check bool) "recovery matches" true (recovery_matches c);
  check_logs_clean "merged logs clean after crash+rejoin" c nodes

(* A chaos run traced into whole-run rings: the LBCF dump must survive
   the explorer's self-check (clean decode, monotone per-node
   timestamps, nothing dropped, every flow arrow resolving into an
   apply span) even under randomized interleavings, and every committed
   write's flow must resolve. *)
let test_chaos_traced () =
  let module FD = Lbc_obs.Flight_dump in
  let config = { Config.default with Config.flight_ring_bytes = 1 lsl 20 } in
  let nodes = 4 in
  let c = mk_cluster config nodes in
  let rng = Lbc_util.Rng.create 1111 in
  for n = 0 to nodes - 1 do
    worker c rng n 15
  done;
  Cluster.run c;
  Alcotest.(check bool) "caches converged" true (converged c nodes);
  let o = Cluster.obs c in
  Alcotest.(check bool) "tracing on" true (Lbc_obs.Obs.enabled o);
  let path = Filename.temp_file "lbc-chaos" ".bin" in
  let (_ : string) = Cluster.dump_flight ~path c in
  let d =
    match FD.read path with
    | Error e -> Alcotest.failf "trace not decodable: %s" e
    | Ok d -> d
  in
  Sys.remove path;
  Alcotest.(check (list string))
    "trace self-check clean" []
    (Lbc_obs.Explorer.self_check d);
  Array.iter
    (fun r -> Alcotest.(check int) "nothing dropped" 0 r.FD.r_dropped)
    d.FD.d_rings;
  let f = Lbc_obs.Explorer.flow_summary (FD.merged d) in
  Alcotest.(check bool)
    "flows were emitted" true
    (f.Lbc_obs.Explorer.fl_starts > 0);
  Alcotest.(check int)
    "every flow resolves into an apply span" 0
    f.Lbc_obs.Explorer.fl_unresolved

(* Online checkpoints must keep working while a channel is lossy and a
   node is down: each call merges whatever prefix is orderable (possibly
   empty) without corrupting anything. *)
let test_chaos_checkpoint_under_faults () =
  let seed = chaos_seed 1010 in
  with_repro ~scenario:"checkpoint-under-faults" ~seed @@ fun () ->
  let config =
    {
      Config.default with
      Config.repair = true;
      Config.repair_timeout = 100.0;
      Config.lease_timeout = 400.0;
    }
  in
  let nodes = 5 in
  let c = mk_cluster config nodes in
  drop_updates c ~src:0 ~dst:1 true;
  let rng = Lbc_util.Rng.create seed in
  for n = 0 to nodes - 1 do
    worker c rng n 15
  done;
  Cluster.run ~until:100.0 c;
  Cluster.crash c ~node:4;
  let ckpt1 = Cluster.online_checkpoint c in
  Alcotest.(check bool) "checkpoint under faults returns" true (ckpt1 >= 0);
  Cluster.run ~until:900.0 c;
  ignore (Cluster.online_checkpoint c);
  Cluster.rejoin c ~node:4;
  Cluster.run c;
  final_pull c nodes;
  Alcotest.(check bool) "caches converged" true (converged c nodes);
  Alcotest.(check bool) "recovery matches" true (recovery_matches c)

(* ----------------------------------------------------------------- *)
(* Fuzzy checkpoints, retention clamping, partitioned recovery *)

let log_of c n = Lbc_rvm.Rvm.log (Node.rvm (Cluster.node c n))

let ctrl_counts log =
  let counts, _ =
    Lbc_wal.Log.fold_ctrl log ~init:(0, 0) (fun (b, e) _ c ->
        match c.Lbc_wal.Record.kind with
        | Lbc_wal.Record.Ckpt_begin -> (b + 1, e)
        | Lbc_wal.Record.Ckpt_end -> (b, e + 1)
        | Lbc_wal.Record.Region_index -> (b, e))
  in
  counts

let crash_then_rejoin ?mode ?(after_rejoin = fun () -> ()) c ~node:n =
  Lbc_sim.Proc.spawn (Cluster.engine c) ~name:"chaos-controller" (fun () ->
      Cluster.crash c ~node:n;
      let rec rejoin_when_lease_expires () =
        match Cluster.rejoin ?mode c ~node:n with
        | () -> ()
        | exception Invalid_argument _ ->
            Lbc_sim.Proc.sleep 50.0;
            rejoin_when_lease_expires ()
      in
      rejoin_when_lease_expires ();
      after_rejoin ())

(* Satellite regression (the PR's headline bugfix): a node-local
   [Rvm.truncate] used to trim the log to its tail even when the repair
   service still needed the records.  The sequence that exposed it: the
   only update carrying a write is dropped, the writer truncates, then
   crashes — its in-memory retained table dies — and rejoins, rebuilding
   retention from whatever the log still holds.  If the truncate threw
   the record away, the victim's repair fetch finds nothing and the
   cluster strands; with the retention low-water clamp it converges. *)
let test_chaos_truncate_respects_retention () =
  let config =
    {
      Config.fault_tolerant with
      Config.repair_timeout = 100.0;
      Config.lease_timeout = 300.0;
    }
  in
  let nodes = 2 in
  let c = mk_cluster config nodes in
  (* Node 1 writes; its updates to node 0 vanish.  Lock 0 is managed by
     node 0, which stays up throughout. *)
  drop_updates c ~src:1 ~dst:0 true;
  Cluster.spawn c ~node:1 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn 0;
      Node.Txn.set_u64 txn ~region:0 ~offset:0 77L;
      Node.Txn.commit txn;
      (* Node-local stop-the-world truncation right after the commit. *)
      Lbc_rvm.Rvm.truncate (Node.rvm node));
  Cluster.run c;
  Alcotest.(check bool)
    "retention clamp kept the unacked record" true
    (Lbc_wal.Log.record_count (log_of c 1) > 0);
  crash_then_rejoin c ~node:1;
  Cluster.run c;
  Alcotest.(check bool) "writer is back" false (Cluster.is_crashed c 1);
  (* The victim pulls the write: the interlock parks it until the repair
     watchdog fetches the record the writer retained across the
     truncate+crash. *)
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn 0;
      Alcotest.(check int64) "victim sees the write" 77L
        (Node.Txn.get_u64 txn ~region:0 ~offset:0);
      Node.Txn.commit txn);
  Cluster.run c;
  Alcotest.(check bool) "caches converged" true (converged c nodes);
  check_logs_clean "logs clean after truncate+crash+repair" c nodes

(* Satellite: crash in the middle of a fuzzy checkpoint — after the
   Ckpt_begin marker is durable, before the Ckpt_end — then recover.
   The pinned ckpt water kept the log untrimmed, so replay from the
   previous checkpoint covers the fuzzy half-flushed images; rejoin
   lifts the abandoned pin. *)
let test_chaos_crash_mid_fuzzy_checkpoint () =
  let config =
    {
      Config.fault_tolerant with
      Config.repair_timeout = 100.0;
      Config.lease_timeout = 400.0;
      Config.ckpt_slice_bytes = 64;
      Config.ckpt_slice_interval = 50.0;
      Config.ckpt_gossip_delay = 100.0;
    }
  in
  let nodes = 3 in
  let c = mk_cluster config nodes in
  let rng = Lbc_util.Rng.create 1212 in
  for n = 0 to nodes - 1 do
    worker c rng n 15
  done;
  Cluster.run ~until:200.0 c;
  Cluster.fuzzy_checkpoint c ~node:0;
  (* Step the clock until the checkpoint is mid-flight: a live begin
     marker with no matching end. *)
  let deadline = ref 250.0 in
  while
    (let b, e = ctrl_counts (log_of c 0) in
     b <= e)
    && !deadline < 20_000.0
  do
    deadline := !deadline +. 25.0;
    Cluster.run ~until:!deadline c
  done;
  let b, e = ctrl_counts (log_of c 0) in
  Alcotest.(check bool) "checkpoint is mid-flight" true (b > e);
  crash_then_rejoin c ~node:0;
  Cluster.run c;
  Alcotest.(check bool) "node is back up" false (Cluster.is_crashed c 0);
  final_pull c nodes;
  Alcotest.(check bool) "caches converged" true (converged c nodes);
  Alcotest.(check bool) "recovery matches" true (recovery_matches c);
  check_logs_clean "logs clean after mid-ckpt crash" c nodes;
  (* The orphaned begin marker is still live (never trimmed past), and
     the end marker never made it. *)
  let b', e' = ctrl_counts (log_of c 0) in
  Alcotest.(check bool) "begin survives, end absent" true (b' > e')

(* A fuzzy checkpoint on a live cluster trims the log incrementally and
   leaves both markers at the head; everything still converges and
   server-side recovery over the trimmed log reproduces the caches. *)
let test_chaos_fuzzy_checkpoint_trims () =
  let config =
    {
      Config.default with
      Config.ckpt_slice_bytes = 128;
      Config.ckpt_slice_interval = 20.0;
      Config.ckpt_gossip_delay = 50.0;
    }
  in
  let nodes = 3 in
  let c = mk_cluster config nodes in
  let rng = Lbc_util.Rng.create 1313 in
  for n = 0 to nodes - 1 do
    worker c rng n 15
  done;
  Cluster.run ~until:300.0 c;
  Cluster.fuzzy_checkpoint c ~node:0;
  Cluster.run c;
  let log0 = log_of c 0 in
  Alcotest.(check bool) "log head advanced" true
    (Lbc_wal.Log.head log0 > Lbc_wal.Log.header_size);
  let b, e = ctrl_counts log0 in
  Alcotest.(check (pair int int)) "begin and end markers live" (1, 1) (b, e);
  Alcotest.(check int) "water lifted" max_int (Lbc_wal.Log.low_water log0);
  Alcotest.(check bool) "several slices ran" true
    ((Lbc_rvm.Rvm.stats (Node.rvm (Cluster.node c 0))).Lbc_rvm.Rvm.ckpt_slices
    > 1);
  Alcotest.(check bool) "caches converged" true (converged c nodes);
  Alcotest.(check bool) "recovery over trimmed log matches" true
    (recovery_matches c);
  check_logs_clean "logs clean after fuzzy checkpoint" c nodes

(* Partitioned replay: same recovered bytes as serial replay, in less
   virtual time.  Home-segment workload so the lock/region closure splits
   into one partition per node. *)
let test_chaos_partitioned_recovery () =
  let config = { Config.default with Config.charge_costs = true } in
  let nodes = 4 in
  let c = Cluster.create ~config ~nodes () in
  for r = 0 to nodes - 1 do
    Cluster.add_region c ~id:r ~size:region_size;
    Cluster.map_region_all c ~region:r
  done;
  let rng = Lbc_util.Rng.create 1414 in
  for n = 0 to nodes - 1 do
    let rng = Lbc_util.Rng.split rng in
    Cluster.spawn c ~node:n (fun node ->
        (* Each node works only its home lock/region: the partitions are
           disjoint by construction. *)
        for _ = 1 to 10 do
          let txn = Node.Txn.begin_ node in
          Node.Txn.acquire txn n;
          Node.Txn.set_u64 txn ~region:n
            ~offset:(8 * Lbc_util.Rng.int rng (region_size / 8))
            (Lbc_util.Rng.int64 rng);
          Node.Txn.commit txn;
          Lbc_sim.Proc.sleep (Lbc_util.Rng.float rng 20.0)
        done)
  done;
  Cluster.run c;
  let images () =
    List.init nodes (fun r ->
        Lbc_storage.Dev.stable_snapshot (Cluster.region_dev c r))
  in
  let outcome_s, t_serial = Cluster.timed_recovery c ~mode:Cluster.Serial in
  let serial_images = images () in
  let outcome_p, t_partitioned =
    Cluster.timed_recovery c ~mode:Cluster.Partitioned
  in
  let partitioned_images = images () in
  Alcotest.(check int) "same records replayed"
    outcome_s.Lbc_rvm.Recovery.records_replayed
    outcome_p.Lbc_rvm.Recovery.records_replayed;
  Alcotest.(check int) "all 40 transactions" 40
    outcome_s.Lbc_rvm.Recovery.records_replayed;
  Alcotest.(check bool) "byte-identical recovered images" true
    (List.for_all2 Bytes.equal serial_images partitioned_images);
  Alcotest.(check bool)
    (Printf.sprintf "partitioned (%.0f) faster than serial (%.0f)"
       t_partitioned t_serial)
    true
    (t_partitioned < t_serial)

(* Tentpole: an on-demand rejoin serves immediately — chains replay on
   first touch while a background drain walks the rest — and ends in
   exactly the same state as a full replay: converged caches, a clean
   merged log, and a recovered database matching the caches byte for
   byte.  The restarted node's first commit feeds
   [time_to_first_commit_us].

   Home-segment workload (each node writes only its own lock's slots):
   a single-node fuzzy checkpoint is only recovery-consistent when the
   trimmed records have no older cross-node writes beneath them, which
   single-writer slots guarantee (the distributed [online_checkpoint]
   guarantees it for arbitrary workloads by trimming every log at one
   consistent cut). *)
let worker_home c rng n iterations =
  let rng = Lbc_util.Rng.split rng in
  Cluster.spawn c ~node:n (fun node ->
      for _ = 1 to iterations do
        let txn = Node.Txn.begin_ node in
        Node.Txn.acquire txn n;
        Node.Txn.set_u64 txn ~region:(lock_region n)
          ~offset:(lock_offset rng n) (Lbc_util.Rng.int64 rng);
        Node.Txn.commit txn;
        Lbc_sim.Proc.sleep (Lbc_util.Rng.float rng 20.0)
      done)

let test_chaos_ondemand_rejoin () =
  let seed = chaos_seed 1515 in
  with_repro ~scenario:"rejoin-under-load" ~seed @@ fun () ->
  let config =
    {
      Config.fault_tolerant with
      Config.repair_timeout = 100.0;
      Config.lease_timeout = 400.0;
      Config.ckpt_slice_bytes = 128;
      Config.ckpt_slice_interval = 20.0;
      Config.ckpt_gossip_delay = 50.0;
    }
  in
  let nodes = 3 in
  let c = mk_cluster config nodes in
  let rng = Lbc_util.Rng.create seed in
  for n = 0 to nodes - 1 do
    worker_home c rng n 10
  done;
  Cluster.run c;
  (* Persist a region-index control record with a fuzzy checkpoint so
     the rejoin seeds its chains from it instead of rescanning... *)
  Cluster.fuzzy_checkpoint c ~node:0;
  Cluster.run c;
  (* ...then grow a post-checkpoint tail for the index to extend over. *)
  for n = 0 to nodes - 1 do
    worker_home c rng n 10
  done;
  Cluster.run c;
  crash_then_rejoin ~mode:Node.On_demand c ~node:0;
  Cluster.run c;
  Alcotest.(check bool) "node is back up" false (Cluster.is_crashed c 0);
  (* Load on the freshly-rejoined node: first touches replay chains on
     demand, the background drain warms the rest. *)
  worker_home c rng 0 5;
  Cluster.run c;
  Alcotest.(check bool) "drain finished" false
    (Node.recovering (Cluster.node c 0));
  final_pull c nodes;
  Alcotest.(check bool) "caches converged" true (converged c nodes);
  Alcotest.(check bool) "recovery matches" true (recovery_matches c);
  check_logs_clean "merged logs clean after on-demand rejoin" c nodes;
  match Lbc_obs.Obs.hist (Cluster.obs c) "time_to_first_commit_us" with
  | Some h ->
      Alcotest.(check bool) "time to first commit observed" true
        (Lbc_obs.Obs.Histogram.count h > 0)
  | None -> Alcotest.fail "no time_to_first_commit_us histogram"

(* Satellite regression: with lazy propagation a peer's fetch must not
   be answered from a not-yet-replayed chain.  Node 1 commits writes
   only it knows about (lazy: nothing is broadcast), crashes, and
   rejoins on demand; a fetch injected before the background drain has
   run a single step must block on the chain replay and serve the
   post-crash bytes — without the warmth gate it would answer from the
   empty (stale) retained table and strand the peer in the interlock
   (repair is off, so nothing would heal it).  The serializability
   oracle judges the final images. *)
let test_chaos_ondemand_fetch_gate () =
  let config =
    {
      Config.default with
      Config.propagation = Config.Lazy;
      Config.lease_timeout = 300.0;
    }
  in
  let nodes = 2 in
  let c = mk_cluster config nodes in
  Cluster.spawn c ~node:1 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn 0;
      Node.Txn.set_u64 txn ~region:0 ~offset:0 66L;
      Node.Txn.commit txn;
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn 0;
      Node.Txn.set_u64 txn ~region:0 ~offset:0 88L;
      Node.Txn.commit txn);
  Cluster.run c;
  crash_then_rejoin ~mode:Node.On_demand c ~node:1
    ~after_rejoin:(fun () ->
      (* The controller has not yielded since the rejoin: the drain has
         not run, every chain is still cold. *)
      Alcotest.(check bool) "chains cold right after rejoin" true
        (Node.recovering (Cluster.node c 1));
      Node.handle (Cluster.node c 1) ~src:0 (Msg.Fetch { lock = 0; have = 0 }));
  Cluster.run c;
  Alcotest.(check bool) "writer is back" false (Cluster.is_crashed c 1);
  (* The injected fetch's reply already healed node 0: its acquire
     passes the interlock locally and sees the newest committed bytes. *)
  Cluster.spawn c ~node:0 (fun node ->
      let txn = Node.Txn.begin_ node in
      Node.Txn.acquire txn 0;
      Alcotest.(check int64) "fetch served post-replay bytes" 88L
        (Node.Txn.get_u64 txn ~region:0 ~offset:0);
      Node.Txn.commit txn);
  Cluster.run c;
  Alcotest.(check bool) "caches converged" true (converged c nodes);
  let streams =
    List.map Lbc_analysis.Invariants.stream_of_log (logs_of c nodes)
  in
  let finals =
    List.init nodes (fun n ->
        ( Printf.sprintf "node %d" n,
          fun r ->
            Node.read (Cluster.node c n) ~region:r ~offset:0 ~len:region_size ))
  in
  let vs =
    Lbc_analysis.Serialize.check
      ~regions:(List.init regions (fun r -> (r, region_size)))
      ~finals streams
  in
  Alcotest.(check (list string))
    "serializable with on-demand replay" []
    (List.map Lbc_analysis.Violation.to_string vs)

let suites =
  [
    ( "chaos",
      [
        Alcotest.test_case "eager 4 nodes" `Quick test_chaos_eager;
        Alcotest.test_case "eager + online checkpoints" `Quick
          test_chaos_eager_checkpoints;
        Alcotest.test_case "multicast 5 nodes" `Quick test_chaos_multicast;
        Alcotest.test_case "costs charged" `Quick test_chaos_costs_charged;
        Alcotest.test_case "lazy propagation" `Quick test_chaos_lazy;
        Alcotest.test_case "pinned readers" `Quick test_chaos_pinned_readers;
        QCheck_alcotest.to_alcotest prop_random_clusters_converge;
        Alcotest.test_case "simulation deterministic" `Quick
          test_simulation_deterministic;
        Alcotest.test_case "traced run passes trace self-check" `Quick
          test_chaos_traced;
      ] );
    ( "chaos-faults",
      [
        Alcotest.test_case "dropped updates heal via repair" `Quick
          test_chaos_drop_repair_heals;
        Alcotest.test_case "dropped updates strand without repair" `Quick
          test_chaos_drop_without_repair_strands;
        Alcotest.test_case "crash, lease reclaim, rejoin" `Quick
          test_chaos_crash_rejoin;
        Alcotest.test_case "online checkpoint under faults" `Quick
          test_chaos_checkpoint_under_faults;
      ] );
    ( "chaos-ckpt",
      [
        Alcotest.test_case "truncate respects repair retention" `Quick
          test_chaos_truncate_respects_retention;
        Alcotest.test_case "crash mid fuzzy checkpoint" `Quick
          test_chaos_crash_mid_fuzzy_checkpoint;
        Alcotest.test_case "fuzzy checkpoint trims live cluster" `Quick
          test_chaos_fuzzy_checkpoint_trims;
        Alcotest.test_case "partitioned recovery" `Quick
          test_chaos_partitioned_recovery;
      ] );
    ( "chaos-ondemand",
      [
        Alcotest.test_case "on-demand rejoin under load" `Quick
          test_chaos_ondemand_rejoin;
        Alcotest.test_case "cold fetch gated by chain replay" `Quick
          test_chaos_ondemand_fetch_gate;
      ] );
  ]
