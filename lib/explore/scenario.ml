(* Named, self-checking workloads for the schedule explorer.

   A scenario is a closed experiment: build a cluster (or a bare engine),
   run a fixed workload under a caller-chosen same-time schedule policy,
   then judge the outcome with every oracle we have — the log invariants
   (seqno chains, merge legality, the vector-clock race check), the
   one-copy serializability oracle (merged stream replayed against a
   sequential spec, compared byte-for-byte with every cache and the
   recovered database), and any scenario-specific invariant.  The
   workload itself is deterministic; the schedule policy is the only
   degree of freedom, so a recorded decision trace pins the whole run.

   The registry mirrors the chaos test suite (same workloads, same
   workload seeds) so a red chaos test has a scenario twin the explorer
   can shrink and replay. *)

module E = Lbc_sim.Engine
module S = Lbc_sim.Schedule
module V = Lbc_analysis.Violation
open Lbc_core

type result = {
  violations : V.t list;
  decisions : int list;  (* the schedule trace of this run *)
  choice_points : int;
  committed : int;  (* merged committed transactions (informational) *)
}

type t = {
  name : string;
  descr : string;
  run : S.policy -> result;
}

(* --------------------------------------------------------------- *)
(* Shared cluster-scenario plumbing: the chaos geometry and worker are
   the checker self-test's *)

module W = Lbc_analysis.Selftest

(* Every node acquires every listed lock once, pulling whatever its cache
   still misses (mandatory for lazy propagation, harmless elsewhere). *)
let final_pull c ~nodes ~locks =
  for n = 0 to nodes - 1 do
    Cluster.spawn c ~node:n (fun node ->
        let txn = Node.Txn.begin_ node in
        for l = 0 to locks - 1 do
          Node.Txn.acquire txn l
        done;
        Node.Txn.commit txn)
  done;
  Cluster.run c

let drop_updates c ~src ~dst =
  Lbc_net.Fabric.set_drop_filter (Cluster.fabric c) ~src ~dst
    (Some (fun b -> match Msg.decode b with Msg.Update _ -> true | _ -> false))

let crash_then_rejoin_bg c ~node ?(after = 0.0) ?(more_work = fun () -> ())
    () =
  Lbc_sim.Proc.spawn (Cluster.engine c) ~name:"explore-controller" (fun () ->
      if after > 0.0 then Lbc_sim.Proc.sleep after;
      Cluster.crash c ~node;
      let rec rejoin_when_lease_expires () =
        match Cluster.rejoin c ~node with
        | () -> ()
        | exception Invalid_argument _ ->
            Lbc_sim.Proc.sleep 50.0;
            rejoin_when_lease_expires ()
      in
      rejoin_when_lease_expires ();
      more_work ())

(* --------------------------------------------------------------- *)
(* The oracle stack *)

let log_of c n = Lbc_rvm.Rvm.log (Node.rvm (Cluster.node c n))

(* A region's database-device image, zero-padded to the declared size
   (the device may be shorter than the region if the tail was never
   written). *)
let dev_image c r ~size =
  let dev = Cluster.region_dev c r in
  let len = min size (Lbc_storage.Dev.size dev) in
  let b = Bytes.make size '\000' in
  if len > 0 then Bytes.blit (Lbc_storage.Dev.read dev ~off:0 ~len) 0 b 0 len;
  b

(* Judge a quiescent cluster.  The serializability spec starts from the
   database-device images as they stand *before* recovery: for a fresh
   cluster that is all zeroes, for OO7 the built database, and for a
   checkpointed cluster the replayed prefix whose records were already
   trimmed from the logs — in every case exactly the state the remaining
   log records apply on top of. *)
let oracle c ~nodes ~region_ids =
  let logs = List.init nodes (fun n -> log_of c n) in
  let streams = List.map Lbc_analysis.Invariants.stream_of_log logs in
  let inv = Lbc_analysis.Invariants.check_logs ~regions:region_ids logs in
  let sizes = List.map (fun r -> (r, Cluster.region_size c r)) region_ids in
  let initial_images =
    List.map (fun (r, size) -> (r, dev_image c r ~size)) sizes
  in
  let initial r = List.assoc_opt r initial_images in
  let recovered =
    match Cluster.recover_database c with
    | _ -> true
    | exception Node.Coherency_error _ -> false  (* inv reports the merge *)
  in
  let finals =
    List.init nodes (fun n ->
        ( Printf.sprintf "node %d" n,
          fun r ->
            Node.read (Cluster.node c n) ~region:r ~offset:0
              ~len:(List.assoc r sizes) ))
    @
    if recovered then
      [ ("db", fun r -> dev_image c r ~size:(List.assoc r sizes)) ]
    else []
  in
  let ser = Lbc_analysis.Serialize.check ~initial ~regions:sizes ~finals streams in
  (inv @ ser, Lbc_analysis.Serialize.merged_count streams)

(* Run [body], mapping a strand or crash of the simulation itself into a
   schedule-oracle violation: a schedule under which the cluster hangs or
   throws is as much a counterexample as one that corrupts data. *)
let cluster_scenario ~name ~descr build =
  let run policy =
    let c, body = build policy in
    let violations, committed =
      match body () with
      | vc -> vc
      | exception E.Stranded descs ->
          ( [
              V.Schedule_oracle
                {
                  scenario = name;
                  detail = "stranded: " ^ String.concat "; " descs;
                };
            ],
            0 )
      | exception e ->
          (* Deliberately broad: any escape under an explored schedule is
             a finding to shrink, not a crash of the explorer. *)
          ( [
              V.Schedule_oracle
                { scenario = name; detail = "raised " ^ Printexc.to_string e };
            ],
            0 )
    in
    (* Any oracle violation preserves the run's last moments: strand and
       crash paths already auto-dumped inside [Cluster.run]; dump here
       for violations the oracles found on a quiescent cluster.  The
       explorer names the file next to its repro lines
       ([Cluster.last_flight_dump]). *)
    (match (violations, Cluster.last_flight c) with
    | _ :: _, None -> (
        match Cluster.dump_flight c with
        | (_ : string) -> ()
        | exception _ -> ())
    | _ -> ());
    {
      violations;
      decisions = Cluster.schedule_decisions c;
      choice_points = Cluster.schedule_choice_points c;
      committed;
    }
  in
  { name; descr; run }

(* --------------------------------------------------------------- *)
(* Planted bug: the self-test target *)

(* At each of eight distinct instants two same-time events race on a
   counter: an increment scheduled first, a doubling scheduled second.
   FIFO order yields (0 + 1) * 2 = 2; the swapped order yields
   0 * 2 + 1 = 1.  Any schedule that flips at least one pair violates the
   invariant, and flipping exactly one pair is the minimal
   counterexample the shrinker must find. *)
let planted =
  let name = "planted" in
  let pairs = 8 in
  {
    name;
    descr = "toy ordering bug that only non-FIFO tie orders expose";
    run =
      (fun policy ->
        let e = E.create ~policy () in
        let cells = Array.make pairs 0 in
        for i = 0 to pairs - 1 do
          let at = 10.0 *. float_of_int (i + 1) in
          E.schedule_at e ~at (fun () -> cells.(i) <- cells.(i) + 1);
          E.schedule_at e ~at (fun () -> cells.(i) <- cells.(i) * 2)
        done;
        E.run e;
        let violations = ref [] in
        for i = pairs - 1 downto 0 do
          if cells.(i) <> 2 then
            violations :=
              V.Schedule_oracle
                {
                  scenario = name;
                  detail =
                    Printf.sprintf
                      "cell %d finished at %d, expected 2 (increment must \
                       precede doubling)"
                      i cells.(i);
                }
              :: !violations
        done;
        {
          violations = !violations;
          decisions = E.decisions e;
          choice_points = E.choice_points e;
          committed = 0;
        });
  }

(* --------------------------------------------------------------- *)
(* Chaos scenarios (twins of the chaos fault tests) *)

let drop_heal =
  cluster_scenario ~name:"drop-heal"
    ~descr:"lossy update channel healed by the repair watchdog (3 nodes)"
    (fun sched ->
      let config =
        {
          Config.default with
          Config.repair = true;
        }
      in
      let nodes = 3 in
      let c = W.mk_cluster config ~sched ~nodes in
      ( c,
        fun () ->
          drop_updates c ~src:0 ~dst:1;
          let rng = Lbc_util.Rng.create 808 in
          for n = 0 to nodes - 1 do
            W.worker c rng ~node:n ~iterations:20
          done;
          Cluster.run c;
          final_pull c ~nodes ~locks:W.all_locks;
          oracle c ~nodes ~region_ids:[ 0; 1 ] ))

let crash_rejoin =
  cluster_scenario ~name:"crash-rejoin"
    ~descr:
      "node crash, lease reclaim and rejoin over two lossy channels (5 nodes)"
    (fun sched ->
      let config =
        {
          Config.default with
          Config.repair = true;
          Config.lease_timeout = 500.0;
        }
      in
      let nodes = 5 in
      let c = W.mk_cluster config ~sched ~nodes in
      ( c,
        fun () ->
          drop_updates c ~src:0 ~dst:1;
          drop_updates c ~src:2 ~dst:3;
          let rng = Lbc_util.Rng.create 909 in
          for n = 0 to nodes - 1 do
            W.worker c rng ~node:n ~iterations:20
          done;
          crash_then_rejoin_bg c ~node:4 ~after:150.0
            ~more_work:(fun () -> W.worker c rng ~node:4 ~iterations:5)
            ();
          Cluster.run c;
          final_pull c ~nodes ~locks:W.all_locks;
          oracle c ~nodes ~region_ids:[ 0; 1 ] ))

let checkpoint_under_faults =
  cluster_scenario ~name:"checkpoint-under-faults"
    ~descr:
      "checkpoints while a channel drops updates and a node is down"
    (fun sched ->
      let config =
        {
          Config.default with
          Config.repair = true;
          Config.lease_timeout = 400.0;
        }
      in
      let nodes = 5 in
      let c = W.mk_cluster config ~sched ~nodes in
      ( c,
        fun () ->
          drop_updates c ~src:0 ~dst:1;
          let rng = Lbc_util.Rng.create 1010 in
          for n = 0 to nodes - 1 do
            W.worker c rng ~node:n ~iterations:15
          done;
          Cluster.run ~until:100.0 c;
          Cluster.crash c ~node:4;
          ignore (Cluster.checkpoint c : int);
          Cluster.run ~until:900.0 c;
          ignore (Cluster.checkpoint c : int);
          Cluster.rejoin c ~node:4;
          Cluster.run c;
          final_pull c ~nodes ~locks:W.all_locks;
          oracle c ~nodes ~region_ids:[ 0; 1 ] ))

(* Home-segment worker: each node writes only its own lock's slots, so
   every slot has a single writer and the rejoin's replay chains stay
   disjoint, one per node. *)
let worker_home c rng n iterations =
  let rng = Lbc_util.Rng.split rng in
  Cluster.spawn c ~node:n (fun node ->
      for _ = 1 to iterations do
        let txn = Node.Txn.begin_ node in
        Node.Txn.acquire txn n;
        Node.Txn.set_u64 txn ~region:(W.lock_region n)
          ~offset:(W.lock_offset rng n) (Lbc_util.Rng.int64 rng);
        Node.Txn.commit txn;
        Lbc_sim.Proc.sleep (Lbc_util.Rng.float rng 20.0)
      done)

(* Twin of the chaos rejoin-under-load test: a checkpoint trims the
   logs, the node crashes, rejoins and serves fresh load while chains
   replay on first touch and the background drain walks the rest — all
   interleaved with live peer traffic under the explored schedule. *)
let rejoin_under_load =
  cluster_scenario ~name:"rejoin-under-load"
    ~descr:
      "checkpoint, crash, then on-demand rejoin serving fresh load while \
       peers keep writing (3 nodes)"
    (fun sched ->
      let config =
        { Config.fault_tolerant with Config.lease_timeout = 400.0 }
      in
      let nodes = 3 in
      let c = W.mk_cluster config ~sched ~nodes in
      ( c,
        fun () ->
          let rng = Lbc_util.Rng.create 1515 in
          for n = 0 to nodes - 1 do
            worker_home c rng n 10
          done;
          Cluster.run c;
          ignore (Cluster.checkpoint c : int);
          Cluster.run c;
          (* A post-checkpoint tail for the rejoin to index. *)
          for n = 0 to nodes - 1 do
            worker_home c rng n 10
          done;
          Cluster.run c;
          (* Crash/rejoin while the peers keep committing. *)
          crash_then_rejoin_bg c ~node:0
            ~more_work:(fun () -> worker_home c rng 0 5)
            ();
          for n = 1 to nodes - 1 do
            worker_home c rng n 5
          done;
          Cluster.run c;
          final_pull c ~nodes ~locks:W.all_locks;
          oracle c ~nodes ~region_ids:[ 0; 1 ] ))

(* Two workers per node on a charged disk: a log write sleeps, so the
   other worker on the same node commits while it is in flight, and the
   two commits' appends overlap in one log.  Every other scenario either
   leaves the disk uncharged or runs one writer per node. *)
let commit_storm =
  cluster_scenario ~name:"commit-storm"
    ~descr:"two committers per node whose log writes overlap (3 nodes)"
    (fun sched ->
      let config = { Config.default with Config.charge_costs = true } in
      let nodes = 3 in
      let c = W.mk_cluster config ~sched ~nodes in
      ( c,
        fun () ->
          let rng = Lbc_util.Rng.create 1717 in
          for n = 0 to nodes - 1 do
            W.worker c rng ~node:n ~iterations:6;
            W.worker c rng ~node:n ~iterations:6
          done;
          Cluster.run c;
          final_pull c ~nodes ~locks:W.all_locks;
          oracle c ~nodes ~region_ids:[ 0; 1 ] ))

(* --------------------------------------------------------------- *)
(* OO7: the bench configurations as explorable scenarios *)

let oo7_scenario ~name ~descr config =
  cluster_scenario ~name ~descr (fun sched ->
      let schema = Lbc_oo7.Schema.tiny in
      let nodes = 3 in
      let c = Lbc_oo7.Runner.setup ~config ~sched ~nodes schema in
      let traverse n kind delay =
        Cluster.spawn c ~node:n (fun node ->
            if delay > 0.0 then Lbc_sim.Proc.sleep delay;
            let txn = Node.Txn.begin_ node in
            Node.Txn.acquire txn Lbc_oo7.Runner.lock;
            let db =
              Lbc_oo7.Database.attach_txn schema txn
                ~region:Lbc_oo7.Runner.region
            in
            ignore (Lbc_oo7.Traversal.run db kind);
            Node.Txn.commit txn)
      in
      ( c,
        fun () ->
          (* Two writers contend for the single segment lock; a third
             node only receives updates. *)
          traverse 0 (Lbc_oo7.Traversal.T2 Lbc_oo7.Traversal.A) 0.0;
          traverse 1 (Lbc_oo7.Traversal.T12 Lbc_oo7.Traversal.B) 5.0;
          Cluster.run c;
          final_pull c ~nodes ~locks:1;
          oracle c ~nodes ~region_ids:[ Lbc_oo7.Runner.region ] ))

let oo7_eager =
  oo7_scenario ~name:"oo7-eager"
    ~descr:"OO7 traversals, eager propagation (bench default)" Config.default

let oo7_multicast =
  oo7_scenario ~name:"oo7-multicast"
    ~descr:"OO7 traversals with multicast propagation"
    { Config.default with Config.multicast = true }

let oo7_lazy =
  oo7_scenario ~name:"oo7-lazy"
    ~descr:"OO7 traversals, lazy propagation with final pulls"
    { Config.default with Config.propagation = Config.Lazy }

(* Every [set_range] charges its modelled cost as a sleep, so writer 0
   runs a chain of sleeps that advance the clock in place, and writer
   1's lock request (5 µs in) lands in the middle of it. *)
let oo7_costs =
  oo7_scenario ~name:"oo7-costs"
    ~descr:"OO7 traversals charging the paper's per-update costs"
    { Config.default with Config.charge_costs = true }

(* --------------------------------------------------------------- *)

let all =
  [
    planted;
    drop_heal;
    crash_rejoin;
    checkpoint_under_faults;
    rejoin_under_load;
    oo7_eager;
    oo7_multicast;
    oo7_lazy;
    oo7_costs;
    commit_storm;
  ]

let find name = List.find_opt (fun s -> s.name = name) all
