module Obs = Lbc_obs.Obs

type region_info = {
  size : int;
  dev : Lbc_storage.Dev.t;
  mutable mapped_by : int list;  (* nodes holding a cached copy *)
}

(* Direct handles into the simulation backend, for the operations that
   only make sense there: deterministic scheduling, fault injection,
   crash/rejoin, virtual-time recovery measurement. *)
type sim_handles = {
  engine : Lbc_sim.Engine.t;
  fabric : Msg.t Lbc_net.Fabric.t;
  store : Lbc_storage.Store.t;
}

type t = {
  platform : (module Platform.S);
  sim : sim_handles option;  (* [Some] iff the backend is the sim *)
  config : Config.t;
  nodes : Node.t array;
  regions : (int, region_info) Hashtbl.t;
  checkpointed : (int, int) Hashtbl.t;
      (* per lock: highest write seq already replayed into the database by
         an online checkpoint *)
  crashed : bool array;
  reclaimed : bool array;  (* lease expired, lock tokens reclaimed *)
  epoch : int array;  (* bumped at every crash; stale app processes die *)
  obs : Obs.t;
  mutable last_flight : string option;  (* most recent flight dump path *)
}

let backend_name t =
  let module P = (val t.platform : Platform.S) in
  P.name

let deterministic t =
  let module P = (val t.platform : Platform.S) in
  P.deterministic

let sim_handles t what =
  match t.sim with
  | Some h -> h
  | None ->
      raise
        (Platform.Unsupported
           (Printf.sprintf "%s requires the sim backend (running on %s)" what
              (backend_name t)))

let engine t = (sim_handles t "Cluster.engine").engine
let fabric t = (sim_handles t "Cluster.fabric").fabric
let store t = (sim_handles t "Cluster.store").store
let config t = t.config
let size t = Array.length t.nodes

let node t i =
  if i < 0 || i >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Cluster.node: no node %d" i);
  t.nodes.(i)

let create ?(config = Config.default) ?sched ?net_params ?disk
    ?(backend = Platform.Sim) ~nodes () =
  if nodes <= 0 then invalid_arg "Cluster.create: nodes must be positive";
  let platform, sim =
    match backend with
    | Platform.Custom make ->
        if sched <> None then
          invalid_arg
            "Cluster.create: schedule policies are sim-only (deterministic \
             same-time ties do not exist on a preemptive backend)";
        if net_params <> None || disk <> None then
          invalid_arg
            "Cluster.create: net/disk cost models are sim-only (the real \
             backend pays real costs)";
        (make ~nodes ~config, None)
    | Platform.Sim ->
        let net_params =
          match net_params with
          | Some p -> p
          | None ->
              if config.Config.charge_costs then Lbc_net.Params.an1
              else Lbc_net.Params.instant
        in
        let disk =
          match disk with
          | Some d -> d
          | None ->
              if config.Config.charge_costs && config.Config.disk_logging then
                Lbc_storage.Latency.osdi94_disk
              else Lbc_storage.Latency.none
        in
        let engine = Lbc_sim.Engine.create ?policy:sched () in
        let fabric =
          Lbc_net.Fabric.create ~params:net_params ~engine ~nodes
            ~size:Msg.size ()
        in
        let store = Lbc_storage.Store.create ~latency:disk () in
        (Platform.sim ~engine ~fabric ~store, Some { engine; fabric; store })
  in
  let module P = (val platform : Platform.S) in
  (* The flight recorder is on by default, so the moments before a
     failure are never lost. *)
  let obs =
    if config.Config.flight then
      Obs.create ~now:P.now_us ~nodes
        ~ring_bytes:config.Config.flight_ring_bytes ()
    else Obs.disabled
  in
  P.set_obs obs;
  let regions = Hashtbl.create 4 in
  let peers_with_region self region =
    match Hashtbl.find_opt regions region with
    | Some info -> List.filter (fun n -> n <> self) info.mapped_by
    | None -> []
  in
  let cluster_nodes =
    Array.init nodes (fun i ->
        Node.create
          {
            Node.node_id = i;
            nodes;
            config;
            engine = P.node_engine i;
            send = (fun ~dst m -> P.send ~src:i ~dst m);
            multicast_send = (fun ~dsts m -> P.broadcast ~src:i ~dsts m);
            send_update =
              (fun ~dst iov -> P.send_v ~src:i ~dst ~iov (Msg.Update iov));
            multicast_update =
              (fun ~dsts iov ->
                P.broadcast_v ~src:i ~dsts ~iov (Msg.Update iov));
            peers_with_region = peers_with_region i;
            log_dev = P.open_dev (Printf.sprintf "log.%d" i);
            obs;
          })
  in
  P.start_receivers ~handler:(fun ~dst ~src m ->
      Node.handle cluster_nodes.(dst) ~src m);
  {
    platform;
    sim;
    config;
    nodes = cluster_nodes;
    regions;
    checkpointed = Hashtbl.create 16;
    crashed = Array.make nodes false;
    reclaimed = Array.make nodes false;
    epoch = Array.make nodes 0;
    obs;
    last_flight = None;
  }

let obs t = t.obs

(* --------------------------------------------------------------- *)
(* Flight recorder dumps *)

(* Most recent auto-dump across all clusters: failure reporters (e.g.
   the chaos repro printer) have no cluster handle when the exception
   reaches them, so the path is published here as well. *)
let last_flight_dump_ref : string option ref = ref None
let last_flight_dump () = !last_flight_dump_ref
let flight_seq = ref 0

let dump_flight ?path t =
  if not (Obs.enabled t.obs) then
    invalid_arg "Cluster.dump_flight: flight recorder is off (Config.flight)";
  let module P = (val t.platform : Platform.S) in
  let path =
    match path with
    | Some p -> p
    | None ->
        (* No Unix in this library: a platform timestamp plus a
           process-wide sequence number keeps names unique. *)
        incr flight_seq;
        Printf.sprintf "flight-%.0f-%d.bin" (P.now_us ()) !flight_seq
  in
  let clock = if P.deterministic then "virtual-us" else "wall-us" in
  Obs.dump_flight t.obs ~clock path;
  t.last_flight <- Some path;
  last_flight_dump_ref := Some path;
  path

let last_flight t = t.last_flight

(* Best-effort dump on a failure path: never masks the original
   exception. *)
let auto_dump_flight t =
  if Obs.enabled t.obs then
    match dump_flight t with
    | (_ : string) -> ()
    | exception _ -> ()

let region_info t id =
  match Hashtbl.find_opt t.regions id with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Cluster: unknown region %d" id)

let add_region t ~id ~size =
  if Hashtbl.mem t.regions id then
    invalid_arg (Printf.sprintf "Cluster.add_region: region %d exists" id);
  let module P = (val t.platform : Platform.S) in
  let dev = P.open_dev (Printf.sprintf "region.%d" id) in
  Hashtbl.add t.regions id { size; dev; mapped_by = [] }

let region_dev t id = (region_info t id).dev
let region_size t id = (region_info t id).size

let map_region t ~node:n ~region =
  let info = region_info t region in
  let r = Node.map_region (node t n) ~id:region ~db:info.dev ~size:info.size in
  if not (List.mem n info.mapped_by) then info.mapped_by <- n :: info.mapped_by;
  r

let map_region_all t ~region =
  for n = 0 to size t - 1 do
    ignore (map_region t ~node:n ~region)
  done

let spawn t ~node:n f =
  let target = node t n in
  let epoch0 = t.epoch.(n) in
  let module P = (val t.platform : Platform.S) in
  (* The process dies with its node: a crash bumps the epoch, and the
     scheduler kills the process at its next resumption. *)
  P.spawn ~node:n
    ~name:(Printf.sprintf "app-%d" n)
    ~daemon:false
    ~alive:(fun () -> (not t.crashed.(n)) && t.epoch.(n) = epoch0)
    (fun () -> f target)

let run ?until ?(check_stranded = true) t =
  match t.sim with
  | Some h ->
      (match Lbc_sim.Engine.run ?until h.engine with
      | () -> ()
      | exception e ->
          (* Crash-path assertion failures and coherency errors escape
             here: preserve the last moments before re-raising. *)
          auto_dump_flight t;
          raise e);
      (* Only a drained queue proves the blocked processes can never
         resume; a [~until] pause is not a verdict. *)
      if until = None && check_stranded then (
        match Lbc_sim.Engine.blocked h.engine with
        | [] -> ()
        | descs ->
            auto_dump_flight t;
            raise (Lbc_sim.Engine.Stranded descs))
  | None ->
      if until <> None then
        raise
          (Platform.Unsupported
             "Cluster.run ~until: virtual-time cutoffs are sim-only");
      let module P = (val t.platform : Platform.S) in
      (match P.run () with
      | () -> ()
      | exception e ->
          auto_dump_flight t;
          raise e)

let now t =
  let module P = (val t.platform : Platform.S) in
  P.now_us ()

let blocked t =
  match t.sim with
  | Some h -> Lbc_sim.Engine.blocked h.engine
  | None -> []

let shutdown t =
  let module P = (val t.platform : Platform.S) in
  P.shutdown ()

let schedule_policy t =
  Lbc_sim.Engine.policy (sim_handles t "Cluster.schedule_policy").engine

let schedule_decisions t =
  Lbc_sim.Engine.decisions (sim_handles t "Cluster.schedule_decisions").engine

let schedule_choice_points t =
  Lbc_sim.Engine.choice_points
    (sim_handles t "Cluster.schedule_choice_points").engine

let total_messages t =
  let module P = (val t.platform : Platform.S) in
  P.total_messages ()

let total_bytes t =
  let module P = (val t.platform : Platform.S) in
  P.total_bytes ()

let total_dropped t =
  let module P = (val t.platform : Platform.S) in
  P.total_dropped ()

(* --------------------------------------------------------------- *)
(* Node crash and rejoin *)

let crash t ~node:n =
  ignore (node t n : Node.t);
  let h = sim_handles t "Cluster.crash" in
  if t.crashed.(n) then invalid_arg "Cluster.crash: node already down";
  t.crashed.(n) <- true;
  t.reclaimed.(n) <- false;
  t.epoch.(n) <- t.epoch.(n) + 1;
  Obs.instant t.obs ~name:"crash" ~pid:n ~tid:Obs.lane_txn ~arg:t.epoch.(n);
  Lbc_net.Fabric.set_down h.fabric n true;
  (* Lease expiry: once the dead node's lease runs out, a recovery agent
     rebuilds the lock service without it. *)
  Lbc_sim.Engine.schedule h.engine ~delay:t.config.Config.lease_timeout
    (fun () ->
      if t.crashed.(n) then
        Lbc_sim.Proc.spawn h.engine
          ~name:(Printf.sprintf "lease-reclaim-%d" n)
          ~daemon:true
          (fun () ->
            Lbc_locks.Table.reclaim (Array.map Node.locks t.nodes) ~failed:n;
            t.reclaimed.(n) <- true;
            Obs.instant t.obs ~name:"lease.reclaim" ~pid:n ~tid:Obs.lane_lock
              ~arg:0))

let rejoin ?(mode = Node.Replay_all) t ~node:n =
  ignore (node t n : Node.t);
  let h = sim_handles t "Cluster.rejoin" in
  if not t.crashed.(n) then invalid_arg "Cluster.rejoin: node is not down";
  if not t.reclaimed.(n) then
    invalid_arg "Cluster.rejoin: node's lease has not expired yet";
  Lbc_net.Fabric.set_down h.fabric n false;
  Obs.instant t.obs ~name:"rejoin" ~pid:n ~tid:Obs.lane_txn ~arg:t.epoch.(n);
  Lbc_locks.Table.rejoin_reset (Node.locks t.nodes.(n));
  let applied =
    Hashtbl.fold (fun lock seq acc -> (lock, seq) :: acc) t.checkpointed []
  in
  Node.rejoin ~mode t.nodes.(n) ~applied;
  t.crashed.(n) <- false

let is_crashed t n =
  ignore (node t n : Node.t);
  t.crashed.(n)

let merged_records t =
  Merge.merge_logs
    (Array.to_list (Array.map (fun n -> Lbc_rvm.Rvm.log (Node.rvm n)) t.nodes))

let recover_database t =
  match merged_records t with
  | Error (Merge.Unorderable why) ->
      raise (Node.Coherency_error ("log merge failed: " ^ why))
  | Ok records ->
      Lbc_rvm.Recovery.replay_records records ~db_for_region:(fun id ->
          Option.map (fun info -> info.dev) (Hashtbl.find_opt t.regions id))

type replay_mode = Serial | Partitioned | OnDemand

(* Server-side recovery on the simulation clock: replay runs in simulated
   processes so device time is charged, making serial and partitioned
   replay comparable.  Partitioned mode replays each lock/region-disjoint
   stream concurrently; the elapsed virtual time is the slowest stream
   instead of the sum.  OnDemand mode uses the same disjoint streams but
   replays them in priority order (largest first, a stand-in for the
   hottest-first drain a serving node performs) and records when the
   first stream — the first data anyone could be unblocked on — is
   available, as [time_to_first_partition_us]. *)
let timed_recovery t ~mode =
  let h = sim_handles t "Cluster.timed_recovery" in
  let records =
    match merged_records t with
    | Error (Merge.Unorderable why) ->
        raise (Node.Coherency_error ("log merge failed: " ^ why))
    | Ok records -> records
  in
  let streams =
    match mode with
    | Serial -> if records = [] then [] else [ records ]
    | Partitioned -> Merge.partition records
    | OnDemand ->
        List.stable_sort
          (fun a b -> Int.compare (List.length b) (List.length a))
          (Merge.partition records)
  in
  let db_for_region id =
    Option.map (fun info -> info.dev) (Hashtbl.find_opt t.regions id)
  in
  let outcomes = ref [] in
  let first_done = ref false in
  let t0 = Lbc_sim.Engine.now h.engine in
  List.iteri
    (fun i stream ->
      Lbc_sim.Proc.spawn h.engine
        ~name:(Printf.sprintf "recover-p%d" i)
        (fun () ->
          let o = Lbc_rvm.Recovery.replay_records stream ~db_for_region in
          let elapsed = Lbc_sim.Engine.now h.engine -. t0 in
          Obs.observe t.obs "recovery_us" elapsed;
          if mode = OnDemand && not !first_done then begin
            first_done := true;
            Obs.observe t.obs "time_to_first_partition_us" elapsed
          end;
          outcomes := o :: !outcomes))
    streams;
  if Obs.enabled t.obs then
    Obs.count t.obs "recovery_partitions" (List.length streams);
  Lbc_sim.Engine.run h.engine;
  let elapsed = Lbc_sim.Engine.now h.engine -. t0 in
  let outcome =
    List.fold_left
      (fun (acc : Lbc_rvm.Recovery.outcome) (o : Lbc_rvm.Recovery.outcome) ->
        {
          Lbc_rvm.Recovery.records_replayed =
            acc.records_replayed + o.records_replayed;
          bytes_replayed = acc.bytes_replayed + o.bytes_replayed;
          torn_tail = acc.torn_tail || o.torn_tail;
        })
      { Lbc_rvm.Recovery.records_replayed = 0; bytes_replayed = 0;
        torn_tail = false }
      !outcomes
  in
  (outcome, elapsed)

(* Incremental fuzzy checkpoint of one node, on the simulation clock.
   Peers first gossip their applied tables so the node can compute its
   repair-retention mark; then the node flushes its dirty regions in
   bounded slices interleaved with running commits, brackets the flush
   with durable begin/end markers, and trims its log to the checkpoint
   start clamped to the retention mark. *)
let fuzzy_checkpoint t ~node:n =
  let h = sim_handles t "Cluster.fuzzy_checkpoint" in
  let target = node t n in
  let epoch0 = t.epoch.(n) in
  for p = 0 to size t - 1 do
    if p <> n && not t.crashed.(p) then begin
      let peer = t.nodes.(p) in
      Lbc_sim.Proc.spawn h.engine
        ~name:(Printf.sprintf "gossip-%d" p)
        ~daemon:true
        (fun () -> Node.gossip_low_water peer)
    end
  done;
  Lbc_sim.Proc.spawn h.engine
    ~name:(Printf.sprintf "ckpt-%d" n)
    ~alive:(fun () -> (not t.crashed.(n)) && t.epoch.(n) = epoch0)
    (fun () ->
      Lbc_sim.Proc.sleep t.config.Config.ckpt_gossip_delay;
      let t0 = Lbc_sim.Engine.now h.engine in
      let outcome =
        Lbc_rvm.Rvm.fuzzy_checkpoint
          ~slice_bytes:t.config.Config.ckpt_slice_bytes
          ~yield:(fun () ->
            Lbc_sim.Proc.sleep t.config.Config.ckpt_slice_interval)
          (Node.rvm target)
      in
      Obs.observe t.obs "ckpt_us" (Lbc_sim.Engine.now h.engine -. t0);
      Obs.instant t.obs ~name:"ckpt" ~pid:n ~tid:Obs.lane_txn
        ~arg:outcome.Lbc_rvm.Rvm.bytes_flushed)

let online_checkpoint t =
  let logs =
    Array.to_list (Array.map (fun n -> Lbc_rvm.Rvm.log (Node.rvm n)) t.nodes)
  in
  let checkpointed lock =
    Option.value ~default:0 (Hashtbl.find_opt t.checkpointed lock)
  in
  let prefix = Merge.merge_logs_prefix ~checkpointed logs in
  (* Database first, then trim: the records must be durable in the
     database before they disappear from the logs. *)
  ignore
    (Lbc_rvm.Recovery.replay_records prefix.Merge.ordered
       ~db_for_region:(fun id ->
         Option.map (fun info -> info.dev) (Hashtbl.find_opt t.regions id)));
  List.iter
    (fun (txn : Lbc_wal.Record.txn) ->
      if Lbc_wal.Record.is_write txn then
        List.iter
          (fun l ->
            if l.Lbc_wal.Record.seqno > checkpointed l.Lbc_wal.Record.lock_id
            then
              Hashtbl.replace t.checkpointed l.Lbc_wal.Record.lock_id
                l.Lbc_wal.Record.seqno)
          txn.Lbc_wal.Record.locks)
    prefix.Merge.ordered;
  (* The trim is clamped per log to its low-water mark: with repair on, a
     merged-and-replayed record may still be needed by a live peer whose
     copy was lost in flight (replaying into the database does not heal a
     running peer's cache — only a fetch or a resync does). *)
  List.iter2
    (fun log head ->
      if head > Lbc_wal.Log.head log then
        ignore (Lbc_wal.Log.set_head log head : int))
    logs prefix.Merge.new_heads;
  List.length prefix.Merge.ordered

let checkpoint t =
  Array.iter
    (fun n ->
      if Node.pending_count n > 0 then
        raise
          (Node.Coherency_error
             (Printf.sprintf "checkpoint: node %d has pending records"
                (Node.id n))))
    t.nodes;
  let records =
    match merged_records t with
    | Error (Merge.Unorderable why) ->
        raise (Node.Coherency_error ("log merge failed: " ^ why))
    | Ok records -> records
  in
  ignore
    (Lbc_rvm.Recovery.replay_records records ~db_for_region:(fun id ->
         Option.map (fun info -> info.dev) (Hashtbl.find_opt t.regions id)));
  (* Advance the per-lock baseline so later incremental merges know these
     writes are already durable in the database. *)
  List.iter
    (fun (txn : Lbc_wal.Record.txn) ->
      if Lbc_wal.Record.is_write txn then
        List.iter
          (fun l ->
            let prev =
              Option.value ~default:0
                (Hashtbl.find_opt t.checkpointed l.Lbc_wal.Record.lock_id)
            in
            if l.Lbc_wal.Record.seqno > prev then
              Hashtbl.replace t.checkpointed l.Lbc_wal.Record.lock_id
                l.Lbc_wal.Record.seqno)
          txn.Lbc_wal.Record.locks)
    records;
  let applied =
    Hashtbl.fold (fun lock seq acc -> (lock, seq) :: acc) t.checkpointed []
  in
  Array.iter
    (fun n ->
      let log = Lbc_rvm.Rvm.log (Node.rvm n) in
      (* Ground truth overrides gossip here: every record is replayed
         into the database and every node is about to resync to it, so
         no peer can need anything re-sent — lift the retention mark
         before trimming. *)
      Node.clear_retention n;
      ignore (Lbc_wal.Log.set_head log (Lbc_wal.Log.tail log) : int);
      Node.gc_retained n;
      (* Bring stragglers (lazy mode) to the checkpointed state: their
         chains are gone from the writers' retention. *)
      Node.resync n ~applied)
    t.nodes
