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
  fabric : Lbc_util.Slice.t list Lbc_net.Fabric.t;
  store : Lbc_storage.Store.t;
}

type t = {
  platform : (module Platform.S);
  sim : sim_handles option;  (* [Some] iff the backend is the sim *)
  config : Config.t;
  nodes : Node.t array;
  regions : (int, region_info) Hashtbl.t;
  checkpointed : (int, int) Hashtbl.t;
      (* per lock: highest write seq a checkpoint has replayed into the
         database, which holds exactly that prefix *)
  mutable checkpointing : bool;  (* a checkpoint is writing the database *)
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

let create ?(config = Config.default) ?sched ?(backend = Platform.Sim) ~nodes
    () =
  if nodes <= 0 then invalid_arg "Cluster.create: nodes must be positive";
  let platform, sim =
    match backend with
    | Platform.Custom make ->
        if sched <> None then
          invalid_arg
            "Cluster.create: schedule policies are sim-only (deterministic \
             same-time ties do not exist on a preemptive backend)";
        (make ~nodes ~config, None)
    | Platform.Sim ->
        let net_params =
          if config.Config.charge_costs then Lbc_net.Params.an1
          else Lbc_net.Params.instant
        in
        let disk =
          if config.Config.charge_costs && config.Config.disk_logging then
            Lbc_storage.Latency.osdi94_disk
          else Lbc_storage.Latency.none
        in
        let engine = Lbc_sim.Engine.create ?policy:sched () in
        let fabric =
          Lbc_net.Fabric.create ~params:net_params ~engine ~nodes
            ~size:Msg.frame_size ()
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
    checkpointing = false;
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

(* A process that dies with its node: a crash bumps the epoch, and the
   scheduler kills the process at its next resumption. *)
let spawn_on t n ~name ~daemon f =
  let epoch0 = t.epoch.(n) in
  let module P = (val t.platform : Platform.S) in
  P.spawn ~node:n ~name ~daemon
    ~alive:(fun () -> (not t.crashed.(n)) && t.epoch.(n) = epoch0)
    f

let spawn t ~node:n f =
  let target = node t n in
  spawn_on t n ~name:(Printf.sprintf "app-%d" n) ~daemon:false (fun () ->
      f target)

let run ?until t =
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
      if until = None then (
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

(* Per lock, the highest write seq already replayed into the database
   by a checkpoint (0 if none), and the whole table as a list. *)
let checkpointed t lock =
  Option.value ~default:0 (Hashtbl.find_opt t.checkpointed lock)

let checkpointed_baseline t =
  Hashtbl.fold (fun lock seq acc -> (lock, seq) :: acc) t.checkpointed []

(* The records a checkpoint has not yet replayed into the database: the
   receiver's duplicate rule over the checkpoint table.  A trim clamped
   to a retention mark leaves replayed records live in the logs, and
   redo must not run them again. *)
let uncheckpointed t records =
  let replayed (l : Lbc_wal.Record.lock_info) =
    l.seqno <= checkpointed t l.lock_id
  in
  if Hashtbl.length t.checkpointed = 0 then records
  else
    List.filter
      (fun (r : Lbc_wal.Record.txn) -> not (List.exists replayed r.locks))
      records

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

let rejoin t ~node:n =
  ignore (node t n : Node.t);
  let h = sim_handles t "Cluster.rejoin" in
  if not t.crashed.(n) then invalid_arg "Cluster.rejoin: node is not down";
  if not t.reclaimed.(n) then
    invalid_arg "Cluster.rejoin: node's lease has not expired yet";
  (* The database image is the checkpoint state only between
     checkpoints: mid-replay it is ahead of [checkpointed]. *)
  if t.checkpointing then
    invalid_arg "Cluster.rejoin: a checkpoint is writing the database";
  Lbc_net.Fabric.set_down h.fabric n false;
  Obs.instant t.obs ~name:"rejoin" ~pid:n ~tid:Obs.lane_txn ~arg:t.epoch.(n);
  Lbc_locks.Table.rejoin_reset (Node.locks t.nodes.(n));
  Node.rejoin t.nodes.(n) ~applied:(checkpointed_baseline t);
  t.crashed.(n) <- false

let is_crashed t n =
  ignore (node t n : Node.t);
  t.crashed.(n)

let logs t =
  Array.to_list (Array.map (fun n -> Lbc_rvm.Rvm.log (Node.rvm n)) t.nodes)

let merged_records t = Merge.merge_logs (logs t)

(* The merged stream less what a checkpoint already replayed, or the
   error every merge-then-replay entry point raises when the logs admit
   no serial order. *)
let merged_or_raise t =
  match merged_records t with
  | Ok records -> uncheckpointed t records
  | Error (Merge.Unorderable why) ->
      raise (Node.Coherency_error ("log merge failed: " ^ why))

(* Records replay into the regions' database devices. *)
let db_for_region t id =
  Option.map (fun info -> info.dev) (Hashtbl.find_opt t.regions id)

let recover_database t =
  Lbc_rvm.Recovery.replay_records (merged_or_raise t)
    ~db_for_region:(db_for_region t)

type replay_mode = Serial | Partitioned | OnDemand

let replay_streams mode records =
  match mode with
  | Serial -> if records = [] then [] else [ records ]
  | Partitioned -> Merge.partition records
  | OnDemand -> Rejoin.largest_first List.length (Merge.partition records)

let replay_sim engine ~db_for_region ~on_stream streams =
  let outcomes = ref [] in
  let t0 = Lbc_sim.Engine.now engine in
  List.iteri
    (fun i stream ->
      Lbc_sim.Proc.spawn engine
        ~name:(Printf.sprintf "recover-p%d" i)
        (fun () ->
          let o = Lbc_rvm.Recovery.replay_records stream ~db_for_region in
          on_stream (Lbc_sim.Engine.now engine -. t0);
          outcomes := o :: !outcomes))
    streams;
  Lbc_sim.Engine.run engine;
  (Lbc_rvm.Recovery.sum !outcomes, Lbc_sim.Engine.now engine -. t0)

(* Server-side recovery on the simulation clock: replay runs in simulated
   processes so device time is charged, making the modes comparable.
   Partitioned mode replays each lock/region-disjoint stream
   concurrently; the elapsed virtual time is the slowest stream instead
   of the sum.  OnDemand mode replays the same streams largest first (the
   order a rejoining node's background drain takes, [Rejoin.drain]) and
   records when the first stream — the first data anyone could be
   unblocked on — is available, as [time_to_first_partition_us]. *)
let timed_recovery t ~mode =
  let h = sim_handles t "Cluster.timed_recovery" in
  let streams = replay_streams mode (merged_or_raise t) in
  if Obs.enabled t.obs then
    Obs.count t.obs "recovery_partitions" (List.length streams);
  let first = ref true in
  replay_sim h.engine ~db_for_region:(db_for_region t) streams
    ~on_stream:(fun elapsed ->
      Obs.observe t.obs "recovery_us" elapsed;
      if mode = OnDemand && !first then begin
        first := false;
        Obs.observe t.obs "time_to_first_partition_us" elapsed
      end)

(* Replay merged records into the database and advance the per-lock
   baseline past their writes, so later merges know those writes are
   durable there. *)
let checkpoint_records t records =
  ignore
    (Lbc_rvm.Recovery.replay_records records ~db_for_region:(db_for_region t)
      : Lbc_rvm.Recovery.outcome);
  List.iter
    (fun (txn : Lbc_wal.Record.txn) ->
      if Lbc_wal.Record.is_write txn then
        List.iter
          (fun (l : Lbc_wal.Record.lock_info) ->
            if l.seqno > checkpointed t l.lock_id then
              Hashtbl.replace t.checkpointed l.lock_id l.seqno)
          txn.locks)
    records

(* The one checkpoint: the paper's merge utility (Section 3.5), run on a
   live cluster.  The database receives the maximal orderable prefix of
   the merged logs and [checkpointed] advances past it, so the image
   holds exactly a replayed prefix; then each log trims past what was
   merged, as far as its retention mark allows. *)
let checkpoint t =
  if t.checkpointing then
    invalid_arg "Cluster.checkpoint: a checkpoint is already running";
  t.checkpointing <- true;
  Fun.protect ~finally:(fun () -> t.checkpointing <- false) @@ fun () ->
  let module P = (val t.platform : Platform.S) in
  let t0 = P.now_us () in
  (* The peers' applied tables release retention and so lift the marks
     the trims clamp to.  A report still in flight costs trim, never
     safety: retention only errs toward keeping. *)
  Array.iteri
    (fun p n ->
      if not t.crashed.(p) then
        spawn_on t p ~name:(Printf.sprintf "gossip-%d" p) ~daemon:true
          (fun () -> Node.gossip_low_water n))
    t.nodes;
  let logs = logs t in
  (* Write-ahead: the database receives only durable records. *)
  List.iter Lbc_wal.Log.force logs;
  let prefix = Merge.merge_logs_prefix ~checkpointed:(checkpointed t) logs in
  let records = uncheckpointed t prefix.Merge.ordered in
  (* Database first, then trim. *)
  checkpoint_records t records;
  (* Clamped to the retention mark: a replayed record may still be
     needed by a live peer whose copy was lost in flight, and the
     database heals no running cache. *)
  List.iter2
    (fun log head ->
      if head > Lbc_wal.Log.head log then
        ignore (Lbc_wal.Log.set_head log head : int))
    logs prefix.Merge.new_heads;
  let n = List.length records in
  Obs.observe t.obs "ckpt_us" (P.now_us () -. t0);
  Obs.instant t.obs ~name:"ckpt" ~pid:0 ~tid:Obs.lane_txn ~arg:n;
  n
