exception Coherency_error of string

module Obs = Lbc_obs.Obs

let log_src = Logs.Src.create "lbc.node" ~doc:"log-based coherency node events"

module L = (val Logs.src_log log_src)

type stats = {
  mutable updates_sent : int;
  mutable update_bytes_sent : int;
  mutable records_received : int;
  mutable records_held : int;
  mutable interlock_waits : int;
  mutable fetches_sent : int;
  mutable records_fetched : int;
  mutable repair_fetches : int;
}

(* A sequence-number gap under watch: we wait for [need] on the lock, and
   fetch from a peer if the gap outlives the repair timeout. *)
type repair = {
  mutable need : int;
  mutable retries : int;
  mutable delay : float;
  prefer : int;  (* first fetch target: the last known writer *)
}

(* An on-demand rejoin in progress: [Rejoin] owns the replay chains of
   the surviving log tail; the node owns the wait for a chain another
   process is replaying. *)
type rejoining = {
  chains : Rejoin.t;
  warm_cv : Lbc_sim.Condvar.t;  (* waiters for a Replaying chain *)
  started_at : float;
  writes : Lbc_wal.Record.txn list array;
      (* each warm chain's writes, newest first, until the drain sends them *)
}

(* A lock waiter: the ivar its process parks on, filled with the grant,
   or with [None] when the wait times out. *)
type waiter = Lbc_locks.Table.grant option Lbc_sim.Ivar.t

type t = {
  id : int;
  nodes : int;
  config : Config.t;
  engine : Lbc_sim.Engine.t;
  rvm : Lbc_rvm.Rvm.t;
  locks : waiter Lbc_locks.Table.t;
  send : dst:int -> Msg.t -> unit;
  multicast_send : dsts:int list -> Msg.t -> unit;
  peers_with_region : int -> int list;
  mutable receiver : Receiver.t;  (* fresh at every rejoin *)
  applied_cv : Lbc_sim.Condvar.t;
  mutable retention : Retention.t;  (* fresh at every rejoin *)
  fetch_marks : (int, int) Hashtbl.t;  (* lock -> [have] of its last fetch *)
  fetch_sent : (int, float) Hashtbl.t;
      (* lock -> engine time its last fetch went out (fetch_rtt_us);
         kept only while the sink is live *)
  repairs : (int, repair) Hashtbl.t;  (* lock id -> gap under watch *)
  txn_updates : int ref;  (* set_range calls in the running transaction *)
  mutable recovery : rejoining option;  (* live during an on-demand rejoin *)
  mutable ttfc_mark : float option;
      (* rejoin instant, consumed by the first commit after it
         (time_to_first_commit_us) *)
  stats : stats;
  obs : Obs.t;
}

type deps = {
  node_id : int;
  nodes : int;
  config : Config.t;
  engine : Lbc_sim.Engine.t;
  send : dst:int -> Msg.t -> unit;
  multicast_send : dsts:int list -> Msg.t -> unit;
  peers_with_region : int -> int list;
  log_dev : Lbc_storage.Dev.t;
  obs : Obs.t;
      (** trace/metrics sink shared by the cluster; [Obs.disabled] when
          the flight recorder is off *)
}

let model_class = function
  | Lbc_rvm.Rvm.Redundant -> Lbc_costmodel.Model.Redundant
  | Lbc_rvm.Rvm.Ordered -> Lbc_costmodel.Model.Ordered
  | Lbc_rvm.Rvm.Unordered -> Lbc_costmodel.Model.Unordered

let instrumentation config txn_updates =
  if not config.Config.charge_costs then Lbc_rvm.Rvm.no_instrumentation
  else
    {
      Lbc_rvm.Rvm.on_set_range =
        (fun cls ~len:_ ->
          incr txn_updates;
          Lbc_sim.Proc.sleep
            (Lbc_costmodel.Model.per_update_cost (model_class cls)
               ~nth:!txn_updates));
      on_commit_collect =
        (fun ~ranges ~bytes ->
          Lbc_sim.Proc.sleep (Lbc_costmodel.Model.collect_log ~ranges ~bytes));
      on_apply =
        (fun ~ranges ~bytes ->
          Lbc_sim.Proc.sleep (Lbc_costmodel.Model.apply_log ~ranges ~bytes));
    }

let create (deps : deps) =
  let txn_updates = ref 0 in
  let rvm_options =
    {
      Lbc_rvm.Rvm.disk_logging = deps.config.Config.disk_logging;
      log_mode = deps.config.Config.log_mode;
      instrumentation = instrumentation deps.config txn_updates;
    }
  in
  let rvm =
    Lbc_rvm.Rvm.init ~options:rvm_options ~node:deps.node_id
      ~log_dev:deps.log_dev ()
  in
  let locks =
    Lbc_locks.Table.create ~node:deps.node_id ~nodes:deps.nodes
      ~send:(fun ~dst m -> deps.send ~dst (Msg.Lock m))
      ~grant:(fun iv g -> Lbc_sim.Ivar.fill iv (Some g))
      ()
  in
  Lbc_locks.Table.set_obs locks deps.obs;
  Lbc_wal.Log.set_obs (Lbc_rvm.Rvm.log rvm) deps.obs ~node:deps.node_id;
  {
    id = deps.node_id;
    nodes = deps.nodes;
    config = deps.config;
    engine = deps.engine;
    rvm;
    locks;
    send = deps.send;
    multicast_send = deps.multicast_send;
    peers_with_region = deps.peers_with_region;
    receiver = Receiver.create ();
    applied_cv = Lbc_sim.Condvar.create ();
    retention = Retention.create ~self:deps.node_id ~nodes:deps.nodes;
    fetch_marks = Hashtbl.create 16;
    fetch_sent = Hashtbl.create 16;
    repairs = Hashtbl.create 8;
    txn_updates;
    recovery = None;
    ttfc_mark = None;
    stats =
      {
        updates_sent = 0;
        update_bytes_sent = 0;
        records_received = 0;
        records_held = 0;
        interlock_waits = 0;
        fetches_sent = 0;
        records_fetched = 0;
        repair_fetches = 0;
      };
    obs = deps.obs;
  }

let id (t : t) = t.id
let rvm (t : t) = t.rvm
let locks (t : t) = t.locks
let config (t : t) = t.config
let stats (t : t) = t.stats

let applied_seq t lock = Receiver.applied_seq t.receiver lock
let set_applied t lock seq = Receiver.set_applied t.receiver lock seq
let pending_count t = Receiver.pending_count t.receiver

let map_region t ~id ~db ~size = Lbc_rvm.Rvm.map_region t.rvm ~id ~db ~size

(* --------------------------------------------------------------- *)
(* Retention (lazy propagation, repair service, trimming: [Retention]) *)

(* Lazy mode keeps committed records so readers can fetch them; repair
   mode also keeps applied records on every node, so a repair fetch can
   be served by any peer that has the data. *)
let retains (t : t) =
  t.config.Config.propagation = Config.Lazy || t.config.Config.repair

let retained_count t = Retention.count t.retention

(* The log may trim only past own writes every propagation peer has
   applied.  While an on-demand rejoin still has cold chains their own
   writes are not all tracked yet, so the mark stays pinned at the head. *)
let set_water (t : t) =
  let log = Lbc_rvm.Rvm.log t.rvm in
  let water = Retention.water t.retention in
  Lbc_wal.Log.set_retention_water log
    (match t.recovery with
    | Some r when Rejoin.cold r.chains > 0 -> min water (Lbc_wal.Log.head log)
    | _ -> water)

let gossip_low_water (t : t) =
  let applied = Receiver.applied t.receiver in
  for peer = 0 to t.nodes - 1 do
    if peer <> t.id then t.send ~dst:peer (Msg.LowWater { applied })
  done

(* --------------------------------------------------------------- *)
(* Applying received records in lock-sequence order ([Receiver]) *)

(* Land a ready record's bytes; the receiver marks its writes applied
   once this returns. *)
let apply_now (t : t) (record : Lbc_wal.Record.txn) =
  let sp =
    if Obs.enabled t.obs then begin
      let sp =
        Obs.span_begin t.obs ~name:"apply" ~pid:t.id ~tid:Obs.lane_apply
          ~arg:record.Lbc_wal.Record.node
      in
      (* Bind the committer's flow arrows into this apply span (the
         heads land at the span's start time), and account the lag from
         broadcast to apply. *)
      List.iter
        (fun l ->
          let id =
            Obs.flow_id ~lock:l.Lbc_wal.Record.lock_id
              ~seqno:l.Lbc_wal.Record.seqno
          in
          match Obs.flow_end t.obs ~id ~pid:t.id ~tid:Obs.lane_apply with
          | Some lag -> Obs.observe ~pid:t.id t.obs "apply_lag_us" lag
          | None -> ())
        record.Lbc_wal.Record.locks;
      sp
    end
    else Obs.null_span
  in
  Lbc_rvm.Rvm.apply_record t.rvm record;
  if retains t then Retention.keep t.retention record;
  ignore (Obs.span_end t.obs sp : float)

(* Wake interlocked acquirers once a record's writes count as applied. *)
let landed (t : t) () = Lbc_sim.Condvar.broadcast t.applied_cv

let send_fetch (t : t) ~lock ~have ~from =
  (* [have] is the applied seqno, which only rises until the marks
     reset, so the last mark per lock suppresses every repeat. *)
  if from <> t.id && Hashtbl.find_opt t.fetch_marks lock <> Some have then begin
    Hashtbl.replace t.fetch_marks lock have;
    t.stats.fetches_sent <- t.stats.fetches_sent + 1;
    if Obs.enabled t.obs then
      Hashtbl.replace t.fetch_sent lock (Lbc_sim.Engine.now t.engine);
    L.debug (fun m -> m "node %d fetches lock %d > %d from node %d" t.id lock have from);
    t.send ~dst:from (Msg.Fetch { lock; have })
  end

(* --------------------------------------------------------------- *)
(* Loss detection and repair (sequence-number gap watchdog)

   The interlock already tells a receiver that records are missing: a
   sequence-number gap that does not close means the carrying message was
   lost (or its sender crashed).  With [config.repair] set, a watchdog is
   armed whenever a node starts waiting on a gap; if the gap outlives
   [repair_timeout] virtual µs, the node fetches the missing records —
   first from the last known writer, then cycling over the other peers
   with doubled backoff — up to [max_repair_attempts] attempts.  A gap
   that survives all attempts leaves the waiter blocked, which the
   engine's stranded-process report surfaces. *)

let repair_timeout = 100.0
let max_repair_attempts = 8

let rec repair_check (t : t) lock =
  match Hashtbl.find_opt t.repairs lock with
  | None -> ()
  | Some r ->
      if applied_seq t lock >= r.need then Hashtbl.remove t.repairs lock
      else if r.retries >= max_repair_attempts then begin
        Hashtbl.remove t.repairs lock;
        L.warn (fun m ->
            m "node %d gives up repairing lock %d (need %d, have %d)" t.id
              lock r.need (applied_seq t lock))
      end
      else begin
        let rec pick k =
          let c = (max r.prefer 0 + k) mod t.nodes in
          if c = t.id then pick (k + 1) else c
        in
        let target = pick r.retries in
        let have = applied_seq t lock in
        r.retries <- r.retries + 1;
        t.stats.repair_fetches <- t.stats.repair_fetches + 1;
        if Obs.enabled t.obs then begin
          Obs.count ~pid:t.id t.obs "repair_fetches" 1;
          Hashtbl.replace t.fetch_sent lock (Lbc_sim.Engine.now t.engine)
        end;
        L.debug (fun m ->
            m "node %d repair-fetches lock %d > %d from node %d (try %d)"
              t.id lock have target r.retries);
        (* Sending costs virtual time, so it needs a process context;
           repair_check itself runs as an engine callback. *)
        Lbc_sim.Proc.spawn t.engine
          ~name:(Printf.sprintf "n%d repair l%d" t.id lock)
          ~daemon:true
          (fun () -> t.send ~dst:target (Msg.Fetch { lock; have }));
        r.delay <- r.delay *. 2.0;
        Lbc_sim.Engine.schedule t.engine ~delay:r.delay (fun () ->
            repair_check t lock)
      end

let arm_repair (t : t) ~lock ~need ~from =
  if t.config.Config.repair && need > applied_seq t lock then
    match Hashtbl.find_opt t.repairs lock with
    | Some r -> if need > r.need then r.need <- need
    | None ->
        let r = { need; retries = 0; delay = repair_timeout; prefer = from } in
        Hashtbl.replace t.repairs lock r;
        Lbc_sim.Engine.schedule t.engine ~delay:r.delay (fun () ->
            repair_check t lock)

(* Lazy mode: a held record's author must itself have applied everything
   the record depends on, so it can supply the missing chains.  Without
   this cascade a multi-lock record can deadlock an interlocked acquire
   whose per-lock fetch covers only one of the record's locks.  Repair
   mode arms the gap watchdog on the same dependencies. *)
let request_dependencies (t : t) (record : Lbc_wal.Record.txn) =
  List.iter
    (fun l ->
      let lock = l.Lbc_wal.Record.lock_id in
      let have = applied_seq t lock in
      if have < l.Lbc_wal.Record.prev_write_seq then begin
        if t.config.Config.propagation = Config.Lazy then
          send_fetch t ~lock ~have ~from:record.Lbc_wal.Record.node;
        arm_repair t ~lock ~need:l.Lbc_wal.Record.prev_write_seq
          ~from:record.Lbc_wal.Record.node
      end)
    record.Lbc_wal.Record.locks

(* A record that arrived, or was accepted, ahead of writes it lacks. *)
let hold (t : t) (record : Lbc_wal.Record.txn) =
  t.stats.records_held <- t.stats.records_held + 1;
  Obs.instant t.obs ~name:"hold" ~pid:t.id ~tid:Obs.lane_apply
    ~arg:record.Lbc_wal.Record.node;
  L.debug (fun m ->
      m "node %d holds out-of-order record (node %d tid %d); %d pending"
        t.id record.Lbc_wal.Record.node record.Lbc_wal.Record.tid
        (pending_count t));
  request_dependencies t record

let offer (t : t) record =
  if Receiver.receive t.receiver ~apply:(apply_now t) ~landed:(landed t) record
  then hold t record

let receive_record (t : t) record =
  t.stats.records_received <- t.stats.records_received + 1;
  offer t record

let pin (t : t) = Receiver.pin t.receiver
let accept (t : t) = List.iter (offer t) (Receiver.accept t.receiver)

(* Reload every region's database image and seed the checkpoint state
   [applied] with the receiver pinned ([Receiver]'s rule 3). *)
let reload (t : t) ~applied =
  pin t;
  List.iter Lbc_rvm.Region.reload_from_db (Lbc_rvm.Rvm.regions t.rvm);
  List.iter (fun (lock, seq) -> set_applied t lock seq) applied;
  accept t

(* --------------------------------------------------------------- *)
(* Propagation at commit *)

let propagation_peers (t : t) (record : Lbc_wal.Record.txn) =
  let module Iset = Set.Make (Int) in
  List.fold_left
    (fun acc region ->
      List.fold_left
        (fun acc peer -> Iset.add peer acc)
        acc
        (t.peers_with_region region))
    Iset.empty
    (Lbc_wal.Record.regions record)
  |> Iset.elements

(* Track an own write logged at [offset] until its peers report it. *)
let own_write (t : t) ~offset record =
  Retention.own t.retention ~offset ~peers:(propagation_peers t record) record;
  set_water t

let broadcast (t : t) record =
  match propagation_peers t record with
  | [] -> ()
  | peers ->
      let iov = Wire.encode_iov record in
      let len = Lbc_util.Slice.iov_length iov in
      (* the pre-iovec path materialized the message once per broadcast *)
      Lbc_util.Slice.count_saved len;
      (* Arrow tails for each (lock, seqno) this record advances; every
         receiver's apply span binds the matching head. *)
      if Obs.enabled t.obs then
        List.iter
          (fun l ->
            Obs.flow_start t.obs
              ~id:
                (Obs.flow_id ~lock:l.Lbc_wal.Record.lock_id
                   ~seqno:l.Lbc_wal.Record.seqno)
              ~pid:t.id ~tid:Obs.lane_txn)
          record.Lbc_wal.Record.locks;
      L.debug (fun m ->
          m "node %d broadcasts tid %d: %d regions, %d wire bytes" t.id
            record.Lbc_wal.Record.tid
            (List.length (Lbc_wal.Record.regions record))
            len);
      if t.config.Config.multicast then begin
        t.stats.updates_sent <- t.stats.updates_sent + 1;
        t.stats.update_bytes_sent <- t.stats.update_bytes_sent + len;
        t.multicast_send ~dsts:peers (Msg.Update iov)
      end
      else
        List.iter
          (fun peer ->
            t.stats.updates_sent <- t.stats.updates_sent + 1;
            t.stats.update_bytes_sent <- t.stats.update_bytes_sent + len;
            t.send ~dst:peer (Msg.Update iov))
          peers

(* --------------------------------------------------------------- *)
(* Crash rejoin *)

(* Bring a crashed node back: every volatile structure is rebuilt from
   what survives a crash — the database image (as of [applied], the last
   checkpoint) and the node's own durable log.  Nothing is replayed up
   front: the tail is indexed into replay chains ([Rejoin]) in one scan
   of the log and the node serves immediately.  The first touch of a
   cold chain replays just that chain through [receive_record]; a
   background drain walks the rest largest first.  Records whose
   cross-lock dependencies are missing are held and, with repair
   enabled, trigger repair fetches from the peers.  Updates committed
   elsewhere since the checkpoint are recovered on demand: the first
   acquire of each lock interlocks on the token's last-write sequence
   number and repairs the gap.

   Once every chain is warm the tail's own writes are rebroadcast to the
   peers.  A crash can land between logging a commit and propagating it,
   leaving the record in our durable log only; peers that already applied
   it discard the duplicate, peers that missed it heal.  Without the
   rebroadcast such a record would be invisible to everyone until
   server-side recovery. *)

(* Apply one record of a replay chain and account its retention.  The
   internal replay path must bypass the serving gates (it is what warms
   them), so it calls [receive_record] directly.  A write the checkpoint
   state already covers is dropped as a duplicate but still kept: the
   trim left it in the log because a peer may not have applied it, and
   that peer's fetch asks this node for it. *)
let replay_one t ~off (record : Lbc_wal.Record.txn) =
  let covered =
    List.exists
      (fun (l : Lbc_wal.Record.lock_info) -> applied_seq t l.lock_id >= l.seqno)
      record.Lbc_wal.Record.locks
  in
  receive_record t record;
  if retains t && Lbc_wal.Record.is_write record then begin
    if covered then Retention.keep t.retention record;
    own_write t ~offset:off record
  end

let rec replay_chain (t : t) (r : rejoining) c =
  match Rejoin.status r.chains c with
  | Rejoin.Warm -> ()
  | Rejoin.Replaying ->
      (* Someone else is replaying this chain; serving order only needs
         the chain applied, not applied by us. *)
      Lbc_sim.Condvar.await
        ~info:(Printf.sprintf "n%d awaits replay of stream %d" t.id c)
        r.warm_cv
        (fun () -> Rejoin.status r.chains c <> Rejoin.Replaying);
      (* The replayer may have failed and reset the chain to Cold; retry
         in this process so a failure surfaces to every toucher instead
         of hanging the waiters. *)
      replay_chain t r c
  | Rejoin.Cold ->
      Rejoin.claim r.chains c;
      let log = Lbc_rvm.Rvm.log t.rvm in
      let offsets = Rejoin.offsets r.chains c in
      let sp =
        Obs.span_begin t.obs ~name:"replay-chain" ~pid:t.id
          ~tid:Obs.lane_apply ~arg:(List.length offsets)
      in
      let writes = ref [] in
      (try
         List.iter
           (fun off ->
             match Lbc_wal.Log.read_at log ~off with
             | Ok record ->
                 replay_one t ~off record;
                 if Lbc_wal.Record.is_write record then
                   writes := record :: !writes
             | Error why ->
                 raise (Coherency_error ("on-demand replay: " ^ why)))
           offsets
       with e ->
         (* Leave the chain retryable and wake the waiters; it still
            counts as cold, so retention stays pinned at the head and
            nothing serves its stale regions. *)
         Rejoin.fail r.chains c;
         ignore (Obs.span_end t.obs sp : float);
         Lbc_sim.Condvar.broadcast r.warm_cv;
         raise e);
      Rejoin.finish r.chains c;
      r.writes.(c) <- !writes;
      ignore (Obs.span_end t.obs sp : float);
      Obs.observe t.obs "recovery_us"
        (Lbc_sim.Engine.now t.engine -. r.started_at);
      (* The last chain warming completes the own-write rebuild: release
         the head pin installed at rejoin. *)
      if Rejoin.cold r.chains = 0 then set_water t;
      Lbc_sim.Condvar.broadcast r.warm_cv

(* Serving gates: make sure the chain covering a lock or region has been
   replayed before state it governs is read, written, served to a peer,
   or used in an ordering decision.  No-ops outside an on-demand
   recovery. *)
let ensure_warm (t : t) chain_of key =
  match t.recovery with
  | None -> ()
  | Some r when Rejoin.cold r.chains = 0 -> ()
  | Some r -> (
      match chain_of r.chains key with
      | None -> ()
      | Some c -> replay_chain t r c)

let ensure_warm_lock t lock = ensure_warm t Rejoin.lock_chain lock
let ensure_warm_region t region = ensure_warm t Rejoin.region_chain region

let ensure_warm_record t (record : Lbc_wal.Record.txn) =
  List.iter
    (fun l -> ensure_warm_lock t l.Lbc_wal.Record.lock_id)
    record.Lbc_wal.Record.locks;
  List.iter
    (fun region -> ensure_warm_region t region)
    (Lbc_wal.Record.regions record)

let rejoin (t : t) ~applied =
  t.receiver <- Receiver.create ();
  (* The gossip died with the crash: until peers report again, every own
     write still in the log may be needed by one of them. *)
  t.retention <- Retention.create ~self:t.id ~nodes:t.nodes;
  Hashtbl.reset t.fetch_marks;
  Hashtbl.reset t.fetch_sent;
  Hashtbl.reset t.repairs;
  t.recovery <- None;
  reload t ~applied;
  t.ttfc_mark <- Some (Lbc_sim.Engine.now t.engine);
  let log = Lbc_rvm.Rvm.log t.rvm in
  (* The rejoin's one scan of its log: the chains of the live tail. *)
  let idx, _status = Lbc_wal.Region_index.of_log log in
  let chains = Rejoin.create (Lbc_wal.Region_index.entries idx) in
  let r =
    { chains; warm_cv = Lbc_sim.Condvar.create ();
      started_at = Lbc_sim.Engine.now t.engine;
      writes = Array.make (Rejoin.chains chains) [] }
  in
  t.recovery <- Some r;
  (* The mark stays pinned at the head while chains are cold, not just
     under [retains t]: even in an eager non-repair config the cold
     chains' records may be the only copy of their committed updates (the
     reloaded image holds only what a checkpoint replayed).  Released by
     [replay_chain] when the last chain warms. *)
  set_water t;
  let cold = Rejoin.cold chains in
  if Obs.enabled t.obs && cold > 0 then
    Obs.count ~pid:t.id t.obs "recovery_partitions" cold;
  Lbc_sim.Condvar.broadcast t.applied_cv;
  if cold > 0 then
    (* Background drain, largest chain first; once every chain is warm,
       rebroadcast the writes its replays read, chain by chain in
       first-offset order, so peers that missed a pre-crash propagation
       heal. *)
    Lbc_sim.Proc.spawn t.engine
      ~name:(Printf.sprintf "n%d recover-drain" t.id)
      (fun () ->
        List.iter (replay_chain t r) (Rejoin.drain chains);
        Array.iter (fun w -> List.iter (broadcast t) (List.rev w)) r.writes;
        Array.fill r.writes 0 (Array.length r.writes) [])

let recovering (t : t) =
  match t.recovery with Some r -> Rejoin.cold r.chains > 0 | None -> false

(* --------------------------------------------------------------- *)
(* Reads (gated on warmth during an on-demand rejoin) *)

let read t ~region ~offset ~len =
  let reg = Lbc_rvm.Rvm.region t.rvm region in
  ensure_warm_region t region;
  Lbc_rvm.Region.read reg ~offset ~len

let get_u64 t ~region ~offset =
  let reg = Lbc_rvm.Rvm.region t.rvm region in
  ensure_warm_region t region;
  Lbc_rvm.Region.get_u64 reg ~offset

(* An accessor reads the cached image directly, so it passes the gate
   once, when it is made: a region warmed by then stays warm until the
   node crashes, which also ends the accessor's process. *)
let mem t ~region ~declare =
  let reg = Lbc_rvm.Rvm.region t.rvm region in
  ensure_warm_region t region;
  Lbc_rvm.Region.mem reg ~declare

(* --------------------------------------------------------------- *)
(* Message handling *)

(* A coherency apply of a cold chain's lock replays the chain first, so
   the record is judged against recovered state. *)
let receive_iov (t : t) iov =
  let record = Wire.decode_iov iov in
  ensure_warm_record t record;
  receive_record t record

let handle (t : t) ~src msg =
  match msg with
  | Msg.Lock m -> Lbc_locks.Table.handle t.locks ~src m
  | Msg.Update iov -> receive_iov t iov
  | Msg.Fetch { lock; have } ->
      (* A cold chain may hold newer committed bytes for this lock than
         the checkpoint image; warm it before serving, so a peer's
         repair or lazy fetch never receives stale retained state. *)
      ensure_warm_lock t lock;
      let records = Retention.after t.retention ~lock ~have in
      let payloads =
        List.map
          (fun r ->
            let iov = Wire.encode_iov r in
            (* the pre-iovec path materialized each reply here *)
            Lbc_util.Slice.count_saved (Lbc_util.Slice.iov_length iov);
            iov)
          records
      in
      t.send ~dst:src (Msg.Fetched { lock; payloads })
  | Msg.Fetched { lock; payloads } ->
      t.stats.records_fetched <- t.stats.records_fetched + List.length payloads;
      (match Hashtbl.find_opt t.fetch_sent lock with
      | Some sent ->
          Hashtbl.remove t.fetch_sent lock;
          Obs.observe ~pid:t.id t.obs "fetch_rtt_us"
            (Lbc_sim.Engine.now t.engine -. sent)
      | None -> ());
      List.iter (receive_iov t) payloads
  | Msg.LowWater { applied } ->
      Retention.heard t.retention ~peer:src applied;
      set_water t

(* --------------------------------------------------------------- *)
(* Application transactions *)

module Txn = struct
  type node = t

  type t = {
    node : node;
    rvm_txn : Lbc_rvm.Rvm.txn;
    mutable held : int list;  (* acquired lock ids, newest first *)
    sp : Obs.span;  (* the whole-transaction span, ended at commit/abort *)
  }

  let begin_ node =
    node.txn_updates := 0;
    {
      node;
      rvm_txn = Lbc_rvm.Rvm.begin_txn ~restore:Lbc_rvm.Rvm.Restore node.rvm;
      held = [];
      sp =
        Obs.span_begin node.obs ~name:"txn" ~pid:node.id ~tid:Obs.lane_txn
          ~arg:0;
    }

  (* The interlock of Section 3.4 plus lock bookkeeping, shared by both
     acquire flavours. *)
  let finish_acquire t lock (g : Lbc_locks.Table.grant) =
    let node = t.node in
    (* During an on-demand rejoin the lock's applied-sequence table may
       lag the durable log; replay the lock's chain before the interlock
       compares against it. *)
    ensure_warm_lock node lock;
    if applied_seq node lock < g.Lbc_locks.Table.prev_write_seq then begin
      node.stats.interlock_waits <- node.stats.interlock_waits + 1;
      let sp =
        Obs.span_begin node.obs ~name:"interlock" ~pid:node.id
          ~tid:Obs.lane_txn ~arg:lock
      in
      (if
         node.config.Config.propagation = Config.Lazy
         && g.Lbc_locks.Table.last_writer >= 0
       then
         send_fetch node ~lock ~have:(applied_seq node lock)
           ~from:g.Lbc_locks.Table.last_writer);
      arm_repair node ~lock ~need:g.Lbc_locks.Table.prev_write_seq
        ~from:g.Lbc_locks.Table.last_writer;
      Lbc_sim.Condvar.await
        ~info:
          (Printf.sprintf "interlock l%d need %d have %d" lock
             g.Lbc_locks.Table.prev_write_seq (applied_seq node lock))
        node.applied_cv
        (fun () -> applied_seq node lock >= g.Lbc_locks.Table.prev_write_seq);
      Obs.observe ~pid:node.id node.obs "interlock_us" (Obs.span_end node.obs sp)
    end;
    Lbc_rvm.Rvm.set_lock t.rvm_txn ~lock_id:lock ~seqno:g.Lbc_locks.Table.seqno
      ~prev_write_seq:g.Lbc_locks.Table.prev_write_seq;
    t.held <- lock :: t.held

  (* The one lock wait: take the lock at once if the table can, else
     queue an ivar and park on it.  With a [timeout] the wait is
     cancelled after that many virtual µs and yields [None]. *)
  let wait_grant node lock ~timeout =
    match Lbc_locks.Table.acquire node.locks lock with
    | Some g ->
        Obs.observe ~pid:node.id node.obs "lock_wait_us" 0.0;
        Some g
    | None ->
        let sp =
          Obs.span_begin node.obs ~name:"lock.wait" ~pid:node.id
            ~tid:Obs.lane_lock ~arg:lock
        in
        let iv = Lbc_sim.Ivar.create () in
        Lbc_locks.Table.wait node.locks lock iv;
        let info =
          match timeout with
          | None -> Printf.sprintf "lock-wait l%d" lock
          | Some timeout ->
              Lbc_sim.Engine.schedule node.engine ~delay:timeout (fun () ->
                  if not (Lbc_sim.Ivar.is_filled iv) then begin
                    Lbc_locks.Table.cancel node.locks lock iv;
                    Lbc_sim.Ivar.fill iv None
                  end);
              Printf.sprintf "lock-wait l%d (timeout %.0f)" lock timeout
        in
        let res = Lbc_sim.Ivar.read ~info iv in
        let wait = Obs.span_end node.obs sp in
        if Option.is_some res then
          Obs.observe ~pid:node.id node.obs "lock_wait_us" wait;
        res

  let acquire_within t lock ~timeout =
    if Receiver.pinned t.node.receiver then
      raise (Coherency_error "acquire on a version-pinned node");
    if List.mem lock t.held then
      raise (Coherency_error "lock already held by this transaction");
    match wait_grant t.node lock ~timeout with
    | Some g ->
        finish_acquire t lock g;
        true
    | None -> false

  let acquire t lock =
    if not (acquire_within t lock ~timeout:None) then
      raise (Coherency_error "lock wait ended without a grant")

  let acquire_timeout t lock ~timeout =
    acquire_within t lock ~timeout:(Some timeout)

  let set_range t ~region ~offset ~len =
    ensure_warm_region t.node region;
    Lbc_rvm.Rvm.set_range t.rvm_txn ~region ~offset ~len

  let write t ~region ~offset b =
    ensure_warm_region t.node region;
    Lbc_rvm.Rvm.write t.rvm_txn ~region ~offset b

  let set_u64 t ~region ~offset v =
    ensure_warm_region t.node region;
    Lbc_rvm.Rvm.set_u64 t.rvm_txn ~region ~offset v
  let read t ~region ~offset ~len = read t.node ~region ~offset ~len
  let get_u64 t ~region ~offset = get_u64 t.node ~region ~offset

  let mem t ~region =
    ensure_warm_region t.node region;
    Lbc_rvm.Rvm.mem t.rvm_txn ~region

  let set_command t ~op ~params ~regions =
    Lbc_rvm.Rvm.set_command t.rvm_txn ~op ~params ~regions

  let commit_outcome t =
    let node = t.node in
    let csp =
      Obs.span_begin node.obs ~name:"commit" ~pid:node.id ~tid:Obs.lane_txn
        ~arg:0
    in
    (* Captured before the append: the record will land at or after this
       offset (concurrent committers may slip in during cost charging),
       so a retention mark here never trims the record itself. *)
    let log_off = Lbc_wal.Log.tail (Lbc_rvm.Rvm.log node.rvm) in
    let outcome = Lbc_rvm.Rvm.commit_full t.rvm_txn in
    let record = outcome.Lbc_rvm.Rvm.record in
    let wrote = Lbc_wal.Record.is_write record in
    if wrote then begin
      (* Our own updates are by definition applied locally. *)
      List.iter
        (fun l -> set_applied node l.Lbc_wal.Record.lock_id l.Lbc_wal.Record.seqno)
        record.Lbc_wal.Record.locks;
      if retains node then begin
        Retention.keep node.retention record;
        if node.config.Config.disk_logging then
          own_write node ~offset:log_off record
      end
    end;
    (* Two-phase: release everything at commit (paper Section 2.1), then
       propagate; receivers' interlock tolerates a token overtaking its
       updates. *)
    List.iter
      (fun lock -> Lbc_locks.Table.release node.locks lock ~wrote)
      (List.rev t.held);
    t.held <- [];
    (if wrote then
       match node.config.Config.propagation with
       | Config.Eager -> broadcast node record
       | Config.Lazy ->
           (* Multi-lock records cannot be reconstructed from per-lock
              fetches; fall back to eager broadcast for them. *)
           if List.length record.Lbc_wal.Record.locks > 1 then
             broadcast node record);
    if Obs.enabled node.obs then begin
      Obs.observe ~pid:node.id node.obs "commit_us"
        (Obs.span_end node.obs csp);
      ignore (Obs.span_end node.obs t.sp : float)
    end;
    (* Recovery headline: virtual time from the start of the last rejoin
       to the first commit the restarted node completes. *)
    (match node.ttfc_mark with
    | Some t0 ->
        node.ttfc_mark <- None;
        Obs.observe ~pid:node.id node.obs "time_to_first_commit_us"
          (Lbc_sim.Engine.now node.engine -. t0)
    | None -> ());
    outcome

  let commit_record t = (commit_outcome t).Lbc_rvm.Rvm.record
  let commit t = ignore (commit_outcome t)

  let abort t =
    let node = t.node in
    Lbc_rvm.Rvm.abort t.rvm_txn;
    List.iter
      (fun lock -> Lbc_locks.Table.release node.locks lock ~wrote:false)
      (List.rev t.held);
    t.held <- [];
    ignore (Obs.span_end node.obs t.sp : float)
end
