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

(* On-demand rejoin: the surviving log tail, split into independent
   replay chains by the persisted region index.  Each chain (stream) is
   cold until replayed; the first touch of any of its keys — a local
   read/write, a lock acquire, a coherency apply, or a peer fetch —
   replays exactly that chain, while a background drain walks the rest
   hottest-lock-first. *)
type stream_status = Cold | Replaying | Warm

type stream = {
  sid : int;
  offsets : int list;  (* log offsets of the chain's records, log order *)
  skeys : int list;  (* tagged Region_index keys the chain covers *)
  mutable status : stream_status;
}

type recovery = {
  streams : stream array;
  by_key : (int, int) Hashtbl.t;  (* tagged key -> stream index *)
  mutable cold : int;  (* streams not yet warm *)
  warm_cv : Lbc_sim.Condvar.t;  (* waiters for a Replaying stream *)
  started_at : float;
}

type rejoin_mode = Replay_all | On_demand

type t = {
  id : int;
  nodes : int;
  config : Config.t;
  engine : Lbc_sim.Engine.t;
  rvm : Lbc_rvm.Rvm.t;
  locks : Lbc_locks.Table.t;
  send : dst:int -> Msg.t -> unit;
  multicast_send : dsts:int list -> Msg.t -> unit;
  send_update : dst:int -> Lbc_util.Slice.t list -> unit;
  multicast_update : dsts:int list -> Lbc_util.Slice.t list -> unit;
  peers_with_region : int -> int list;
  applied : (int, int) Hashtbl.t;  (* lock id -> applied write seqno *)
  applied_cv : Lbc_sim.Condvar.t;
  mutable pending : Lbc_wal.Record.txn list;  (* arrival order *)
  retained : (int, Lbc_wal.Record.txn list) Hashtbl.t;  (* newest first *)
  peer_applied : (int, (int, int) Hashtbl.t) Hashtbl.t;
      (* peer -> lock -> applied write seqno, from low-water gossip *)
  mutable unacked : (int * int list * (int * int) list) list;
      (* own committed writes not yet known applied by every propagation
         peer: (log offset, peers, (lock, seqno) list), oldest first.
         The head's offset is the log's repair-retention low-water mark. *)
  fetch_marks : (int * int, unit) Hashtbl.t;  (* (lock, have) fetches sent *)
  repairs : (int, repair) Hashtbl.t;  (* lock id -> gap under watch *)
  txn_updates : int ref;  (* set_range calls in the running transaction *)
  mutable pinned : bool;  (* version-pinned reader: buffer, don't apply *)
  mutable recovery : recovery option;  (* live during an on-demand rejoin *)
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
  send_update : dst:int -> Lbc_util.Slice.t list -> unit;
      (** transmit [Msg.Update iov] with gather-list framing — the
          committed log tail travels by reference to the channel *)
  multicast_update : dsts:int list -> Lbc_util.Slice.t list -> unit;
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
      Lbc_rvm.Rvm.coalesce = deps.config.Config.coalesce;
      disk_logging = deps.config.Config.disk_logging;
      range_header_size = deps.config.Config.range_header_size;
      log_mode = deps.config.Config.log_mode;
      instrumentation = instrumentation deps.config txn_updates;
    }
  in
  let rvm =
    Lbc_rvm.Rvm.init ~options:rvm_options ~node:deps.node_id
      ~log_dev:deps.log_dev ()
  in
  if
    deps.config.Config.group_commit
    && deps.config.Config.disk_logging
    && deps.config.Config.flush_on_commit
  then
    Lbc_wal.Log.enable_group_commit (Lbc_rvm.Rvm.log rvm) ~engine:deps.engine
      ~max_records:deps.config.Config.group_commit_max
      ~delay:deps.config.Config.group_commit_delay;
  let locks =
    Lbc_locks.Table.create ~node:deps.node_id ~nodes:deps.nodes
      ~send:(fun ~dst m -> deps.send ~dst (Msg.Lock m))
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
    send_update = deps.send_update;
    multicast_update = deps.multicast_update;
    peers_with_region = deps.peers_with_region;
    applied = Hashtbl.create 16;
    applied_cv = Lbc_sim.Condvar.create ();
    pending = [];
    retained = Hashtbl.create 16;
    peer_applied = Hashtbl.create 8;
    unacked = [];
    fetch_marks = Hashtbl.create 16;
    repairs = Hashtbl.create 8;
    txn_updates;
    pinned = false;
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

let applied_seq t lock =
  Option.value ~default:0 (Hashtbl.find_opt t.applied lock)

let set_applied t lock seq =
  if seq > applied_seq t lock then Hashtbl.replace t.applied lock seq

let pending_count t = List.length t.pending

let map_region t ~id ~db ~size = Lbc_rvm.Rvm.map_region t.rvm ~id ~db ~size

(* --------------------------------------------------------------- *)
(* Retention (lazy propagation, and repair service) *)

(* Lazy mode retains committed records so readers can fetch them; repair
   mode additionally retains applied records on every node, so a repair
   fetch can be served by any peer that has the data. *)
let retains (t : t) =
  t.config.Config.propagation = Config.Lazy || t.config.Config.repair

let retain (t : t) (record : Lbc_wal.Record.txn) =
  List.iter
    (fun l ->
      let lock = l.Lbc_wal.Record.lock_id in
      let existing = Option.value ~default:[] (Hashtbl.find_opt t.retained lock) in
      Hashtbl.replace t.retained lock (record :: existing))
    record.Lbc_wal.Record.locks

let resync (t : t) ~applied =
  if t.pending <> [] then
    raise (Coherency_error "resync with records still pending");
  List.iter
    (fun region -> Lbc_rvm.Region.reload_from_db region)
    (Lbc_rvm.Rvm.regions t.rvm);
  List.iter (fun (lock, seq) -> set_applied t lock seq) applied;
  Hashtbl.reset t.retained;
  Hashtbl.reset t.fetch_marks;
  Hashtbl.reset t.repairs;
  (* The checkpoint replayed every log into the database and this resync
     brings each node to that state, so nothing committed before it can
     be fetched again: lift the retention mark.  Record the checkpoint
     state as ground truth for every peer's applied table. *)
  t.unacked <- [];
  Lbc_wal.Log.set_retention_water (Lbc_rvm.Rvm.log t.rvm) max_int;
  for peer = 0 to t.nodes - 1 do
    if peer <> t.id then begin
      let tbl =
        match Hashtbl.find_opt t.peer_applied peer with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 16 in
            Hashtbl.replace t.peer_applied peer tbl;
            tbl
      in
      List.iter
        (fun (lock, seq) ->
          if seq > Option.value ~default:0 (Hashtbl.find_opt tbl lock) then
            Hashtbl.replace tbl lock seq)
        applied
    end
  done;
  Lbc_sim.Condvar.broadcast t.applied_cv

let retained_count t =
  Hashtbl.fold (fun _ rs acc -> acc + List.length rs) t.retained 0

let gc_retained t = Hashtbl.reset t.retained

let retained_after t ~lock ~have =
  let seq_for record =
    match
      List.find_opt
        (fun l -> l.Lbc_wal.Record.lock_id = lock)
        record.Lbc_wal.Record.locks
    with
    | Some l -> l.Lbc_wal.Record.seqno
    | None -> raise (Coherency_error "retained record lacks its lock")
  in
  Option.value ~default:[] (Hashtbl.find_opt t.retained lock)
  |> List.filter (fun r -> seq_for r > have)
  |> List.sort (fun a b -> Int.compare (seq_for a) (seq_for b))

(* --------------------------------------------------------------- *)
(* Low-water gossip: what may the log trim past?

   A node's log must keep every own committed write some peer might still
   need re-sent (repair fetch, or a rejoin rebroadcast after a crash).
   Each write is "unacked" until every propagation peer reports — via
   [Msg.LowWater] gossip of its applied table — an applied sequence
   number at or past the write, for each of its locks.  The offset of the
   oldest unacked write is the log's repair-retention low-water mark;
   with no gossip received nothing is trimmed (conservative default). *)

let peer_acked (t : t) peer ~lock ~seq =
  match Hashtbl.find_opt t.peer_applied peer with
  | None -> false
  | Some tbl -> (
      match Hashtbl.find_opt tbl lock with Some s -> s >= seq | None -> false)

let acked (t : t) (_off, peers, lock_seqs) =
  List.for_all
    (fun peer ->
      List.for_all (fun (lock, seq) -> peer_acked t peer ~lock ~seq) lock_seqs)
    peers

(* Drop retained records every peer has applied: none of them can appear
   in a future fetch (a fetch always asks for records {e newer} than the
   fetcher's applied sequence number). *)
let prune_retained (t : t) =
  if t.nodes > 1 then begin
    let floor lock =
      let rec go peer acc =
        if peer >= t.nodes then acc
        else if peer = t.id then go (peer + 1) acc
        else
          let s =
            match Hashtbl.find_opt t.peer_applied peer with
            | None -> 0
            | Some tbl -> Option.value ~default:0 (Hashtbl.find_opt tbl lock)
          in
          go (peer + 1) (min acc s)
      in
      go 0 max_int
    in
    let seq_for lock (record : Lbc_wal.Record.txn) =
      match
        List.find_opt
          (fun l -> l.Lbc_wal.Record.lock_id = lock)
          record.Lbc_wal.Record.locks
      with
      | Some l -> l.Lbc_wal.Record.seqno
      | None -> max_int
    in
    Hashtbl.filter_map_inplace
      (fun lock records ->
        let f = floor lock in
        match List.filter (fun r -> seq_for lock r > f) records with
        | [] -> None
        | kept -> Some kept)
      t.retained
  end

let update_retention (t : t) =
  t.unacked <- List.filter (fun entry -> not (acked t entry)) t.unacked;
  (* Minimum over the entries, not the list head: an on-demand rejoin
     rebuilds the list stream by stream, out of log order. *)
  let water =
    List.fold_left (fun acc (off, _, _) -> min acc off) max_int t.unacked
  in
  (* While an on-demand rejoin still has cold streams the unacked list is
     incomplete, so retention stays pinned at the log head. *)
  let water =
    match t.recovery with
    | Some r when r.cold > 0 ->
        min water (Lbc_wal.Log.head (Lbc_rvm.Rvm.log t.rvm))
    | _ -> water
  in
  Lbc_wal.Log.set_retention_water (Lbc_rvm.Rvm.log t.rvm) water;
  prune_retained t

let track_unacked (t : t) ~offset (record : Lbc_wal.Record.txn) ~peers =
  if peers <> [] then begin
    let lock_seqs =
      List.map
        (fun l -> (l.Lbc_wal.Record.lock_id, l.Lbc_wal.Record.seqno))
        record.Lbc_wal.Record.locks
    in
    t.unacked <- t.unacked @ [ (offset, peers, lock_seqs) ];
    update_retention t
  end

let unacked_count (t : t) = List.length t.unacked

let clear_retention (t : t) =
  t.unacked <- [];
  Lbc_wal.Log.set_retention_water (Lbc_rvm.Rvm.log t.rvm) max_int

let applied_snapshot (t : t) =
  Hashtbl.fold (fun lock seq acc -> (lock, seq) :: acc) t.applied []

let gossip_low_water (t : t) =
  let applied = applied_snapshot t in
  for peer = 0 to t.nodes - 1 do
    if peer <> t.id then t.send ~dst:peer (Msg.LowWater { applied })
  done

let receive_low_water (t : t) ~src ~applied =
  let tbl =
    match Hashtbl.find_opt t.peer_applied src with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 16 in
        Hashtbl.replace t.peer_applied src tbl;
        tbl
  in
  List.iter
    (fun (lock, seq) ->
      if seq > Option.value ~default:0 (Hashtbl.find_opt tbl lock) then
        Hashtbl.replace tbl lock seq)
    applied;
  update_retention t

(* --------------------------------------------------------------- *)
(* Applying received records in lock-sequence order *)

type readiness = Ready | Hold | Duplicate

let readiness t (record : Lbc_wal.Record.txn) =
  let dup =
    List.exists
      (fun l -> applied_seq t l.Lbc_wal.Record.lock_id >= l.Lbc_wal.Record.seqno)
      record.Lbc_wal.Record.locks
  in
  if dup then Duplicate
  else if
    List.for_all
      (fun l ->
        applied_seq t l.Lbc_wal.Record.lock_id >= l.Lbc_wal.Record.prev_write_seq)
      record.Lbc_wal.Record.locks
  then Ready
  else Hold

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
  List.iter
    (fun l -> set_applied t l.Lbc_wal.Record.lock_id l.Lbc_wal.Record.seqno)
    record.Lbc_wal.Record.locks;
  if retains t then retain t record;
  ignore (Obs.span_end t.obs sp : float);
  Lbc_sim.Condvar.broadcast t.applied_cv

(* Apply everything applicable, holding the rest; newly applied records can
   unblock held ones, so iterate to a fixpoint. *)
let rec drain_pending t =
  let ready, rest =
    List.partition (fun r -> readiness t r = Ready) t.pending
  in
  let rest = List.filter (fun r -> readiness t r <> Duplicate) rest in
  t.pending <- rest;
  match ready with
  | [] -> ()
  | _ ->
      List.iter (apply_now t) ready;
      drain_pending t

let fetch_mark_key t lock = Printf.sprintf "fetch:%d:%d" t.id lock

let send_fetch (t : t) ~lock ~have ~from =
  if from <> t.id && not (Hashtbl.mem t.fetch_marks (lock, have)) then begin
    Hashtbl.replace t.fetch_marks (lock, have) ();
    t.stats.fetches_sent <- t.stats.fetches_sent + 1;
    if Obs.enabled t.obs then Obs.mark t.obs (fetch_mark_key t lock);
    L.debug (fun m -> m "node %d fetches lock %d > %d from node %d" t.id lock have from);
    t.send ~dst:from (Msg.Fetch { lock; have })
  end

(* --------------------------------------------------------------- *)
(* Loss detection and repair (sequence-number gap watchdog)

   The interlock already tells a receiver that records are missing: a
   sequence-number gap that does not close means the carrying message was
   lost (or its sender crashed).  With [config.repair] set, a watchdog is
   armed whenever a node starts waiting on a gap; if the gap outlives
   [repair_timeout], the node fetches the missing records — first from the
   last known writer, then cycling over the other peers with doubled
   backoff — up to [repair_retries] attempts.  A gap that survives all
   attempts leaves the waiter blocked, which the engine's stranded-process
   report surfaces. *)

let rec repair_check (t : t) lock =
  match Hashtbl.find_opt t.repairs lock with
  | None -> ()
  | Some r ->
      if applied_seq t lock >= r.need then Hashtbl.remove t.repairs lock
      else if r.retries >= t.config.Config.repair_retries then begin
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
          Obs.mark t.obs (fetch_mark_key t lock)
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
        let r =
          {
            need;
            retries = 0;
            delay = t.config.Config.repair_timeout;
            prefer = from;
          }
        in
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

let receive_record (t : t) record =
  t.stats.records_received <- t.stats.records_received + 1;
  if t.pinned then t.pending <- t.pending @ [ record ]
  else
    match readiness t record with
    | Duplicate -> ()
    | Ready ->
        apply_now t record;
        drain_pending t
    | Hold ->
        t.stats.records_held <- t.stats.records_held + 1;
        Obs.instant t.obs ~name:"hold" ~pid:t.id ~tid:Obs.lane_apply
          ~arg:record.Lbc_wal.Record.node;
        L.debug (fun m ->
            m "node %d holds out-of-order record (node %d tid %d); %d pending"
              t.id record.Lbc_wal.Record.node record.Lbc_wal.Record.tid
              (List.length t.pending + 1));
        t.pending <- t.pending @ [ record ];
        request_dependencies t record

let pin (t : t) = t.pinned <- true
let is_pinned (t : t) = t.pinned

let accept (t : t) =
  if t.pinned then begin
    t.pinned <- false;
    drain_pending t
  end

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
        t.multicast_update ~dsts:peers iov
      end
      else
        List.iter
          (fun peer ->
            t.stats.updates_sent <- t.stats.updates_sent + 1;
            t.stats.update_bytes_sent <- t.stats.update_bytes_sent + len;
            t.send_update ~dst:peer iov)
          peers

(* --------------------------------------------------------------- *)
(* Crash rejoin *)

(* Bring a crashed node back: every volatile structure is rebuilt from
   what survives a crash — the database image (as of [applied], the last
   checkpoint) and the node's own durable log.  Replaying the log tail
   through [receive_record] re-applies our own commits in order; records
   whose cross-lock dependencies are missing are held and, with repair
   enabled, trigger repair fetches from the peers.  Updates committed
   elsewhere since the checkpoint are recovered on demand: the first
   acquire of each lock interlocks on the token's last-write sequence
   number and repairs the gap.

   The replayed tail is also rebroadcast to the peers.  A crash can land
   between logging a commit and propagating it, leaving the record in
   our durable log only; peers that already applied it discard the
   duplicate, peers that missed it heal.  Without the rebroadcast such a
   record would be invisible to everyone until server-side recovery.

   Two modes: [Replay_all] (the original path) replays the whole tail as
   concurrent partitioned streams before anything else happens on the
   node; [On_demand] indexes the tail (seeded by the checkpoint's
   persisted region-index record) and serves immediately — the first
   touch of a cold chain replays just that chain, a background drain
   walks the rest hottest-lock-first. *)

(* Apply one record of a replay stream and account its retention.  The
   internal replay path must bypass the serving gates (it is what warms
   them), so it calls [receive_record] directly. *)
let replay_one t ~off (record : Lbc_wal.Record.txn) =
  receive_record t record;
  if retains t && Lbc_wal.Record.is_write record then
    track_unacked t ~offset:off record ~peers:(propagation_peers t record)

let rec replay_stream (t : t) (r : recovery) (s : stream) =
  match s.status with
  | Warm -> ()
  | Replaying ->
      (* Someone else is replaying this chain; serving order only needs
         the chain applied, not applied by us. *)
      Lbc_sim.Condvar.await
        ~info:(Printf.sprintf "n%d awaits replay of stream %d" t.id s.sid)
        r.warm_cv
        (fun () -> s.status <> Replaying);
      (* The replayer may have failed and reset the chain to Cold; retry
         in this process so a failure surfaces to every toucher instead
         of hanging the waiters. *)
      if s.status <> Warm then replay_stream t r s
  | Cold ->
      s.status <- Replaying;
      let log = Lbc_rvm.Rvm.log t.rvm in
      let sp =
        Obs.span_begin t.obs ~name:"replay-chain" ~pid:t.id
          ~tid:Obs.lane_apply ~arg:0
      in
      (try
         List.iter
           (fun off ->
             match Lbc_wal.Log.read_at log ~off with
             | Ok record -> replay_one t ~off record
             | Error why ->
                 raise (Coherency_error ("on-demand replay: " ^ why)))
           s.offsets
       with e ->
         (* Leave the chain retryable and wake the waiters; [r.cold]
            keeps counting it, so retention stays pinned at the head and
            nothing serves its stale regions. *)
         s.status <- Cold;
         ignore (Obs.span_end t.obs sp : float);
         Lbc_sim.Condvar.broadcast r.warm_cv;
         raise e);
      s.status <- Warm;
      List.iter
        (fun k ->
          match Lbc_wal.Region_index.untag k with
          | Lbc_wal.Region_index.Region rid -> (
              match Lbc_rvm.Rvm.region t.rvm rid with
              | reg -> Lbc_rvm.Region.set_warm reg
              | exception Not_found -> ())
          | Lbc_wal.Region_index.Lock _ -> ())
        s.skeys;
      r.cold <- r.cold - 1;
      ignore (Obs.span_end t.obs sp : float);
      Obs.observe t.obs "recovery_us"
        (Lbc_sim.Engine.now t.engine -. r.started_at);
      (* The last stream warming completes the unacked rebuild: release
         the head pin installed at rejoin. *)
      if r.cold = 0 then update_retention t;
      Lbc_sim.Condvar.broadcast r.warm_cv

(* Serving gates: make sure the chain covering [key] has been replayed
   before state it governs is read, written, served to a peer, or used
   in an ordering decision.  No-ops outside an on-demand recovery. *)
let ensure_warm_key (t : t) key =
  match t.recovery with
  | None -> ()
  | Some r when r.cold = 0 -> ()
  | Some r -> (
      match Hashtbl.find_opt r.by_key key with
      | None -> ()
      | Some i -> replay_stream t r r.streams.(i))

let ensure_warm_lock t lock =
  ensure_warm_key t (Lbc_wal.Region_index.tag (Lbc_wal.Region_index.Lock lock))

let ensure_warm_region t region =
  ensure_warm_key t
    (Lbc_wal.Region_index.tag (Lbc_wal.Region_index.Region region))

let ensure_warm_record t (record : Lbc_wal.Record.txn) =
  List.iter
    (fun l -> ensure_warm_lock t l.Lbc_wal.Record.lock_id)
    record.Lbc_wal.Record.locks;
  List.iter
    (fun region -> ensure_warm_region t region)
    (Lbc_wal.Record.regions record)

(* Chain priority for the background drain: total local acquire count of
   the chain's locks (the lock table's heat counters).  With the sink off
   every chain scores 0 and first-appearance (log) order is kept. *)
let stream_heat (t : t) (s : stream) =
  List.fold_left
    (fun acc k ->
      match Lbc_wal.Region_index.untag k with
      | Lbc_wal.Region_index.Lock l when l >= 0 ->
          acc + Obs.counter t.obs (Lbc_locks.Table.heat_key l)
      | _ -> acc)
    0 s.skeys

let rejoin ?(mode = Replay_all) (t : t) ~applied =
  t.pinned <- false;
  t.pending <- [];
  Hashtbl.reset t.retained;
  Hashtbl.reset t.fetch_marks;
  Hashtbl.reset t.repairs;
  Hashtbl.reset t.applied;
  t.recovery <- None;
  t.ttfc_mark <- None;
  (* The crash killed any process that was mid-transaction; those
     transactions will never commit, so they must not keep a later fuzzy
     checkpoint waiting for quiescence. *)
  Lbc_rvm.Rvm.clear_live_txns t.rvm;
  List.iter
    (fun region -> Lbc_rvm.Region.reload_from_db region)
    (Lbc_rvm.Rvm.regions t.rvm);
  List.iter (fun (lock, seq) -> set_applied t lock seq) applied;
  (* Rebuild retention from what survives: until gossip proves otherwise,
     assume every own write still in the log may be needed by a peer (the
     gossip tables died with the crash). *)
  t.unacked <- [];
  Hashtbl.reset t.peer_applied;
  Lbc_wal.Log.set_retention_water (Lbc_rvm.Rvm.log t.rvm) max_int;
  (* A crash mid-fuzzy-checkpoint leaves the ckpt water pinned (the end
     marker never made it); the checkpoint is abandoned, so unpin. *)
  Lbc_wal.Log.set_ckpt_water (Lbc_rvm.Rvm.log t.rvm) max_int;
  match mode with
  | Replay_all ->
      let items, _status =
        Lbc_wal.Log.fold (Lbc_rvm.Rvm.log t.rvm) ~init:[] (fun acc off txn ->
            (off, txn) :: acc)
      in
      let items = List.rev items in
      let records = List.map snd items in
      if retains t then
        List.iter
          (fun (off, (r : Lbc_wal.Record.txn)) ->
            if Lbc_wal.Record.is_write r then
              track_unacked t ~offset:off r ~peers:(propagation_peers t r))
          items;
      (* Partitioned replay: split the surviving tail by lock/region
         closure and replay the independent streams as concurrent
         processes.  Streams share no locks and no regions, so their
         applies commute; within a stream log order is kept, so each
         record's [prev_write_seq] chain is intact. *)
      let streams = Merge.partition records in
      let n_streams = List.length streams in
      let remaining = ref n_streams in
      let done_cv = Lbc_sim.Condvar.create () in
      let t0 = Lbc_sim.Engine.now t.engine in
      List.iteri
        (fun i stream ->
          Lbc_sim.Proc.spawn t.engine
            ~name:(Printf.sprintf "n%d recover-p%d" t.id i)
            (fun () ->
              List.iter (receive_record t) stream;
              Obs.observe t.obs "recovery_us"
                (Lbc_sim.Engine.now t.engine -. t0);
              decr remaining;
              Lbc_sim.Condvar.broadcast done_cv))
        streams;
      if Obs.enabled t.obs && n_streams > 0 then
        Obs.count ~pid:t.id t.obs "recovery_partitions" n_streams;
      Lbc_sim.Condvar.broadcast t.applied_cv;
      let own_writes = List.filter Lbc_wal.Record.is_write records in
      if own_writes <> [] then
        (* Fabric sends charge wire time, so they need process context;
           the rebroadcast also waits for the replay streams to finish so
           peers never see our tail before we have re-applied it
           ourselves. *)
        Lbc_sim.Proc.spawn t.engine
          ~name:(Printf.sprintf "n%d rejoin-sync" t.id)
          (fun () ->
            Lbc_sim.Condvar.await
              ~info:
                (Printf.sprintf "rejoin n%d awaits %d replay streams" t.id
                   n_streams)
              done_cv
              (fun () -> !remaining = 0);
            List.iter (broadcast t) own_writes)
  | On_demand ->
      (* Index the surviving tail — seeded by the checkpoint's persisted
         region-index control record, extended with whatever was
         appended since — and serve immediately.  Nothing is replayed
         here; first touch and the background drain do it.  Only this
         mode feeds [time_to_first_commit_us]: the bench compares
         on-demand rows by it, so Replay_all rejoins must not pollute
         the samples. *)
      t.ttfc_mark <- Some (Lbc_sim.Engine.now t.engine);
      let log = Lbc_rvm.Rvm.log t.rvm in
      let idx, _status = Lbc_wal.Region_index.of_log log in
      let entries = Lbc_wal.Region_index.entries idx in
      let streams =
        Array.of_list
          (List.mapi
             (fun i (e : Lbc_wal.Record.index_entry) ->
               { sid = i; offsets = e.offsets; skeys = e.keys;
                 status = Cold })
             entries)
      in
      let by_key = Hashtbl.create 32 in
      Array.iter
        (fun s -> List.iter (fun k -> Hashtbl.replace by_key k s.sid) s.skeys)
        streams;
      let r =
        { streams; by_key; cold = Array.length streams;
          warm_cv = Lbc_sim.Condvar.create ();
          started_at = Lbc_sim.Engine.now t.engine }
      in
      t.recovery <- Some r;
      (* Every region a cold chain touches serves stale (checkpoint)
         bytes until that chain replays: mark them cold so direct reads
         gate too.  Retention stays pinned at the head until the unacked
         list is rebuilt (streams warm out of log order). *)
      Array.iter
        (fun s ->
          List.iter
            (fun k ->
              match Lbc_wal.Region_index.untag k with
              | Lbc_wal.Region_index.Region rid -> (
                  match Lbc_rvm.Rvm.region t.rvm rid with
                  | reg -> Lbc_rvm.Region.set_cold reg
                  | exception Not_found -> ())
              | Lbc_wal.Region_index.Lock _ -> ())
            s.skeys)
        streams;
      (* Pin unconditionally, not just under [retains t]: even in an
         eager non-repair config the cold chains' records are the only
         copy of their committed updates (the regions were reloaded from
         the checkpoint image, so a fuzzy checkpoint flushes nothing for
         them).  Released by [replay_stream] when the last stream
         warms. *)
      if r.cold > 0 then
        Lbc_wal.Log.set_retention_water log (Lbc_wal.Log.head log);
      if Obs.enabled t.obs && r.cold > 0 then
        Obs.count ~pid:t.id t.obs "recovery_partitions" r.cold;
      Lbc_sim.Condvar.broadcast t.applied_cv;
      if r.cold > 0 then
        (* Background drain, hottest locks first; once every stream is
           warm, rebroadcast the tail's own writes so peers that missed
           a pre-crash propagation heal. *)
        Lbc_sim.Proc.spawn t.engine
          ~name:(Printf.sprintf "n%d recover-drain" t.id)
          (fun () ->
            let order =
              List.stable_sort
                (fun a b -> Int.compare (stream_heat t b) (stream_heat t a))
                (Array.to_list streams)
            in
            List.iter (fun s -> replay_stream t r s) order;
            Array.iter
              (fun s ->
                List.iter
                  (fun off ->
                    match Lbc_wal.Log.read_at log ~off with
                    | Ok rc when Lbc_wal.Record.is_write rc ->
                        broadcast t rc
                    | Ok _ | Error _ -> ())
                  s.offsets)
              streams)

let recovering (t : t) =
  match t.recovery with Some r -> r.cold > 0 | None -> false

(* --------------------------------------------------------------- *)
(* Reads (gated on warmth during an on-demand rejoin) *)

let read t ~region ~offset ~len =
  let reg = Lbc_rvm.Rvm.region t.rvm region in
  if not (Lbc_rvm.Region.is_warm reg) then ensure_warm_region t region;
  Lbc_rvm.Region.read reg ~offset ~len

let get_u64 t ~region ~offset =
  let reg = Lbc_rvm.Rvm.region t.rvm region in
  if not (Lbc_rvm.Region.is_warm reg) then ensure_warm_region t region;
  Lbc_rvm.Region.get_u64 reg ~offset

(* An accessor reads the cached image directly, so it passes the gate
   once, when it is made: a region warmed by then stays warm until the
   node crashes, which also ends the accessor's process. *)
let mem t ~region ~declare =
  let reg = Lbc_rvm.Rvm.region t.rvm region in
  if not (Lbc_rvm.Region.is_warm reg) then ensure_warm_region t region;
  Lbc_rvm.Region.mem reg ~declare

(* --------------------------------------------------------------- *)
(* Message handling *)

let handle (t : t) ~src msg =
  match msg with
  | Msg.Lock m -> Lbc_locks.Table.handle t.locks ~src m
  | Msg.Update iov ->
      let record = Wire.decode_iov iov in
      (* Coherency apply of a cold chain's lock: replay the chain first
         so the record's readiness is judged against recovered state. *)
      ensure_warm_record t record;
      receive_record t record
  | Msg.Fetch { lock; have } ->
      (* A cold chain may hold newer committed bytes for this lock than
         the checkpoint image; warm it before serving, so a peer's
         repair or lazy fetch never receives stale retained state. *)
      ensure_warm_lock t lock;
      let records = retained_after t ~lock ~have in
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
      if Obs.enabled t.obs then (
        match Obs.take_mark t.obs (fetch_mark_key t lock) with
        | Some rtt -> Obs.observe ~pid:t.id t.obs "fetch_rtt_us" rtt
        | None -> ());
      List.iter
        (fun iov ->
          let record = Wire.decode_iov iov in
          ensure_warm_record t record;
          receive_record t record)
        payloads
  | Msg.LowWater { applied } -> receive_low_water t ~src ~applied

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

  let check_acquirable t lock =
    if t.node.pinned then
      raise (Coherency_error "acquire on a version-pinned node");
    if List.mem lock t.held then
      raise (Coherency_error "lock already held by this transaction")

  let acquire t lock =
    check_acquirable t lock;
    let g = Lbc_locks.Table.acquire t.node.locks lock in
    finish_acquire t lock g

  let acquire_timeout t lock ~timeout =
    check_acquirable t lock;
    match Lbc_locks.Table.acquire_timeout t.node.locks lock ~timeout with
    | Some g ->
        finish_acquire t lock g;
        true
    | None -> false

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
    let mode =
      if node.config.Config.flush_on_commit then Lbc_rvm.Rvm.Flush
      else Lbc_rvm.Rvm.No_flush
    in
    (* Captured before the append: the record will land at or after this
       offset (concurrent committers may slip in during cost charging),
       so a retention mark here never trims the record itself. *)
    let log_off = Lbc_wal.Log.tail (Lbc_rvm.Rvm.log node.rvm) in
    let outcome = Lbc_rvm.Rvm.commit_full ~mode t.rvm_txn in
    let record = outcome.Lbc_rvm.Rvm.record in
    let wrote = Lbc_wal.Record.is_write record in
    if wrote then begin
      (* Our own updates are by definition applied locally. *)
      List.iter
        (fun l -> set_applied node l.Lbc_wal.Record.lock_id l.Lbc_wal.Record.seqno)
        record.Lbc_wal.Record.locks;
      if retains node then begin
        retain node record;
        if node.config.Config.disk_logging then
          track_unacked node ~offset:log_off record
            ~peers:(propagation_peers node record)
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
