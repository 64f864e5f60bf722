(** Assembly of a whole system: a network fabric, a storage service
    holding the database file and one log device per node (the paper's
    central NFS server), and N coherency nodes with their message
    dispatchers — all built on a {!Platform} backend.

    The default backend is the deterministic simulation; pass
    [~backend:(Platform.Custom Lbc_real.Backend.factory)] to run each
    node as an OCaml 5 domain with a socket fabric and real files.

    Usage pattern:
    {[
      let c = Cluster.create ~nodes:2 () in
      Cluster.add_region c ~id:0 ~size:65536;
      Cluster.map_region_all c ~region:0;
      Cluster.spawn c ~node:0 (fun node -> ... transactions ...);
      Cluster.run c
    ]} *)

type t

val create :
  ?config:Config.t ->
  ?sched:Lbc_sim.Schedule.policy ->
  ?net_params:Lbc_net.Params.t ->
  ?disk:Lbc_storage.Latency.t ->
  ?backend:Platform.backend ->
  nodes:int ->
  unit ->
  t
(** Build a cluster.  When [net_params]/[disk] are omitted they follow
    [config.charge_costs]: AN1 network and the OSDI-94 disk profile when
    charging costs, free otherwise.  [sched] selects the engine's
    same-time schedule policy (default stable FIFO); seeded policies
    explore alternative legal interleavings and record a replayable
    decision trace ({!schedule_decisions}).  [backend] (default
    {!Platform.Sim}) selects the platform; [sched]/[net_params]/[disk]
    are sim-only and raise [Invalid_argument] with a custom backend. *)

val backend_name : t -> string
(** ["sim"] or the custom platform's name (e.g. ["real"]). *)

val deterministic : t -> bool

val engine : t -> Lbc_sim.Engine.t
(** Sim-only (raises {!Platform.Unsupported} otherwise), like {!store}
    and {!fabric}: on the real backend each node has a private engine
    and there is no global one. *)

val config : t -> Config.t
val store : t -> Lbc_storage.Store.t
val size : t -> int
(** Number of nodes. *)

val node : t -> int -> Node.t

val add_region : t -> id:int -> size:int -> unit
(** Create the region's database device on the storage service. *)

val region_dev : t -> int -> Lbc_storage.Dev.t
val region_size : t -> int -> int

val map_region : t -> node:int -> region:int -> Lbc_rvm.Region.t
(** Map the region on one node (reads the database image) and register the
    node in the propagation directory. *)

val map_region_all : t -> region:int -> unit

val spawn : t -> node:int -> (Node.t -> unit) -> unit
(** Start an application process on a node.  The process dies with its
    node: if the node crashes, the process is killed at its next
    scheduling point. *)

val run : ?until:Lbc_sim.Engine.time -> ?check_stranded:bool -> t -> unit
(** Drive the cluster until the spawned work completes.  Sim: drain the
    event queue; when it drains completely (no [until] cutoff) while
    some processes are still blocked — say on a receive whose message
    was dropped, or in a lock-wait cycle — the run did not end, it hung;
    raise {!Lbc_sim.Engine.Stranded} with one description per stuck
    process instead of returning as if all work completed.  Pass
    [~check_stranded:false] to opt out (e.g. to inspect the wreckage of
    an expected hang with {!blocked}).  Real: block until every spawned
    task finishes and the socket fabric is quiescent ([?until] raises
    {!Platform.Unsupported} — there is no virtual-time cutoff). *)

val now : t -> Lbc_sim.Engine.time
(** Virtual µs on sim, wall-clock µs since platform start on real. *)

val shutdown : t -> unit
(** Tear the platform down (join domains, close sockets and files on the
    real backend; no-op on sim). *)

val schedule_policy : t -> Lbc_sim.Schedule.policy

val schedule_decisions : t -> int list
(** The engine's recorded schedule trace: one chosen index per ripe set
    with two or more same-time events.  Feed it back through
    [~sched:(Replay ...)] for a byte-exact re-run. *)

val schedule_choice_points : t -> int

val obs : t -> Lbc_obs.Obs.t
(** The cluster's trace/metrics sink, shared by every node, lock
    table, log and the fabric: per-node flight rings of
    [config.flight_ring_bytes] plus the metrics registry.
    [Obs.disabled] when [config.flight] is off. *)

val dump_flight : ?path:string -> t -> string
(** Write every node's flight ring to an LBCF binary file (decode with
    [lbc-trace]) and return its path.  [path] defaults to
    [flight-<ts>-<seq>.bin] in the working directory.  Raises
    [Invalid_argument] when the flight recorder is off
    ([Config.flight]).  Called automatically — best-effort, never
    masking the original exception — when a run fails:
    {!Lbc_sim.Engine.Stranded}, crash-path assertion failures, or any
    exception escaping {!run}. *)

val last_flight : t -> string option
(** The most recent flight dump this cluster wrote (explicit or
    automatic). *)

val last_flight_dump : unit -> string option
(** Process-wide: the most recent flight dump any cluster wrote.  For
    failure reporters (chaos repro lines, explore counterexamples)
    that catch the exception without a cluster handle in scope. *)

val blocked : t -> string list
(** Descriptions of the application processes currently blocked (waiting
    for a message, an update, or a lock).  Empty for a quiescent,
    completed cluster. *)

(** {1 Faults} *)

val crash : t -> node:int -> unit
(** Take a node down mid-flight: its processes are killed at their next
    scheduling point (tearing any transaction in progress — committed
    work is durable in its log, uncommitted work vanishes), its network
    traffic is cut, and queued inbound messages are lost.  After
    [config.lease_timeout] virtual µs the lock service reclaims the
    tokens the node held ({!Lbc_locks.Table.reclaim}), unblocking
    survivors that were queued behind it. *)

val rejoin : ?mode:Node.rejoin_mode -> t -> node:int -> unit
(** Bring a crashed node back, once its lease has expired (raises
    [Invalid_argument] before that): reconnects it, resets its lock
    table, reloads its regions from the database image and replays its
    own durable log tail.  Updates it missed while down are pulled in on
    demand through the acquire interlock (with [config.repair] for
    gap repair).  New application work needs fresh {!spawn}s.

    [mode] (default {!Node.Replay_all}) selects the replay strategy; see
    {!Node.rejoin}.  With [~mode:Node.On_demand] the node serves
    immediately and replays each indexed chain on first touch, feeding
    the [time_to_first_commit_us] histogram. *)

val is_crashed : t -> int -> bool

val fabric : t -> Msg.t Lbc_net.Fabric.t
(** The underlying fabric, for fault injection in tests
    ({!Lbc_net.Fabric.set_drop}, {!Lbc_net.Fabric.set_drop_filter}). *)

(** {1 Traffic} *)

val total_messages : t -> int
val total_bytes : t -> int

val total_dropped : t -> int
(** Messages lost to fault injection (dropped channels, down nodes). *)

(** {1 Distributed recovery and trimming} *)

val merged_records : t -> (Lbc_wal.Record.txn list, Merge.error) result
(** Merge every node's log in lock-sequence order (the paper's merge
    utility). *)

val recover_database : t -> Lbc_rvm.Recovery.outcome
(** Server-side recovery: merge all logs and replay the committed records
    into the region database devices.
    @raise Node.Coherency_error if the logs cannot be merged. *)

type replay_mode =
  | Serial  (** one replay process applies the whole merged stream *)
  | Partitioned
      (** one replay process per lock/region-disjoint stream
          ({!Merge.partition}); streams run concurrently *)
  | OnDemand
      (** like [Partitioned], but streams start in priority order
          (largest first) and the completion of the first stream feeds
          the [time_to_first_partition_us] histogram — the server-side
          analogue of a serving node's on-demand drain *)

val timed_recovery : t -> mode:replay_mode -> Lbc_rvm.Recovery.outcome * float
(** Like {!recover_database}, but the replay runs in simulated processes
    (driving the engine until done) so device time is charged; returns
    the outcome and the elapsed virtual µs.  The recovered images are
    byte-identical across modes — partitioning only changes wall-clock.
    Each stream feeds the [recovery_us] histogram. *)

val fuzzy_checkpoint : t -> node:int -> unit
(** Start an incremental (fuzzy) checkpoint of node [node]'s log, running
    concurrently with application work: live peers gossip their applied
    tables ([Msg.LowWater]), and after [config.ckpt_gossip_delay] the node
    runs {!Lbc_rvm.Rvm.fuzzy_checkpoint} with [config.ckpt_slice_bytes]
    slices, sleeping [config.ckpt_slice_interval] between slices.  The
    final trim is clamped to the repair-retention mark.  The checkpointer
    dies with the node on a crash (leaving the log untrimmed — recovery
    then replays from the previous checkpoint). *)

val checkpoint : t -> unit
(** Offline distributed log trimming (paper Section 3.5): requires a
    quiescent cluster (no pending records); merges the logs, replays them
    into the database devices, trims every node's log, and releases
    lazily-retained records.
    @raise Node.Coherency_error if some node still has pending records. *)

val online_checkpoint : t -> int
(** Incremental trimming that tolerates a running cluster: merge the
    maximal orderable prefix of all logs, replay it into the database
    devices (synchronously — write-ahead discipline), and advance each
    log's head past its merged records.  Records whose predecessors are
    not yet in any log are left for the next round.  Returns the number
    of records checkpointed.  This realizes the coordinated online
    trimming the paper sketches in Section 3.5. *)
