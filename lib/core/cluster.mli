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
  ?backend:Platform.backend ->
  nodes:int ->
  unit ->
  t
(** Build a cluster.  On the sim the cost models follow
    [config.charge_costs]: the AN1 network, and the OSDI-94 disk profile
    when disk logging is on, when charging costs; free otherwise.
    [sched] selects the engine's same-time schedule policy (default
    stable FIFO); seeded policies explore alternative legal
    interleavings and record a replayable decision trace
    ({!schedule_decisions}).  [backend] (default {!Platform.Sim})
    selects the platform; [sched] is sim-only and raises
    [Invalid_argument] with a custom backend. *)

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

val run : ?until:Lbc_sim.Engine.time -> t -> unit
(** Drive the cluster until the spawned work completes.  Sim: drain the
    event queue; when it drains completely (no [until] cutoff) while
    some processes are still blocked — say on a receive whose message
    was dropped, or in a lock-wait cycle — the run did not end, it hung;
    raise {!Lbc_sim.Engine.Stranded} with one description per stuck
    process instead of returning as if all work completed.  The stuck
    processes stay in {!blocked}, so a caller expecting the hang can
    catch [Stranded] and inspect the wreckage.  Real: block until every
    spawned task finishes and the socket fabric is quiescent ([?until]
    raises {!Platform.Unsupported} — there is no virtual-time cutoff). *)

val now : t -> Lbc_sim.Engine.time
(** Virtual µs on sim, wall-clock µs since platform start on real. *)

val shutdown : t -> unit
(** Tear the platform down (join domains, close sockets and files on the
    real backend; no-op on sim). *)

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

val rejoin : t -> node:int -> unit
(** Bring a crashed node back, once its lease has expired and no
    {!checkpoint} is writing the database (raises [Invalid_argument]
    otherwise; callers retry): reconnects it, resets its lock
    table, reloads its regions from the database image and indexes its
    own durable log tail ({!Node.rejoin}).  The node serves at once: each
    indexed chain replays on first touch and a background drain replays
    the rest, and the first commit feeds the [time_to_first_commit_us]
    histogram.  Updates it missed while down are pulled in on demand
    through the acquire interlock (with [config.repair] for gap repair).
    New application work needs fresh {!spawn}s. *)

val is_crashed : t -> int -> bool

val fabric : t -> Lbc_util.Slice.t list Lbc_net.Fabric.t
(** The underlying fabric, for fault injection in tests
    ({!Lbc_net.Fabric.set_drop_filter}).  It carries {!Msg.encode}d
    bodies; a filter that picks by constructor runs {!Msg.decode}. *)

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
    into the region database devices, less those a checkpoint replayed
    (a trim clamped to a retention mark leaves them live).
    @raise Node.Coherency_error if the logs cannot be merged. *)

type replay_mode =
  | Serial  (** one replay process applies the whole merged stream *)
  | Partitioned
      (** one replay process per lock/region-disjoint stream
          ({!Merge.partition}); streams run concurrently *)
  | OnDemand
      (** like [Partitioned], but streams start largest first, the order
          of a rejoining node's drain ({!Rejoin.drain}), and the
          completion of the first stream feeds the
          [time_to_first_partition_us] histogram *)

val replay_streams :
  replay_mode -> Lbc_wal.Record.txn list -> Lbc_wal.Record.txn list list
(** The mode's shaping of a merged stream into replay streams: [Serial]
    one (none for an empty stream), [Partitioned] the partitions,
    [OnDemand] the partitions largest first ({!Rejoin.largest_first}). *)

val replay_sim :
  Lbc_sim.Engine.t ->
  db_for_region:(int -> Lbc_storage.Dev.t option) ->
  on_stream:(float -> unit) ->
  Lbc_wal.Record.txn list list ->
  Lbc_rvm.Recovery.outcome * float
(** The simulated replay shared by {!timed_recovery} and [lbc-recover]:
    replay each stream in its own simulated process ([recover-p<i>]),
    drive the engine until all are done, and return the summed outcome
    and the elapsed virtual µs.  Device time is charged, so the modes
    are comparable.  [on_stream] runs in each process as its stream
    finishes, with the virtual µs elapsed since the call. *)

val timed_recovery : t -> mode:replay_mode -> Lbc_rvm.Recovery.outcome * float
(** Like {!recover_database}, but the replay runs through {!replay_sim}
    on the cluster's engine; returns the outcome and the elapsed virtual
    µs.  The recovered images are byte-identical across modes —
    partitioning only changes wall-clock.  Each stream feeds the
    [recovery_us] histogram. *)

val checkpoint : t -> int
(** The one checkpoint: the paper's merge utility (Section 3.5), run
    while the cluster runs.  In order:
    + every live node gossips its applied table ([Msg.LowWater]), which
      lifts retention marks once it lands;
    + every log is forced, so the database receives only durable
      records;
    + the maximal orderable prefix of the merged logs
      ({!Merge.merge_logs_prefix}), less what an earlier checkpoint
      replayed, is replayed into the region database devices, and the
      per-lock checkpoint table advances past its writes;
    + each log trims to its merged head, clamped to its retention mark
      ({!Lbc_wal.Log.set_head}), so records a peer may still need
      survive.

    The database then holds exactly a replayed prefix, and the table
    describes it: {!rejoin} reloads that image with that table, and
    {!recover_database} skips what it replayed.  Records whose
    predecessors are in no log yet wait for the next round.  Returns
    the number of records replayed, none twice.  Called at a pause it
    takes no virtual time; inside a sim process its device writes are
    charged, and while it runs {!rejoin} and a second [checkpoint]
    raise [Invalid_argument].  Feeds the [ckpt_us] histogram and a
    [ckpt] instant carrying the records replayed. *)
