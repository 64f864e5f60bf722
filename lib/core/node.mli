(** One client node of the log-based coherency system.

    A node owns an RVM instance, a distributed lock table, the per-lock
    applied-sequence-number table that orders incoming updates, and the
    buffer of records that arrived before their predecessors (Section 3.4:
    "receiver threads hold log records until the updates for the
    immediately preceding sequence number have been applied").

    Applications use the {!Txn} sub-module, which mirrors the paper's
    Table 1 interface: acquire segment locks inside a transaction, declare
    modified ranges, commit.  Commit writes the redo record (via RVM),
    releases the locks (two-phase), and propagates the committed log tail
    to the peers that share the modified regions.

    Sequence-number protocol (refined from the paper to tolerate read-only
    acquires, see DESIGN.md): every acquire increments the lock's sequence
    number; the token carries the sequence number of the last {e writing}
    acquire, and each record carries, per lock, the previous writing
    acquire's number.  A record is applied once the local applied number
    reaches its [prev_write_seq]; an acquire proceeds once the local
    applied number reaches the token's last-write number. *)

type t

type deps = {
  node_id : int;
  nodes : int;  (** cluster size *)
  config : Config.t;
  engine : Lbc_sim.Engine.t;
      (** used to schedule the loss-repair watchdog *)
  send : dst:int -> Msg.t -> unit;
  multicast_send : dsts:int list -> Msg.t -> unit;
      (** one-transmission delivery to several peers (used when
          [config.multicast] is set) *)
  send_update : dst:int -> Lbc_util.Slice.t list -> unit;
      (** transmit [Msg.Update iov] with the fabric's gather-list
          framing: the committed log tail reaches the channel by
          reference, never concatenated *)
  multicast_update : dsts:int list -> Lbc_util.Slice.t list -> unit;
      (** gather-list counterpart of [multicast_send] *)
  peers_with_region : int -> int list;
      (** nodes (other than this one) currently mapping a region — the
          eager propagation set *)
  log_dev : Lbc_storage.Dev.t;
  obs : Lbc_obs.Obs.t;
      (** trace/metrics sink shared by the cluster ([Obs.disabled] when
          the flight recorder is off).  [create] also installs it into
          the node's lock table and log.  Transactions become [txn] /
          [commit] / [interlock] spans feeding [commit_us] /
          [interlock_us],
          broadcasts start a flow arrow per [(lock, seqno)], received
          records become [apply] spans (ending those arrows and feeding
          [apply_lag_us]) or [hold] instants, and fetch round trips
          feed [fetch_rtt_us]. *)
}

val create : deps -> t
val id : t -> int
val rvm : t -> Lbc_rvm.Rvm.t
val locks : t -> Lbc_locks.Table.t
val config : t -> Config.t

val handle : t -> src:int -> Msg.t -> unit
(** Feed one incoming message (called by the cluster's dispatchers). *)

val map_region : t -> id:int -> db:Lbc_storage.Dev.t -> size:int -> Lbc_rvm.Region.t

val applied_seq : t -> int -> int
(** Sequence number of the last write applied locally under a lock. *)

val pending_count : t -> int
(** Records held waiting for their predecessors. *)

val read : t -> region:int -> offset:int -> len:int -> Bytes.t
val get_u64 : t -> region:int -> offset:int -> int64
(** Direct reads of the cached image (the caller must hold the relevant
    lock, as the paper requires — this is not enforced, exactly as in the
    prototype). *)

val mem :
  t -> region:int -> declare:(offset:int -> len:int -> unit) -> Lbc_util.Mem.t
(** The shared accessor over the cached image of [region]
    ({!Lbc_rvm.Region.mem}): stores run [declare], then mark the region
    dirty.  The on-demand serving gate is checked here, once — the
    accessor's reads and stores go straight to the image. *)

type stats = {
  mutable updates_sent : int;  (** coherency messages broadcast (per peer) *)
  mutable update_bytes_sent : int;
  mutable records_received : int;
  mutable records_held : int;  (** arrived out of order and were buffered *)
  mutable interlock_waits : int;  (** acquires that waited for updates *)
  mutable fetches_sent : int;  (** lazy-mode fetch requests *)
  mutable records_fetched : int;
  mutable repair_fetches : int;
      (** fetches issued by the loss-repair watchdog ([config.repair]) *)
}

val stats : t -> stats

(** {1 Version-pinned readers (paper Section 2.1's [accept] primitive)}

    The paper sketches a relaxed read/write model in which "readers
    operate on a previous consistent version of the data while an update
    is in progress elsewhere; readers use an accept primitive to
    explicitly signal their willingness to move forward to a newer
    consistent version.  In this scheme, pending log records must be
    buffered in the recipient until they can be applied." *)

val pin : t -> unit
(** Freeze this node's cached version: incoming records are buffered
    instead of applied.  Transactions on a pinned node must be read-only
    and must not acquire locks (the interlock would deadlock);
    {!Txn.acquire} raises while pinned. *)

val accept : t -> unit
(** Move forward: apply every buffered record (in order) and resume
    normal eager application. *)

val is_pinned : t -> bool

val retained_count : t -> int
(** Records retained for lazy propagation. *)

val gc_retained : t -> unit
(** Drop all retained records (after a checkpoint has made them
    recoverable from the database image). *)

(** {1 Low-water gossip and repair retention}

    With [config.repair] (or lazy propagation) a node's log must keep
    every own committed write some peer might still need re-sent; the
    offset of the oldest such write is installed as the log's retention
    low-water mark, which {!Lbc_wal.Log.set_head} clamps to.  A write is
    released once every propagation peer has gossiped ([Msg.LowWater])
    an applied sequence number at or past it. *)

val unacked_count : t -> int
(** Own committed writes not yet known applied by every peer. *)

val gossip_low_water : t -> unit
(** Send this node's applied table to every peer (costs wire time — call
    from process context). *)

val update_retention : t -> unit
(** Recompute the retention mark from the gossip received so far and
    prune retained records every peer has applied. *)

val clear_retention : t -> unit
(** Drop all retention state and lift the log's retention mark — only
    sound when ground truth says no peer can fetch again (a distributed
    checkpoint followed by {!resync}). *)

val resync : t -> applied:(int * int) list -> unit
(** Post-checkpoint resynchronization: reload every mapped region from
    its database device, set the per-lock applied sequence numbers to the
    checkpointed values, and drop retained records and held state.  Only
    valid when the node is quiescent (no transaction in progress, nothing
    pending). *)

type rejoin_mode =
  | Replay_all  (** replay the whole surviving tail before serving *)
  | On_demand
      (** index the tail and serve immediately; chains replay on first
          touch, a background drain walks the rest hottest-lock-first *)

val rejoin : ?mode:rejoin_mode -> t -> applied:(int * int) list -> unit
(** Bring a crashed node back into the cluster (called by
    [Cluster.rejoin] after its lock table has been reset).  All volatile
    state is rebuilt from what survives a crash: regions reload from the
    database image, [applied] is the per-lock sequence state of the last
    checkpoint, and the node's own durable log tail is replayed — then
    rebroadcast to the peers, healing commits the crash cut off between
    logging and propagation (receivers discard duplicates).  Updates
    committed elsewhere since the checkpoint are re-fetched on demand via
    the acquire interlock and, with [config.repair], the gap watchdog.

    With [~mode:Replay_all] (the default) the replay is {e partitioned}:
    the surviving tail is split by lock/region closure
    ({!Merge.partition}) and the independent streams run as concurrent
    simulated processes, each feeding the [recovery_us] histogram; the
    rebroadcast waits for all of them.  Retention state is rebuilt
    conservatively: every own write still in the log is treated as
    unacked until fresh gossip arrives.

    With [~mode:On_demand] nothing is replayed up front: the tail is
    indexed by replay chain (seeded by the newest persisted
    {!Lbc_wal.Record.Region_index} control record, extended by scanning
    only the records appended after it) and the node serves immediately.
    The first local access, lock acquire, coherency apply, or peer fetch
    that touches a cold chain replays exactly that chain first; a
    background process drains the remaining chains hottest-lock-first
    (by the lock table's [lock_acquires:<id>] counters) and then
    performs the rebroadcast.  Until every chain is warm, log retention
    is pinned at the head.  The recovered image is byte-identical to a
    serial replay; only the schedule differs. *)

val recovering : t -> bool
(** True while an [On_demand] rejoin still has cold replay chains. *)

exception Coherency_error of string

(** {1 The application interface (paper Table 1)} *)

module Txn : sig
  type node = t
  type t

  val begin_ : node -> t
  (** [Trans.Init] + [Trans.Begin]. *)

  val acquire : t -> int -> unit
  (** [Trans.Acquire]: take the segment lock (two-phase; released at
      commit), wait until every update it covers has been applied locally,
      and tag the transaction's log record with the lock's sequence
      numbers. *)

  val acquire_timeout : t -> int -> timeout:float -> bool
  (** Like {!acquire} but gives up after [timeout] µs of virtual time and
      returns [false]; the caller should then {!abort} and retry —
      two-phase locking's standard deadlock recovery. *)

  val set_range : t -> region:int -> offset:int -> len:int -> unit
  (** [Trans.SetRange]. *)

  val write : t -> region:int -> offset:int -> Bytes.t -> unit
  val set_u64 : t -> region:int -> offset:int -> int64 -> unit

  val read : t -> region:int -> offset:int -> len:int -> Bytes.t
  val get_u64 : t -> region:int -> offset:int -> int64

  val mem : t -> region:int -> Lbc_util.Mem.t
  (** The transaction's accessor to [region] ({!Lbc_rvm.Rvm.mem}): every
      store first declares its [set_range].  Passes the serving gate
      once, like the node's own accessor. *)

  val set_command : t -> op:int -> params:Bytes.t -> regions:int list -> unit
  (** Declare the transaction's effect as one registered deterministic
      operation, making it eligible for command encoding at commit when
      [config.log_mode] selects it (see {!Lbc_rvm.Rvm.set_command}). *)

  val commit : t -> unit
  (** [Trans.Commit]: write the redo record, release all locks, propagate
      the committed log tail. *)

  val commit_record : t -> Lbc_wal.Record.txn
  (** Like {!commit}, returning the committed record (for instrumentation
      and benchmarks). *)

  val commit_outcome : t -> Lbc_rvm.Rvm.commit_outcome
  (** Like {!commit_record}, also returning the value-record equivalent
      — the paper's Table 3 byte/page accounting is defined over the
      value form whatever encoding was logged. *)

  val abort : t -> unit
  (** Undo the transaction's stores and release its locks.  The
      transaction must have been started with restore mode (it is). *)
end
