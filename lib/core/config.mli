(** Configuration of the log-based coherency system.

    The defaults correspond to the paper's prototype: optimized
    [set_range] coalescing, eager propagation at commit, compressed wire
    headers, disk logging on.  The benchmarks flip individual knobs to
    reproduce the ablations (standard RVM coalescing for Figure 8, disk
    logging off to isolate coherency costs, lazy propagation from
    Section 2.2). *)

type propagation =
  | Eager
      (** broadcast the committed log tail to every peer mapping a
          modified region, at commit (the prototype's policy) *)
  | Lazy
      (** retain committed records at the writer; a reader fetches pending
          records from the last writer when it acquires the lock
          (Section 2.2's alternative).  Records of multi-lock transactions
          are still broadcast eagerly, because a per-lock fetch cannot
          carry their cross-segment dependencies. *)

type t = {
  coalesce : Lbc_rvm.Range_tree.policy;
  disk_logging : bool;
  flush_on_commit : bool;
  range_header_size : int;  (** on-disk range header size *)
  log_mode : Lbc_wal.Command.log_mode;
      (** per-transaction record encoding: [Value] logs new-value ranges
          (the paper's RVM, the default), [Command] logs the declared
          operation instead, [Adaptive] picks the smaller encoding per
          commit.  Transactions that declare no command always log
          values. *)
  propagation : propagation;
  multicast : bool;
      (** deliver eager updates with one transmission instead of one
          writev per peer — the multicast hardware of Section 4.3.1 *)
  charge_costs : bool;
      (** charge the paper's measured operation costs (Table 2 /
          Figures 5-6) as virtual time; off for pure functional tests *)
  repair : bool;
      (** detect lost update records via sequence-number gaps and repair
          them by fetching from a peer (re-using the Lazy-mode fetch
          path); also makes every node retain applied records so it can
          serve such fetches.  Off by default: the paper assumes reliable
          transport, and repair retention changes memory behaviour. *)
  repair_timeout : float;
      (** virtual µs a node waits on a sequence-number gap before issuing
          a repair fetch *)
  repair_retries : int;
      (** repair fetch attempts (cycling over peers, with exponential
          backoff) before giving up; a gap that outlives all retries
          leaves the waiter blocked and is reported by the stranded-
          process check *)
  lease_timeout : float;
      (** virtual µs after a node crash before the lock managers reclaim
          the tokens it held (models lease expiry / epoch change) *)
  group_commit : bool;
      (** batch concurrent commits on the same node into one log write +
          one sync (group commit).  Takes effect only with
          [disk_logging] and [flush_on_commit]; committers park until
          their batch is durable. *)
  group_commit_max : int;
      (** records that close a batch by size *)
  group_commit_delay : float;
      (** virtual µs after a batch's first record before it is flushed
          regardless of size *)
  ckpt_slice_bytes : int;
      (** bytes per fuzzy-checkpoint flush slice; between slices the
          checkpointer yields so commits can interleave *)
  ckpt_slice_interval : float;
      (** virtual µs the checkpointer sleeps between flush slices *)
  ckpt_gossip_delay : float;
      (** virtual µs a fuzzy checkpoint waits after broadcasting
          low-water gossip, so peers' applied tables arrive before the
          retention mark is computed *)
  flight : bool;
      (** the flight recorder: every node keeps a fixed-size binary
          ring of spans, instants, flow arrows and counter deltas
          (lock-free, allocation-free, a few ns per event) plus the
          metrics registry.  The rings are auto-dumped to
          [flight-<ts>.bin] on strand/crash/oracle failures and on
          demand via [Cluster.dump_flight].  On by default; off, the
          instrumented hot paths pay a single branch per site and
          allocate nothing. *)
  flight_ring_bytes : int;
      (** bytes per node's flight ring (rounded up to a power of two,
          minimum 256).  The default keeps a node's last moments; a
          whole-run trace ([oo7-run --trace]) sizes it to the run. *)
}

val default : t

val measured : t
(** The configuration of the paper's Section 4 measurements: costs
    charged, disk logging {e disabled} ("we disabled RVM disk logging so
    that we could isolate the costs associated with coherency"). *)

val fault_tolerant : t
(** [default] with [repair = true]. *)
