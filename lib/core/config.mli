(** Configuration of the log-based coherency system.

    The defaults correspond to the paper's prototype: eager propagation
    at commit, compressed wire headers, disk logging on.  [set_range]
    always coalesces with the prototype's optimized policy
    ({!Lbc_rvm.Range_tree}) and logs 104-byte RVM range headers, and
    with disk logging on every commit forces its record to the log
    before it returns (alone, or in its group-commit batch).  The
    benchmarks flip individual knobs to reproduce the ablations (disk
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
  disk_logging : bool;
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
          serve such fetches.  A node waits 100 virtual µs on a gap
          before its first repair fetch, then makes up to 8 attempts,
          cycling over peers with doubling backoff; a gap that outlives
          them leaves the waiter blocked for the stranded-process check
          to report.  Off by default: the paper assumes reliable
          transport, and repair retention changes memory behaviour. *)
  lease_timeout : float;
      (** virtual µs after a node crash before the lock managers reclaim
          the tokens it held (models lease expiry / epoch change) *)
  group_commit : bool;
      (** batch concurrent commits on the same node into one log write +
          one sync (group commit), with {!Lbc_wal.Log.enable_group_commit}'s
          defaults: a batch closes at 8 records or 100 virtual µs after
          its first record.  Takes effect only with [disk_logging];
          committers park until their batch is durable. *)
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
