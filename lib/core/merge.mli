(** Merging per-node redo logs for recovery (paper Section 3.4).

    Each node produces its own log; when nodes share segments, the logs
    record interleaving updates to the same data, so before standard RVM
    recovery can run they must be merged into a single log.  Because
    transactions are strictly serializable under two-phase locking, it is
    sufficient to order transactions so that if two transactions acquired
    the same lock, the one with the smaller sequence number for that lock
    comes first; transactions from one node additionally stay in their log
    order.

    The algorithm is a two-pass topological merge: pass one indexes, for
    every lock, the sorted sequence numbers present anywhere; pass two
    repeatedly emits a log-head transaction all of whose lock sequence
    numbers are globally next-expected.  Input that cannot be ordered this
    way (which two-phase locking cannot produce) is reported as
    [Unorderable].  {!merge_records} and {!merge_logs_prefix} share that
    one emission loop; the full merge counts every prior write as
    covered. *)

type error =
  | Unorderable of string
      (** no head transaction is safe to emit: the logs are not the
          product of serializable execution (or are corrupt) *)

val merge_records :
  Lbc_wal.Record.txn list list ->
  (Lbc_wal.Record.txn list, error) result
(** Merge per-node transaction lists (each in log order). *)

val merge_logs :
  Lbc_wal.Log.t list -> (Lbc_wal.Record.txn list, error) result
(** Read every live record of each log (ignoring torn tails) and merge. *)

val partition : Lbc_wal.Record.txn list -> Lbc_wal.Record.txn list list
(** Split a merged stream into independent replay streams: transactions
    sharing a lock or a region — transitively — land in the same stream,
    so distinct streams touch disjoint regions under disjoint locks and
    may be replayed concurrently.  This is {!Lbc_wal.Region_index} over
    stream positions; transactions with neither share one catch-all
    stream.  Within a stream the input order is preserved; streams are
    returned in order of first appearance.  Partitioning the input of
    {!Lbc_rvm.Recovery.replay_records} this way is what makes parallel
    recovery sound. *)

type prefix = {
  ordered : Lbc_wal.Record.txn list;
      (** the maximal mergeable prefix, in replay order *)
  new_heads : int list;
      (** per input log: the offset just past its last merged record —
          the head to trim to once [ordered] is checkpointed *)
  leftover : int;  (** records that could not be ordered yet *)
}

val merge_logs_prefix :
  ?checkpointed:(int -> int) -> Lbc_wal.Log.t list -> prefix
(** Like {!merge_logs} but never fails: a record is emitted only when,
    for each of its locks, the previous write it depends on
    ([prev_write_seq]) has either been emitted in this merge or is
    already covered by an earlier checkpoint ([checkpointed lock],
    default 0).  Records whose predecessors are neither merged nor
    covered are left in place for the next round.  This
    is what makes the paper's Section 3.5 online trimming possible: "one
    node would checkpoint at a time, broadcasting to other nodes when
    done to inform them of their new log head". *)
