(** Redo-log record format (write-ahead logging).

    One record per committed transaction, carrying:

    - {b lock records}: for every lock held by the transaction, its id, the
      sequence number stamped at acquire, and the sequence number of the
      previous {e writing} acquire of that lock.  These drive both the
      coherency receiver's ordering (Section 3.4 of the paper) and the
      offline merge of per-node logs before recovery.
    - {b new-value range records}: the modified byte ranges captured by
      [set_range], with their current (post-transaction) contents;
    - {e or}, instead of ranges, one {b command record}: the id of a
      registered deterministic operation plus its parameter blob and the
      regions it touches.  Replay re-executes the operation against the
      pre-state instead of blitting saved bytes — the adaptive
      value-vs-command choice of "Adaptive Logging for Distributed
      In-memory Databases".  The dependency edges are the same
      [prev_write_seq] chain value records use, so ordering, merge, and
      partitioning are encoding-agnostic.

    On disk each range carries a fixed-size header padded to CMU RVM's
    104 bytes, which is what makes the paper's compressed 4-24 byte
    {e wire} headers (module [Lbc_core.Wire]) worthwhile.  Each record
    stores its header size, and the decoder reads whatever size a record
    carries (at least {!min_header_size}).  The whole record
    is covered by a CRC-32 so that torn tails are detected and ignored by
    recovery.  A log holds these records and nothing else. *)

type lock_info = {
  lock_id : int;
  seqno : int;  (** sequence number stamped when this txn acquired the lock *)
  prev_write_seq : int;
      (** seqno of the previous committed writing transaction under this
          lock; 0 if none.  Receivers apply this record only once their
          applied seqno has reached this value. *)
}

type range = {
  region : int;  (** RVM region identifier *)
  offset : int;  (** byte offset within the region *)
  data : Bytes.t;  (** new value of the range *)
}

type cmd = {
  op : int;  (** registered operation id (see [Lbc_wal.Command]) *)
  params : Bytes.t;  (** opaque parameter blob the operation decodes *)
  cmd_regions : int list;
      (** regions the replayed operation reads or writes — the merge /
          partition / warm-up keys a value record derives from its
          ranges *)
}

type txn = {
  node : int;  (** writing node *)
  tid : int;  (** node-local transaction number, increasing per node *)
  locks : lock_info list;
  ranges : range list;  (** empty when [cmd] is present *)
  cmd : cmd option;
      (** command encoding of the transaction's effect; mutually
          exclusive with [ranges] *)
}

val rvm_disk_header_size : int
(** 104 — the standard RVM range-header size the paper compresses from. *)

val min_header_size : int
(** Smallest range-header size the decoder accepts (the unpadded fixed
    fields). *)

val encoded_size : txn -> int
(** Exact on-disk size of [encode t]. *)

val encode : txn -> Bytes.t
(** Serialize one record, with {!rvm_disk_header_size}-byte range
    headers. *)

val encode_into : Lbc_util.Codec.writer -> txn -> unit
(** Append the record's encoding to [w] in a single pass — the
    total-length field is patched in place and the CRC is computed over
    the arena directly, so nothing is materialized.  Appending after
    bytes already in the writer is fine (group commit batches records
    this way); the output is byte-identical to {!encode}. *)

type decode_result =
  | Txn of txn * int  (** decoded record and offset just past it *)
  | End  (** clean end of log: zero fill or end of data *)
  | Torn of string  (** partial or corrupt record (reason) *)

val decode : Bytes.t -> pos:int -> decode_result
(** Decode the record starting at [pos].  Bytes with any other magic
    than a value or command record's are [Torn] (or [End] when all
    zero). *)

val decode_slice : Lbc_util.Slice.t -> pos:int -> decode_result
(** Like {!decode} but over a window (log scans use bounded device
    views); positions, including the [Txn] continuation offset, are
    relative to the window.  A record running past the window decodes as
    [Torn "truncated record"] — the scanner refills and retries. *)

val ranges_bytes : txn -> int
(** Total payload bytes across the record's ranges (0 for a command
    record — its redo state is the operation, not bytes). *)

val is_write : txn -> bool
(** Whether the record advances its locks' write chains: it carries
    new-value ranges or a command.  Read-only acquires are not writes. *)

val regions : txn -> int list
(** The regions the record touches, deduplicated and sorted: the ranges'
    regions for a value record, [cmd_regions] for a command record.
    These are the keys for merge partitioning, update propagation, and
    on-demand warm-up.  Ranges in region order (as a commit builds them)
    are read in one pass; only out-of-order ones are sorted. *)

val sort_ranges : range list -> range list
(** The ranges in (region, offset) order, stably sorted.  One linear pass
    checks the order first, and input already in order — every record a
    commit builds — comes back as the same list, unsorted.  Records read
    from logs, fetched from peers or built by tests may be in any order. *)

val equal_txn : txn -> txn -> bool
val pp_txn : Format.formatter -> txn -> unit
