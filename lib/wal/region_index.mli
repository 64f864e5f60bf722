(** Replay-partition index over one log's live tail.

    The union-find closure of lock∪region conflict keys, with each
    connected component holding the ascending log offsets of its
    records.  [Lbc_core.Merge.partition] is this index over the
    positions of a merged record stream.  Chains from different components touch
    disjoint regions under disjoint locks and replay independently;
    within a chain, offset order is replay order.

    Persisted as a {!Record.Region_index} control record over each log
    tail a checkpoint's trim leaves, and extended incrementally at
    attach time,
    so a rejoining node starts serving on demand without re-partitioning
    the tail it already checkpointed. *)

type key = Lock of int | Region of int

val tag : key -> int
(** Non-negative varint-safe encoding: locks even (the keyless catch-all
    [Lock (-1)] is 0), regions odd. *)

val untag : int -> key

type t

val create : unit -> t

val add : t -> off:int -> Record.txn -> unit
(** Feed one committed record at its log offset; chains merge as shared
    keys appear.  Offsets must ascend past every offset already indexed
    (raises [Invalid_argument] otherwise). *)

val of_entries : Record.index_entry list -> t
(** Rebuild from a persisted {!Record.Region_index} payload. *)

val of_log : Log.t -> t * Log.scan_status
(** Index [log]'s live tail: seed from the newest persisted
    [Region_index] control record (if any), drop offsets the head has
    passed, and extend with every record appended after it. *)

val drop_below : t -> head:int -> unit
(** Forget offsets below a trimmed head.  Chain structure contributed by
    trimmed records is kept: a coarser partition is conservative. *)

val entries : t -> Record.index_entry list
(** Canonical form: live chains (≥ 1 record) with keys sorted ascending,
    offsets ascending, ordered by first offset. *)

val chains : t -> int list list
(** Just the offset chains of {!entries}. *)

val to_ctrl : t -> node:int -> ckpt_id:int -> Record.ctrl
(** Package as a control record for {!Log.append_ctrl}. *)

