(** Replay-partition index over one log's live tail.

    The union-find closure of lock∪region conflict keys, with each
    connected component holding the ascending log offsets of its
    records.  [Lbc_core.Merge.partition] is this index over the
    positions of a merged record stream.  Chains from different
    components touch disjoint regions under disjoint locks and replay
    independently; within a chain, offset order is replay order.

    Nothing of it is persisted: a rejoining node rebuilds it from the
    live records with {!of_log}, in the one scan it makes of its log, so
    the chains are exactly the partition of the records the last trim
    left. *)

type t

type chain = {
  locks : int list;  (** the locks its records name, ascending *)
  regions : int list;  (** the regions its records touch, ascending *)
  offsets : int list;  (** the records' log offsets, ascending (= replay order) *)
}
(** Records that name no lock and touch no region (effect-free,
    lockless transactions) share one catch-all chain, which names
    neither. *)

val create : unit -> t

val add : t -> off:int -> Record.txn -> unit
(** Feed one committed record at its log offset; chains merge as shared
    keys appear.  Offsets must ascend past every offset already indexed
    (raises [Invalid_argument] otherwise). *)

val of_log : Log.t -> t * Log.scan_status
(** Index [log]'s live tail: one {!Log.fold} that {!add}s every record. *)

val entries : t -> chain list
(** Canonical form: chains with locks, regions and offsets ascending,
    ordered by first offset. *)

val chains : t -> int list list
(** Just the offset chains of {!entries}. *)
