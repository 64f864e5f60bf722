(** What a node keeps for its peers: committed records a lazy or repair
    fetch may ask for (paper Section 2.2), and the log offsets of its own
    writes, below which Section 3.5's trimming must not cut.  It knows
    nothing of the engine or the log: the caller hands it records,
    offsets and gossip, and installs {!water} as the log's retention
    mark.

    One predicate decides both releases: has peer [p] reported
    [(lock, seq)] applied, in the applied tables peers gossip
    ([Msg.LowWater])?  The two releases ask it of different peer sets:
    - A kept record goes once every other node reports it.  Any node
      that acquires a lock may fetch its records, whether it maps the
      lock's regions or not.
    - An own write's offset goes once each peer it was sent to (those
      mapping one of its regions at commit) reports each of its locks.
      The log keeps it for the rebroadcast a rejoin sends those peers.

    The wider set has a cost: a node that never applies a lock's records
    pins them.  In repair mode with the region mapped by 2 of 3 nodes,
    node 0 keeps all 50 records it wrote after gossip, since the third
    node reports nothing, while its log water lifts.

    A commit's work does not depend on history: {!keep} and {!own} only
    cons, skipping whatever the gossip heard so far releases, and
    releases run only in {!heard}. *)

type t

val create : self:int -> nodes:int -> t
(** Nothing kept and nothing heard, for node [self] of [nodes]. *)

val keep : t -> Lbc_wal.Record.txn -> unit
(** Keep a committed record (own or applied) under each of its locks. *)

val after : t -> lock:int -> have:int -> Lbc_wal.Record.txn list
(** The kept records whose seqno for [lock] is above [have], oldest
    first: the answer to a fetch. *)

val own : t -> offset:int -> peers:int list -> Lbc_wal.Record.txn -> unit
(** Track an own write logged at [offset], sent to [peers]. *)

val heard : t -> peer:int -> (int * int) list -> unit
(** Fold in [peer]'s gossiped applied table ([(lock, seqno)] pairs; a
    table only rises), then release what it now covers. *)

val water : t -> int
(** The least offset of an unreleased own write, or [max_int]. *)

val count : t -> int
(** Kept records, counted once per lock. *)
