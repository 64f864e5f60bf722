(** A rejoining node's replay chains (paper Sections 3.4–3.5, replayed
    on demand as in Sauer & Härder's instant restart).

    A rejoin indexes its log's live tail once
    ({!Lbc_wal.Region_index.of_log}); each chain of that index is a set
    of records that touch disjoint locks and regions from every other
    chain, so it replays on its own.  This module owns what the node
    decides about them: which chain covers a lock or a region, each
    chain's Cold → Replaying → Warm state with the count of chains not
    yet warm, and the order a background drain takes them in.  It knows
    nothing of the engine or the log: the node reads a claimed chain's
    offsets, replays them, and reports the outcome with {!finish} or
    {!fail}.

    A key (lock or region) a chain covers is cold until that chain
    lands; a key no chain covers is never cold. *)

type t

type status = Cold | Replaying | Warm

val create : Lbc_wal.Region_index.chain list -> t
(** Every chain cold, numbered [0 ..] in list order: the order of
    {!Lbc_wal.Region_index.entries}, by first offset. *)

val chains : t -> int
(** The number of chains. *)

val cold : t -> int
(** Chains not yet {!Warm}. *)

val lock_chain : t -> int -> int option
val region_chain : t -> int -> int option
(** The chain covering a lock or a region, if the tail names it. *)

val status : t -> int -> status
val offsets : t -> int -> int list
(** A chain's records' log offsets, in log (= replay) order. *)

val claim : t -> int -> unit
(** Cold → Replaying: the caller now replays the chain.
    @raise Invalid_argument if the chain is not cold. *)

val finish : t -> int -> unit
(** Replaying → Warm, once its replay has applied every record.
    @raise Invalid_argument if the chain is not replaying. *)

val fail : t -> int -> unit
(** Replaying → Cold, when its replay raised: a later touch retries it.
    @raise Invalid_argument if the chain is not replaying. *)

val drain : t -> int list
(** Every chain, largest first (by record count), ties in first-offset
    order: the order the node's background drain replays them in.  It
    depends on the durable tail alone. *)

val largest_first : ('a -> int) -> 'a list -> 'a list
(** [largest_first size l] sorts [l] by [size], largest first, keeping
    the order of equal sizes: {!drain}'s order, and
    [Cluster.replay_streams OnDemand]'s. *)
