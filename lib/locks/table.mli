(** Distributed token-based locks (paper Section 3.3).

    Each lock has a {e manager} node determined from the lock identifier
    ([lock_id mod nodes]) and a token that always has exactly one owner.
    The owner acquires and re-acquires the lock without communication and
    holds the token until asked to pass it on.  Non-owners send a request
    to the manager, which maintains a distributed waiter queue: it appends
    the requester to the queue tail and forwards the request to the
    previous tail, which passes the token when it releases the lock.

    Each lock carries a {e sequence number} incremented on every acquire,
    and a {e last-write sequence number} updated when a writing holder
    releases.  Both travel with the token.  An {!acquire} returns the new
    sequence number and the previous write's sequence number — exactly the
    pair the coherency layer logs in lock records and uses for its apply
    ordering and acquire interlock.

    The table is transport-agnostic: it emits messages through the [send]
    function given at creation and consumes incoming messages via
    {!handle}.  Locks are two-phase in intent: the caller (the coherency
    layer's transaction wrapper) acquires during the transaction and
    releases everything at commit. *)

type grant = {
  seqno : int;  (** sequence number stamped on this acquire (starts at 1) *)
  prev_write_seq : int;
      (** sequence number of the last writing acquire before this one;
          0 if the lock was never write-held *)
  last_writer : int;
      (** node that performed that last writing acquire; -1 if none.
          Lazy propagation fetches pending log records from this node. *)
}

type msg =
  | Request of { epoch : int; lock : int; requester : int }
      (** to the lock's manager *)
  | Forward of { epoch : int; lock : int; requester : int }
      (** manager to queue tail *)
  | Token of {
      epoch : int;
      lock : int;
      seqno : int;
      last_write_seq : int;
      last_writer : int;
    }  (** ownership transfer to a requester *)

val msg_size : msg -> int
(** Nominal wire size in bytes, for traffic accounting. *)

val pp_msg : Format.formatter -> msg -> unit

exception Protocol_error of string

type t

val create : node:int -> nodes:int -> send:(dst:int -> msg -> unit) -> unit -> t
(** One table per node.  [send] must deliver [msg] to the same lock table
    on [dst] (via {!handle}); it may block the calling process. *)

val set_obs : t -> Lbc_obs.Obs.t -> unit
(** Install a trace/metrics sink: queued acquisitions become
    [lock.wait] spans feeding the [lock_wait_us] histogram (fast local
    grants observe 0), token traffic becomes [token.pass] instants and
    [token_hops] / [token_requests] counters.  Defaults to
    [Obs.disabled]. *)

val node : t -> int
val manager_of : t -> int -> int
(** The manager node of a lock id. *)

val handle : t -> src:int -> msg -> unit
(** Feed an incoming lock message (called by the node's dispatcher). *)

val heat_key : int -> string
(** Obs counter key counting this node's acquires of one lock
    ([lock_acquires:<id>], bumped by {!acquire}/{!acquire_timeout} when
    the sink is live).  An on-demand rejoin drains its cold replay chains
    hottest-lock-first by reading these back. *)

val acquire : t -> int -> grant
(** Block until the lock is held by this node.  Re-entrant acquisition by
    a second local process queues FIFO behind the current holder. *)

val acquire_timeout : t -> int -> timeout:float -> grant option
(** Like {!acquire} but gives up after [timeout] µs of virtual time,
    returning [None].  Two-phase locking can deadlock (the paper assumes
    applications avoid it); timeouts let a transaction abort and retry
    instead.  A token that arrives after the timeout is simply cached. *)

val release : t -> int -> wrote:bool -> unit
(** Release the lock; [wrote] records whether the holder's transaction
    modified data under the lock (it advances the last-write sequence
    number that receivers synchronize on). *)

val held : t -> int -> bool
(** Is the lock currently held by a local process? *)

val has_token : t -> int -> bool

val epoch : t -> int
(** Current lease epoch.  Messages stamped with an older epoch are
    discarded by {!handle}; {!reclaim} advances it on every table. *)

(** {1 Crash recovery}

    The lock service tolerates the crash of a node that manages no locks
    involved in the failure: after its lease expires, {!reclaim} rebuilds
    every lock's distributed state without it.  A crash of a lock's
    {e manager} is outside the fault model and leaves that lock broken. *)

val reclaim : t array -> failed:int -> unit
(** Lease-expiry recovery, run by an omniscient recovery agent over the
    tables of {e all} nodes (it stands in for the survivor-side state
    exchange a real lease/epoch protocol would perform).  Must be called
    from a simulated process.

    It (1) bumps the epoch on every table so in-flight lock traffic is
    fenced off (discarded on arrival), then — atomically with the fence,
    so no new traffic can race the surgery — per lock not managed by
    [failed]: splices [failed] out of
    the token-forwarding chain, rematerializes the token at the manager if
    it was lost with the failure (seeded with the highest sequence state
    any surviving table recorded — the fields are monotone, so that is
    what the lost token carried), repairs the manager's queue tail, and
    re-enqueues requesters whose request or forward was lost.  Waiting
    acquires on surviving nodes are served in a possibly different order
    afterwards, but none are lost. *)

val rejoin_reset : t -> unit
(** Reset a crashed node's table before it re-enters the protocol: local
    protocol state is cleared, waiters (owned by killed processes) are
    discarded, and tokens it held are forgotten — the reclaim re-issued
    them.  Manager-side state of locks this node manages is kept. *)

type stats = {
  mutable local_grants : int;  (** acquires satisfied without communication *)
  mutable remote_grants : int;  (** acquires that waited for the token *)
  mutable tokens_passed : int;
  mutable requests_sent : int;
  mutable stale_msgs : int;
      (** messages discarded by the epoch fence after a reclaim *)
}

val stats : t -> stats
