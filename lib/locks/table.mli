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
    releases.  Both travel with the token.  A {!grant} carries the new
    sequence number and the previous write's sequence number — exactly the
    pair the coherency layer logs in lock records and uses for its apply
    ordering and acquire interlock.

    The table holds the token protocol and nothing else: it calls no
    engine and never blocks.  It emits messages through the [send]
    function given at creation and consumes incoming messages via
    {!handle}.  A caller that cannot be granted at once queues a handle
    of its own making with {!wait}; the table hands the grant to that
    handle through the [grant] callback, and the caller does the waiting
    (the coherency layer's [Node.Txn] parks a simulated process on it).
    So the protocol can be driven alone, over plain queues.  Locks are
    two-phase in intent: the caller acquires during the transaction and
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

val pp_msg : Format.formatter -> msg -> unit

exception Protocol_error of string

type 'w t
(** One node's table; ['w] is the caller's waiter handle. *)

val create :
  node:int ->
  nodes:int ->
  send:(dst:int -> msg -> unit) ->
  grant:('w -> grant -> unit) ->
  unit ->
  'w t
(** One table per node.  [send] must deliver [msg] to the same lock table
    on [dst] (via {!handle}), in send order per destination; it may block
    the calling process.  [grant] hands a queued handle its grant: the
    lock is then held for that handle. *)

val set_obs : 'w t -> Lbc_obs.Obs.t -> unit
(** Install a trace/metrics sink: token traffic becomes [token.pass]
    instants and [token_hops] / [token_requests] counters.  Defaults to
    [Obs.disabled]. *)

val handle : 'w t -> src:int -> msg -> unit
(** Feed an incoming lock message (called by the node's dispatcher). *)

val acquire : 'w t -> int -> grant option
(** Take the lock at once if the token is here, free, and no local
    handle waits for it; otherwise [None], and nothing is queued. *)

val wait : 'w t -> int -> 'w -> unit
(** Queue a handle for the lock, FIFO behind the local waiters, and
    request the token if it is elsewhere; for an {!acquire} that just
    answered [None].  The handle is granted, through the [grant]
    callback, at most once. *)

val cancel : 'w t -> int -> 'w -> unit
(** Withdraw a queued handle (compared physically); it will not be
    granted.  A no-op for a handle already granted.  A token requested on
    its behalf still arrives and is cached, or passed on. *)

val release : 'w t -> int -> wrote:bool -> unit
(** Release the lock; [wrote] records whether the holder's transaction
    modified data under the lock (it advances the last-write sequence
    number that receivers synchronize on). *)

val has_token : 'w t -> int -> bool

(** {1 Crash recovery}

    The lock service tolerates the crash of a node that manages no locks
    involved in the failure: after its lease expires, {!reclaim} rebuilds
    every lock's distributed state without it.  A crash of a lock's
    {e manager} is outside the fault model and leaves that lock broken.
    Each table carries a lease epoch; {!handle} discards messages stamped
    with another epoch. *)

val reclaim : 'w t array -> failed:int -> unit
(** Lease-expiry recovery, run by an omniscient recovery agent over the
    tables of {e all} nodes (it stands in for the survivor-side state
    exchange a real lease/epoch protocol would perform).  It sends, so it
    runs where [send] may.

    It (1) bumps the epoch on every table so in-flight lock traffic is
    fenced off (discarded on arrival), then — atomically with the fence,
    so no new traffic can race the surgery — per lock not managed by
    [failed]: splices [failed] out of
    the token-forwarding chain, rematerializes the token at the manager if
    it was lost with the failure (seeded with the highest sequence state
    any table recorded, the failed node's included — the fields are
    monotone, so that is what the lost token carried), repairs the
    manager's queue tail, and re-enqueues requesters whose request or
    forward was lost.  Waiting handles on surviving nodes are served in a
    possibly different order afterwards, but none are lost. *)

val rejoin_reset : 'w t -> unit
(** Reset a crashed node's table before it re-enters the protocol: local
    protocol state is cleared, queued handles (owned by killed processes)
    are dropped ungranted, and tokens it held are forgotten — the reclaim
    re-issued them.  Manager-side state of locks this node manages is
    kept. *)

type stats = {
  mutable local_grants : int;  (** acquires satisfied without communication *)
  mutable remote_grants : int;  (** acquires that waited for the token *)
  mutable requests_sent : int;
  mutable stale_msgs : int;
      (** messages discarded by the epoch fence after a reclaim *)
}

val stats : 'w t -> stats
