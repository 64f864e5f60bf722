(** The coherency receiver (paper Section 3.4): applies each arriving
    record once, in lock-sequence order.

    It owns the per-lock applied table, the duplicate rule, the hold
    table and a version-pinned reader's buffer, and knows nothing of the
    engine: the caller lands a record's bytes ([apply]) and hears when
    its writes count as applied ([landed]).

    A record is a duplicate, and is dropped, once some lock's applied
    seqno has reached the record's seqno for it, or while another copy
    of it is still applying.  It is ready once every lock's applied
    seqno has reached the record's [prev_write_seq] for it.  Otherwise
    it is held under [(lock, prev_write_seq)] of the first lock it
    lacks: the one write whose landing offers it again.

    Three rules keep this correct:
    - A record's writes are marked applied only after its apply lands.
      A charged apply sleeps, and an interlocked acquire must not get
      past before the bytes land.  Meanwhile its (lock, seqno) pairs
      sit in a set of their own, apart from the applied table the
      interlock reads, so a second copy offered by another dispatcher
      is a duplicate; they leave it when the apply lands or raises.
    - A woken key's records leave the table before any of them is
      offered, and each is judged when it is offered.  An apply can
      suspend and let another dispatcher's {!receive} run in the middle
      of a wake.
    - An exact-key wake is enough.  {!applied_seq} moves only through an
      applied record, an own commit (the interlock orders it after every
      earlier write on the lock, so nothing is held under it), or the
      checkpoint state a rejoin seeds while nothing is held: the
      receiver stays pinned from before its reload (a charged reload
      sleeps) until the state is seeded, so nothing that arrives
      meanwhile is held under a write the seeding jumps past. *)

type t

val create : unit -> t

val applied_seq : t -> int -> int
(** Seqno of the last write applied under a lock (0 if none). *)

val set_applied : t -> int -> int -> unit
(** [set_applied t lock seq] raises the lock's applied seqno to [seq]
    (never lowers it): an own commit, or checkpoint state seeded while
    pinned (rule 3). *)

val applied : t -> (int * int) list
(** The applied table as [(lock, seqno)] pairs. *)

val pending_count : t -> int
(** Records held for a write they lack plus records buffered while
    pinned. *)

val receive :
  t ->
  apply:(Lbc_wal.Record.txn -> unit) ->
  landed:(unit -> unit) ->
  Lbc_wal.Record.txn ->
  bool
(** Offer one arriving record.  While pinned it is buffered.  Otherwise
    a ready record is applied: [apply r] lands its bytes (it may
    suspend); then its writes are marked applied, [landed ()] runs (so
    whatever it wakes sees them), and the records held under its writes
    are offered in turn, and so on.  Returns [true] when the record
    itself was held. *)

val pinned : t -> bool

val pin : t -> unit
(** Buffer arriving records instead of judging them. *)

val accept : t -> Lbc_wal.Record.txn list
(** Unpin and hand back the buffered records in arrival order, for the
    caller to {!receive} as if they arrived now. *)
