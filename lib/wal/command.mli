(** Registry of replayable operations for command-encoded log records.

    A {!Record.cmd} names a deterministic operation by integer id.  The
    id's executable body is registered here once at startup (the OO7
    harness registers its traversals; tests register synthetic ops) and
    every replayer — crash recovery, the coherency receiver, the
    serializability oracle's sequential spec — executes it through the
    same {!mem} accessor, so a command replays identically no matter
    which image it lands on.

    Determinism contract: [run mem ~params] must be a pure function of
    [params] and the bytes it reads through [mem] — no clocks, no
    ambient randomness, no iteration over unordered containers.  The
    lock interlock guarantees each replayer presents the writer's
    pre-state, so a deterministic operation reproduces the writer's
    bytes exactly. *)

(** Per-transaction record-encoding policy (the adaptive-logging knob):
    [Value] always logs new-value ranges (the paper's RVM), [Command]
    always logs the declared operation, [Adaptive] picks whichever
    encoding is smaller for each transaction. *)
type log_mode = Value | Command | Adaptive

val log_mode_name : log_mode -> string
val log_mode_of_name : string -> log_mode option

(** Resolves a region id to its accessor ({!Lbc_util.Mem.t}) in some
    region store: cached RVM regions, database devices under recovery, or
    the oracle's in-memory spec images.  An operation resolves each region
    it touches once, then reads and writes through the accessor, whose
    write declaration does the backing's bookkeeping (dirty words,
    apply counters). *)
type mem = region:int -> Lbc_util.Mem.t

exception Unknown_op of int
(** Raised by {!apply} for an unregistered operation id — a log written
    by a binary with commands this one does not know. *)

exception Undeclared_region of { op : int; region : int }
(** Raised by {!apply} when operation [op] reaches a region outside its
    record's [cmd_regions] — the set merge, partitioning and replay key
    on, so an op that strays from it is a bug in the op, whichever
    replayer runs it. *)

val register : op:int -> name:string -> (mem -> params:Bytes.t -> unit) -> unit
(** Register (idempotently) the body of operation [op].  Re-registering
    the same [op]/[name] pair replaces the body; claiming an op id owned
    by a different name raises [Invalid_argument]. *)

val registered : int -> bool
val name : int -> string option

val apply :
  resolve:(int -> 'r option) ->
  mem:('r -> Lbc_util.Mem.t) ->
  store:('r -> Record.range -> unit) ->
  Record.txn ->
  int
(** The one replay routine, shared by the coherency receiver, crash
    recovery and the oracle's sequential spec; each supplies how a
    region resolves in its store ([resolve], [None] when the store has
    no such region, and [mem], a command's accessor to a resolved one)
    and how a value range lands ([store]).  A value record lands each
    range whose region resolves and skips the others one by one.  A
    command record runs only if every [cmd_regions] entry resolves, and
    is otherwise skipped whole, one skip per unresolved region.  Returns
    the skips.
    @raise Unknown_op for an unregistered operation, before any region
    is resolved.
    @raise Undeclared_region for an operation that touches a region
    outside [cmd_regions]. *)
