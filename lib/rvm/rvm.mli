(** Recoverable virtual memory — a work-alike of the RVM package the paper
    extends (Satyanarayanan et al., 1994).

    One [t] per node.  Applications map {!Region}s, run transactions that
    declare modified byte ranges with {!set_range} (paper Table 1), and
    commit; commit builds a new-value redo record, makes it durable on
    the node's log device (when disk logging is on), and returns it — the {e committed log tail} that
    the coherency layer broadcasts to peers.

    The interface corresponds to the paper's Table 1:
    - [Trans.Init]    — {!begin_txn} (tid allocation)
    - [Trans.Begin]   — {!begin_txn}
    - [Trans.Commit]  — {!commit}
    - [Trans.Acquire] — {!set_lock} ([rvm_setlockid_transaction])
    - [Trans.SetRange]— {!set_range}

    Cost instrumentation: RVM itself is a pure library; simulated-time
    charging is injected through {!instrumentation} so that benchmarks can
    charge the per-update costs of Figures 5-7 while unit tests run the
    same code with no cost model. *)

type t
type txn

type restore_mode =
  | Restore  (** capture old values at [set_range]; [abort] allowed *)
  | No_restore  (** no undo copies; [abort] is an error *)

(** Cost class of one [set_range] call, per the paper's Figure 5:
    [Redundant] — exact match with a previously added range;
    [Ordered]   — address-ordered call that skips the tree search;
    [Unordered] — full tree search (insert or merge). *)
type set_range_class = Redundant | Ordered | Unordered

type instrumentation = {
  on_set_range : set_range_class -> len:int -> unit;
  on_commit_collect : ranges:int -> bytes:int -> unit;
      (** gathering new values / building iovecs at commit *)
  on_apply : ranges:int -> bytes:int -> unit;
      (** applying a received or replayed record to a region image *)
}

val no_instrumentation : instrumentation

type options = {
  disk_logging : bool;
      (** when [false], commit skips the log write entirely (the paper
          disables disk logging to isolate coherency costs). *)
  log_mode : Lbc_wal.Command.log_mode;
      (** per-transaction record encoding: [Value] always logs new-value
          ranges; [Command] logs the declared operation instead;
          [Adaptive] picks whichever encodes smaller.  Transactions that
          never call {!set_command} always log values. *)
  instrumentation : instrumentation;
}

val default_options : options
(** Disk logging on, value logging, no instrumentation.  [set_range]
    always coalesces with the paper's optimized policy
    ({!Range_tree}), and records are logged with
    {!Lbc_wal.Record.rvm_disk_header_size}-byte range headers. *)

exception Txn_error of string
(** Raised on misuse: operations on a dead transaction, abort of a
    [No_restore] transaction, commit of an aborted transaction, etc. *)

val init : ?options:options -> node:int -> log_dev:Lbc_storage.Dev.t -> unit -> t
val node : t -> int
val log : t -> Lbc_wal.Log.t
val options : t -> options

val map_region : t -> id:int -> db:Lbc_storage.Dev.t -> size:int -> Region.t
(** Map a region; raises [Invalid_argument] if the id is already mapped. *)

val region : t -> int -> Region.t
(** @raise Not_found if the region is not mapped. *)

val regions : t -> Region.t list

(** {1 Transactions} *)

val begin_txn : ?restore:restore_mode -> t -> txn
(** Start a transaction.  [restore] defaults to [No_restore] (RVM's
    cheaper mode, sufficient when the application never aborts). *)

val tid : txn -> int

val set_range : txn -> region:int -> offset:int -> len:int -> unit
(** Declare intent to modify [len] bytes at [offset] — must precede the
    actual store, as in RVM. *)

val write : txn -> region:int -> offset:int -> Bytes.t -> unit
(** [set_range] followed by the store itself. *)

val set_u64 : txn -> region:int -> offset:int -> int64 -> unit
(** Transactionally update an 8-byte field (the OO7 update unit). *)

val mem : txn -> region:int -> Lbc_util.Mem.t
(** The transaction's accessor to a mapped region ({!Region.mem}): reads
    go straight to region memory; a store first declares its range with
    {!set_range}, then lands.
    @raise Txn_error if the region is not mapped. *)

val set_lock : txn -> lock_id:int -> seqno:int -> prev_write_seq:int -> unit
(** [rvm_setlockid_transaction]: tag the transaction's eventual log record
    with a lock acquire (called by the lock package, not applications). *)

val set_command : txn -> op:int -> params:Bytes.t -> regions:int list -> unit
(** Declare that this transaction's whole effect is one deterministic
    registered operation ([Lbc_wal.Command]), making it eligible for
    command encoding at commit (per [options.log_mode]).  [regions] must
    cover every region the replayed operation reads or writes.  The
    declaration is advisory: under [Value] mode, or when the value
    encoding is smaller under [Adaptive], the commit still logs ranges.
    @raise Txn_error if [op] is not registered. *)

val commit : txn -> Lbc_wal.Record.txn
(** Commit: build the redo record from the modified ranges (reading new
    values from region memory) — or, when a command was declared and
    [options.log_mode] selects it, a command record with the same lock
    records — and return it.  With disk logging on, the record is durable
    before [commit] returns: {!Lbc_wal.Log.append}, then
    {!Lbc_wal.Log.force}.  The transaction is dead afterwards. *)

type commit_outcome = {
  record : Lbc_wal.Record.txn;  (** what was logged and is broadcast *)
  value : Lbc_wal.Record.txn;
      (** the value-record equivalent (equal to [record] unless a
          command encoding was chosen) — the paper's Table 3 byte/page
          accounting is defined over this, whatever the encoding *)
}

val commit_full : txn -> commit_outcome
(** {!commit}, also returning the value equivalent for profiling. *)

val abort : txn -> unit
(** Undo all modifications using the old-value copies captured by
    [set_range].  Only legal for [Restore] transactions. *)

val is_live : txn -> bool

(** {1 Applying records} *)

val apply_record : t -> Lbc_wal.Record.txn -> unit
(** Apply a record to the mapped region images — used by the coherency
    receiver for records from peer nodes — through
    {!Lbc_wal.Command.apply}: a value record's ranges are blitted in, a
    command record's operation runs against the images (the interlock
    guarantees the pre-state matches the writer's, so the deterministic
    operation reproduces the writer's bytes).  What that routine skips
    for unmapped regions is counted in [stats.unmapped_ranges]: a
    nonzero count means a peer sent updates this node silently could not
    apply — surfaced by [Report] and flagged by [lbc-check verify].
    @raise Lbc_wal.Command.Unknown_op for a command record whose
    operation this process never registered.
    @raise Lbc_wal.Command.Undeclared_region for an operation that
    touches a region outside its record's [cmd_regions]. *)

(** {1 Statistics} *)

type stats = {
  mutable commits : int;
  mutable aborts : int;
  mutable set_ranges : int;
  mutable redundant_calls : int;
  mutable ordered_calls : int;
  mutable unordered_calls : int;
  mutable ranges_logged : int;
  mutable bytes_logged : int;  (** payload bytes in committed records *)
  mutable log_bytes_written : int;  (** on-disk record bytes incl. headers *)
  mutable records_applied : int;
  mutable bytes_applied : int;
  mutable unmapped_ranges : int;
      (** ranges received for regions this node has not mapped *)
}

val stats : t -> stats
