(** An append-only redo log on a storage device.

    Layout: a 16-byte header ([magic], [version] 2, [head] offset of the
    first live record) followed by transaction records ({!Record}) and
    nothing else.  The log is write-ahead: {!append} buffers the record
    on the device and {!force} issues the synchronous barrier that makes
    the commit durable; a commit is one of each, in turn.

    The log is a data structure over its device: it spawns no process
    and schedules no event, and only the device charges time.  Two
    appenders may still interleave on a charged device (a write sleeps
    inside the calling sim process): {!append} reserves its offset
    before it writes, and the device captures the payload before it
    charges, so each record lands once at its own offset.

    {!attach} scans the device to find the usable tail, stopping at a clean
    end or a torn record — so re-attaching after a crash silently discards
    the unsynced tail, which is exactly RVM's recovery-time behaviour.
    Scans read the device through bounded windows (64 KiB, doubled when a
    record does not fit) rather than snapshotting it whole.

    Trimming (checkpointing) advances [head]; records before [head] are
    dead and their space is not reused (offline compaction is the job of
    the tools layer, as in RVM). *)

type t

exception Bad_log of string
(** Raised by {!attach} when the device holds something that is not a log
    of this version.  A version-1 log, whose control records this decoder
    would read as a torn tail, is refused as ["bad version 1"]. *)

val header_size : int

val attach : Lbc_storage.Dev.t -> t
(** Open the log on [dev], initializing a fresh header if the device is
    empty.  Scans for the tail. *)

val load_file : string -> (t, string) result
(** The tools' loader: copy the log image in the file at [path] into an
    in-memory device named [path] and {!attach} it.  A file that cannot
    be read, or holds no log, is [Error], one line naming [path]. *)

val set_obs : t -> Lbc_obs.Obs.t -> node:int -> unit
(** Install a trace/metrics sink (the log itself does not know which
    node owns it, hence [node]): appends become [log.append] instants
    carrying the record's byte count, and syncs become [log.force] spans
    feeding [log_force_us].  Defaults to [Obs.disabled]. *)

val dev : t -> Lbc_storage.Dev.t
val head : t -> int
(** Offset of the first live record. *)

val tail : t -> int
(** Offset where the next record will be appended. *)

val live_bytes : t -> int
(** [tail - head]: bytes of live log. *)

val record_count : t -> int
(** Number of live records, counted by a {!fold} of the tail (a scan of
    the device, for tools and tests; nothing on the commit or trim path
    keeps a count). *)

val append : t -> Record.txn -> int
(** Append one record (buffered, not yet durable); returns its offset.
    The offset is reserved before the device write, so a concurrent
    append during the write's charged sleep takes the next one.  Ranges
    carry {!Record.rvm_disk_header_size}-byte headers. *)

val force : t -> unit
(** Synchronous barrier: every record appended so far becomes durable
    (one device sync). *)

val set_head : t -> int -> int
(** Trim the log head (a cluster checkpoint's trim); durable
    immediately.  The requested offset must lie in [[header_size, tail]];
    the head actually installed is clamped to the {!low_water} mark and
    never moves backwards, and is returned.  With no low-water constraint
    the result equals the request.  A trim writes the header and syncs,
    nothing more: it costs the same whatever tail it keeps. *)

val low_water : t -> int
(** The trim barrier {!set_retention_water} installed; [max_int] when
    unconstrained. *)

val set_retention_water : t -> int -> unit
(** Install the repair-retention barrier: subsequent {!set_head} calls
    will not advance the head past this offset.  Owners keep it at the
    oldest own record some peer may still need re-sent or fetched; pass
    [max_int] to lift the constraint. *)

type scan_status = Clean | Torn_at of int * string

val fold : t -> ?from:int -> init:'a -> ('a -> int -> Record.txn -> 'a) -> 'a * scan_status
(** Fold over live records from [from] (default [head t]); the callback
    receives each record's offset.  Returns the accumulator and whether the
    scan ended cleanly or at a torn record. *)

val read_all : t -> Record.txn list * scan_status

(** {1 Point reads}

    The {!Region_index} chains name records by log offset; on-demand
    replay reads exactly the records of one chain instead of scanning
    the whole tail. *)

val read_at : t -> off:int -> (Record.txn, string) result
(** Read and decode the single transaction record starting at [off].
    Errors (with the offending offset in the message) instead of raising
    on anything that is not a live, intact transaction record: offsets
    outside [[head, tail)], torn or corrupt bytes. *)

val fold_chain :
  t ->
  offsets:int list ->
  init:'a ->
  ('a -> int -> Record.txn -> 'a) ->
  ('a, string) result
(** Fold {!read_at} over a chain's offsets in the given order, stopping
    at the first unreadable record. *)
