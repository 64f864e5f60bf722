(** Crash recovery: replay committed redo records into the permanent
    database devices.

    This is the standard RVM recovery procedure.  In the distributed
    configuration each node writes its own log, and those logs must
    first be merged into one stream (module [Lbc_core.Merge]) before
    replay — exactly the utility the paper adds in Section 3.4. *)

type outcome =
  { records_replayed : int; bytes_replayed : int; bytes_written : int }
(** [bytes_replayed] counts every stored byte, [bytes_written] the
    device bytes: the value blits plus the command runs written back. *)

val sum : outcome list -> outcome
(** Totals over several replays (one per partition stream). *)

val replay_records :
  Lbc_wal.Record.txn list -> db_for_region:(int -> Lbc_storage.Dev.t option) -> outcome
(** Apply every record of an already-merged stream, in order, to the
    database device of its region, then sync the touched devices.  Each
    record goes through {!Lbc_wal.Command.apply}: value records blit
    their saved ranges; command records re-execute the registered
    operation against an in-memory image of the devices, snapshotted on
    first touch (the checkpoint image plus the records replayed so far
    is exactly the operation's pre-state).  A command store marks the
    8-byte words it covers; at the end each maximal run of marked words
    is written back, one device write per run, so a command writes no
    more than its stores rounded out to whole words.  Ranges whose
    region resolves to [None] are skipped, as is a command touching any
    unresolved region.
    @raise Lbc_wal.Command.Unknown_op for a command record whose
    operation this process never registered.
    @raise Lbc_wal.Command.Undeclared_region for an operation that
    touches a region outside its record's [cmd_regions]. *)

val replay_chain :
  log:Lbc_wal.Log.t ->
  offsets:int list ->
  db_for_region:(int -> Lbc_storage.Dev.t option) ->
  (outcome, string) result
(** On-demand recovery: apply exactly one {!Lbc_wal.Region_index} chain,
    reading its records by log offset ({!Lbc_wal.Log.read_at}) instead
    of scanning the whole tail.  Errors (with the offending offset) on
    an unreadable record. *)
