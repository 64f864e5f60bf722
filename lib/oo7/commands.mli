(** The OO7 traversal as a logged command (adaptive logging).

    An update traversal is a deterministic function of the database
    image, so a command record carrying only the schema configuration,
    the target region and the traversal kind lets replayers re-execute
    it instead of shipping its new-value ranges.  The interlock
    guarantees a replayer's pre-state equals the writer's, so the
    re-execution is byte-identical. *)

val traversal_op : int
(** Operation id registered for OO7 traversals. *)

val traversal_params :
  config:Schema.config -> region:int -> Traversal.kind -> Bytes.t
(** Parameter blob for {!Lbc_rvm.Rvm.set_command}: the schema
    configuration (varints), the region id, and the traversal kind. *)

val ensure : unit -> unit
(** Register the traversal operation with {!Lbc_wal.Command} (idempotent).
    Must run before any log decode or replay that may meet an OO7 command
    record — called by [Runner.setup]; CLIs call it at startup. *)
