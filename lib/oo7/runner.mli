(** Run OO7 traversals on a coherency cluster and collect the paper's
    measurements.

    Each run is the paper's experimental unit: "a single transaction (and
    a single segment lock) in which one node performs the traversal and
    another receives the log tail and installs the updates". *)

type outcome = {
  result : Traversal.result;
  record : Lbc_wal.Record.txn;  (** the committed log tail, as logged *)
  value : Lbc_wal.Record.txn;
      (** its value-record equivalent (equal to [record] unless
          [config.log_mode] chose a command encoding) *)
  profile : Lbc_costmodel.Model.traversal_profile;
      (** Table 3 row: updates, unique bytes, message bytes, pages.
          Byte/page accounting is over the value form; [message_bytes]
          is the wire size of what was actually sent. *)
  elapsed : float;
      (** µs from transaction begin to commit on the platform clock
          ({!Lbc_core.Cluster.now}): virtual on sim, wall on real *)
}

exception Traversal_incomplete of { traversal : string; schema : string }
(** {!run}'s cluster quiesced without the traversal transaction
    committing (a deadlock or a crashed writer). *)

val setup :
  ?config:Lbc_core.Config.t ->
  ?sched:Lbc_sim.Schedule.policy ->
  ?backend:Lbc_core.Platform.backend ->
  ?nodes:int ->
  Schema.config ->
  Lbc_core.Cluster.t
(** Build a cluster whose region 0 holds a freshly built OO7 database,
    mapped by every node.  Lock 0 is the single segment lock.  [sched]
    selects the engine's same-time schedule policy (for the explorer);
    [backend] (default sim) selects the platform. *)

val region : int
val lock : int

val run :
  cluster:Lbc_core.Cluster.t ->
  writer:int ->
  Schema.config ->
  Traversal.kind ->
  outcome
(** Execute one traversal as a single transaction on [writer], run the
    simulation to quiescence, and return the measurements. *)

val pages_updated : Lbc_wal.Record.txn -> int
(** Distinct 8 KB pages covered by a record's ranges. *)
