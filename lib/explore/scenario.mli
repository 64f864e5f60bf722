(** Named, self-checking workloads for the schedule explorer.

    Each scenario runs a fixed, deterministic workload under a
    caller-chosen same-time {!Lbc_sim.Schedule.policy} — the schedule is
    the only degree of freedom — and judges the outcome with the full
    oracle stack: log invariants ({!Lbc_analysis.Invariants.check_logs},
    including the vector-clock race check), the one-copy serializability
    oracle ({!Lbc_analysis.Serialize.check}), and scenario-specific
    invariants.  A run that strands or raises is itself reported as a
    [schedule-oracle] violation.

    The chaos scenarios reuse the chaos tests' workloads and workload
    seeds, so a red chaos test has a scenario twin the explorer can
    shrink and replay. *)

type result = {
  violations : Lbc_analysis.Violation.t list;
  decisions : int list;
      (** the recorded schedule trace — feed through [Replay] to
          reproduce this run byte-exactly *)
  choice_points : int;
  committed : int;  (** merged committed transactions (informational) *)
}

type t = {
  name : string;
  descr : string;
  run : Lbc_sim.Schedule.policy -> result;
}

val planted : t
(** Toy scenario with a deliberately planted ordering bug: correct under
    FIFO tie order, broken by any schedule that flips at least one of
    its eight same-instant event pairs.  The self-test target. *)

val drop_heal : t
val crash_rejoin : t
val checkpoint_under_faults : t

val rejoin_under_load : t
(** Checkpoint, more commits, crash, then a rejoin that serves fresh
    load while chains replay on first touch and peers keep committing.
    The home-segment workload keeps the rejoin's chains disjoint, one
    per node. *)

val oo7_eager : t
val oo7_multicast : t
val oo7_lazy : t

val oo7_costs : t
(** The eager OO7 pair with [Config.charge_costs]: each [set_range]
    sleeps its modelled cost, so the other writer's lock traffic arrives
    amid the traversal's in-place clock advances. *)

val commit_storm : t
(** Two workers per node with [Config.charge_costs]: a log write sleeps,
    so the second worker's commit appends to the same log while the
    first one's write is in flight. *)

val all : t list
val find : string -> t option
