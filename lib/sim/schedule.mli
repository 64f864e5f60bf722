(** Pluggable same-time event ordering for {!Engine}.

    Events scheduled for the same virtual instant form a {e ripe set};
    which of them runs first is a real degree of freedom of the modelled
    distributed system.  A policy resolves each ripe set; every
    resolution of a set with two or more candidates is a {e decision},
    recorded as the chosen index into the set ordered by event sequence
    number.  The decision list is a complete, compact schedule trace:
    replaying it ({!policy} [Replay]) reproduces the run byte-exactly,
    and any missing or out-of-range entry falls back to index 0 (stable
    FIFO), so a trace remains replayable after delta-debugging has
    zeroed or truncated parts of it. *)

type policy =
  | Fifo  (** lowest sequence number first — the deterministic baseline *)
  | Random_tie of int
      (** seeded uniform pick among the ripe set at every decision *)
  | Pct of int
      (** PCT-style scheduling: every event gets a seeded random
          priority at creation and the highest-priority ripe event runs
          first (ties by sequence number) *)
  | Replay of int array
      (** replay a recorded decision trace; exhausted or out-of-range
          entries fall back to FIFO *)

type t
(** Decision state for one engine: the policy, its random stream, and
    the decisions taken so far. *)

val make : policy -> t

val assign_priority : t -> int
(** Priority for a freshly scheduled event ([Pct] draws from the seeded
    stream; every other policy returns 0).  Called by the engine at
    schedule time, in schedule order, so priorities are deterministic
    for a fixed seed. *)

val choose : t -> k:int -> prio:(int -> int) -> int
(** [choose t ~k ~prio] picks which of [k] ripe events runs next; [prio
    i] is the priority of the i-th event in sequence-number order.
    Records a decision iff [k > 1]. *)

val decisions : t -> int list
(** Decisions recorded so far, in order — the schedule trace. *)

val choice_points : t -> int
(** Number of ripe sets with two or more candidates seen so far. *)

val policy_to_string : policy -> string
(** ["fifo"], ["random:SEED"], ["pct:SEED"], ["replay:N"]. *)

val policy_of_string : string -> policy option
(** Parses ["fifo"], ["random:SEED"] and ["pct:SEED"] (a replay policy
    is built from a trace file, not a name). *)
