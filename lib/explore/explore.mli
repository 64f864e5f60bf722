(** Schedule exploration: run many seeded schedules of a scenario, stop
    at the first oracle violation, shrink the failing decision trace by
    delta debugging, and write a replayable counterexample file.

    Shrinking is sound because the trace format degrades gracefully: a
    zeroed or truncated decision falls back to stable FIFO, so every
    subset of a recorded trace is a valid, replayable schedule.  The
    shrunk trace's surviving non-zero decisions are exactly the
    reorderings the failure needs. *)

type failure = {
  scenario : string;
  policy : Lbc_sim.Schedule.policy;
      (** the policy that found the failure (kept across shrinking, for
          provenance; [decisions] is the replay key) *)
  violations : Lbc_analysis.Violation.t list;
  decisions : int list;
  choice_points : int;
  schedules_run : int;  (** clean schedules explored before this one *)
}

type outcome = Pass of int  (** schedules explored, all clean *) | Fail of failure

val names_of : Lbc_analysis.Violation.t list -> string list
(** Sorted, deduplicated stable violation names — the equality key for
    "same failure". *)

val explore :
  ?mode:[ `Random | `Pct ] ->
  ?seed0:int ->
  ?on_schedule:(int -> unit) ->
  seeds:int ->
  Scenario.t ->
  outcome
(** Run [seeds] schedules with seeds [seed0], [seed0+1], … (default
    [seed0 = 1]), stopping at the first violating one.  [mode] picks the
    policy family (default [`Random], i.e. seeded tie permutation;
    [`Pct] is random-priority).  [on_schedule i] is called before
    schedule [i] (progress reporting). *)

val replay : Scenario.t -> int list -> Scenario.result
(** Run the scenario under [Replay] of the given decision trace. *)

val shrink : Scenario.t -> failure -> failure
(** Delta-debug the failure's decision trace to a minimal set of
    non-zero decisions that still reproduces the same violation-name
    set.  Returns the original failure unchanged if it does not replay
    (which would indicate scenario nondeterminism). *)

val nonzero_count : int list -> int
(** Decisions that deviate from FIFO — the shrink metric. *)

(** {1 Counterexample trace files} *)

type trace = {
  t_scenario : string;
  t_policy : string;  (** provenance: policy string of the failing run *)
  t_names : string list;  (** violation names the replay must reproduce *)
  t_decisions : int list;
}

val trace_of_failure : failure -> trace
val save_trace : string -> failure -> unit

val read_trace : string -> (trace, string) result

val replay_trace : trace -> (Scenario.result * bool, string) result
(** Replay a trace file's schedule; the boolean is true iff the replay
    reproduced the recorded violation-name set. *)
