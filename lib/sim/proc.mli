(** Cooperative simulated processes, implemented with effect handlers.

    A process is an ordinary OCaml function spawned on an {!Engine.t}.
    Inside a process, {!sleep} advances virtual time and {!suspend} parks
    the process until some other event resumes it.  All higher-level
    synchronization ({!Ivar}, {!Mailbox}, {!Condvar}) is built from
    [suspend].  Processes are single-shot continuations driven entirely by
    the engine, so a whole multi-node system runs deterministically on one
    OS thread. *)

exception Not_in_process
(** Raised when [sleep]/[suspend]/[now] is called outside [spawn]. *)

exception Killed
(** Raised {e inside} a process when it is resumed after its [alive]
    predicate turned false (its node crashed): the process unwinds and
    dies silently instead of continuing with torn state. *)

val spawn :
  Engine.t ->
  ?name:string ->
  ?daemon:bool ->
  ?alive:(unit -> bool) ->
  (unit -> unit) ->
  unit
(** [spawn engine f] schedules process [f] to start at the current virtual
    instant.  An exception escaping [f] is wrapped in [Failure] with the
    process [name] and propagates out of {!Engine.run}.

    [daemon] (default [false]) marks system service processes (message
    dispatchers) that legitimately block forever: they are excluded from
    the engine's stranded-process report.

    [alive] (default always-true) is checked every time the process is
    (re)started or resumed; when it returns [false] the process is killed
    by raising {!Killed} at its suspension point.  This is how a crashed
    node's in-flight transaction is torn down. *)

val sleep : Engine.time -> unit
(** Advance this process's virtual time.  Other events run meanwhile.

    A sleep that nothing can interleave — inside {!Engine.run}, with no
    other event left at the current instant, every queued event strictly
    later than the wake-up, and the wake-up within [run]'s [until] — does
    not queue a wake-up: the clock advances in place
    ({!Engine.advance_in_place}) and the process goes on, killed there if
    its [alive] turned false.  Times, event sequence numbers, schedule
    decisions and [Pct] priority draws are those of the queued wake-up.
    This holds only for a process an engine event resumed directly; one
    resumed by another process (through an {!Ivar}, {!Mailbox} or
    {!Condvar}) always queues, since its resumer has yet to finish. *)

val yield : unit -> unit
(** Re-enter the event queue at the current instant (runs after events
    already scheduled for this instant). *)

val suspend : ?info:string -> (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the process and calls [register resume]
    immediately; a later call of [resume v] (from any event callback)
    continues the process with [v].  [resume] must be called exactly
    once.  With [?info], the suspension is recorded in the engine's
    blocked-process registry (see {!Engine.blocked}) until resumed. *)

val now : unit -> Engine.time
(** Virtual time, usable only inside a process. *)

val engine : unit -> Engine.t
(** The engine driving the current process. *)
