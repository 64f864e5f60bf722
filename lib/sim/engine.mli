(** Discrete-event simulation engine.

    The engine owns a virtual clock (microseconds, [float]) and an event
    queue ordered by (time, creation sequence number).  Everything in the
    distributed system — node processes, network deliveries, disk
    completions — is an event on one engine.

    Events scheduled for the same instant form a ripe set, resolved by
    the engine's {!Schedule.policy}: the default [Fifo] runs them in
    creation order (deterministic by construction), while the seeded
    policies explore alternative legal interleavings and record every
    choice as a decision trace ({!decisions}) that [Replay] reproduces
    byte-exactly. *)

type t

type time = float
(** Virtual time in microseconds since simulation start. *)

val create : ?policy:Schedule.policy -> unit -> t
(** [policy] defaults to {!Schedule.Fifo}. *)

val decisions : t -> int list
(** The schedule trace so far: one entry per ripe set of two or more
    events, the chosen index in sequence-number order. *)

val choice_points : t -> int
(** Number of ripe sets with a real choice seen so far (the length of
    {!decisions}). *)

val now : t -> time
(** Current virtual time. *)

val schedule : t -> ?delay:time -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay] (default [0.],
    i.e. later in the current instant).  [delay] must be non-negative. *)

val schedule_at : t -> at:time -> (unit -> unit) -> unit
(** Absolute-time variant; [at] must not be in the past. *)

val pending : t -> int
(** Number of queued events. *)

val next_at : t -> time option
(** Earliest instant holding runnable work, or [None] when the queue is
    empty.  The real-time backend uses this to sleep exactly until the
    engine's next timer instead of polling. *)

val run : ?until:time -> t -> unit
(** Drain the event queue in time order, advancing the clock.  With
    [?until], stops (leaving the queue intact) once the next event is
    strictly later than [until] and sets the clock to [until].  Exceptions
    raised by event callbacks propagate to the caller. *)

val step : t -> bool
(** Run a single event.  Returns [false] if the queue was empty. *)

val advance_in_place : t -> time -> bool
(** [advance_in_place t dt] is {!Proc.sleep}'s fast path.  Inside {!run},
    when the ripe set is empty, every queued event is strictly later
    than [now t +. dt] and that instant is within [run]'s [until], a
    wake-up scheduled [dt] from now would be the next event to run,
    alone in its ripe set.  Then this does what scheduling and popping
    that wake-up would do — sets the clock to [now t +. dt], takes the
    event's sequence number and draws its {!Schedule.Pct} priority — and
    returns [true]; the caller continues as the woken process.  Otherwise
    it changes nothing and returns [false]. *)

(** {1 Blocked-process registry}

    Synchronization primitives ({!Mailbox}, {!Ivar}, {!Condvar}) register
    every suspended process here with a description of what it waits for.
    When {!run} returns with the queue empty, any remaining non-daemon
    registration is a process stranded forever — nothing is left that
    could resume it.  [Cluster.run] turns that into {!Stranded} so a hung
    cluster fails loudly instead of looking like a passing test. *)

exception Stranded of string list
(** One description per process that can never run again. *)

val block_begin : t -> desc:string -> daemon:bool -> alive:(unit -> bool) -> int
(** Register a suspended process; returns a token for {!block_end}.
    [daemon] processes (e.g. per-channel dispatchers) are excluded from
    {!blocked}; registrations whose [alive] turns false (killed processes
    of a crashed node) are pruned. *)

val block_end : t -> int -> unit

val blocked : t -> string list
(** Descriptions of the live, non-daemon processes currently suspended on
    a synchronization primitive, sorted for determinism. *)

val blocked_count : t -> int
