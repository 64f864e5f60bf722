(** Unbounded FIFO message queue between simulated processes.

    [send] never blocks; [recv] suspends the calling process while the
    queue is empty.  Multiple receivers are served in arrival order. *)

type 'a t

val create : unit -> 'a t
val send : 'a t -> 'a -> unit
val recv : ?info:string -> 'a t -> 'a
(** [info] (default ["mailbox.recv"]) describes the wait in the engine's
    blocked-process registry. *)

val try_recv : 'a t -> 'a option
val is_empty : 'a t -> bool
