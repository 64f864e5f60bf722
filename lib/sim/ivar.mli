(** Write-once synchronization variable for simulated processes. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Set the value and wake all readers (at the current instant).  Raises
    [Invalid_argument] if already filled.  Callable from any event
    callback, not only from inside a process. *)

val is_filled : 'a t -> bool

val read : ?info:string -> 'a t -> 'a
(** Return the value, suspending the calling process until filled.
    [info] (default ["ivar.read"]) describes the wait in the engine's
    blocked-process registry. *)
