(** Mutable binary min-heap priority queue.

    The simulator's event queue is built on this.  Ties are broken by
    insertion order so that iteration is deterministic. *)

type 'a t

val create : compare:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val peek_exn : 'a t -> 'a
(** [peek] without the option, for hot paths that check {!is_empty}
    first.
    @raise Invalid_argument on an empty queue. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty queue. *)

val to_list : 'a t -> 'a list
(** Elements in ascending order; O(n log n), does not modify the queue. *)
