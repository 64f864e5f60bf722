(** Zero-copy byte windows.

    A {!t} is an immutable view of a [Bytes.t] — base buffer, start
    offset, length.  Passing slices between layers (codec → log → wire)
    moves no bytes; only {!to_bytes} and {!concat} actually materialize
    data, and those are the operations the copy counters charge.  The
    writer side is {!Codec.writer}, whose contents are taken as a slice
    without copying.

    {1 Copy accounting}

    The module keeps three global counters so benchmarks can report how
    many bytes the data path materialized:

    - [bytes_copied]: bytes actually copied by the current implementation
      (charged by {!to_bytes}, {!concat} and by the device
      and codec layers at their materializing operations).
    - [bytes_copied_baseline]: what the pre-slice data path would have
      copied — every call site that {e used to} copy but no longer does
      charges {!count_saved} with the bytes it would have moved, so
      [baseline = copied + saved].
    - [encode_allocs]: number of {!Codec.writer} allocations on encode
      paths.

    The counters are global (not per cluster): reset them around the
    measured section with {!reset_counters}. *)

type t
(** An immutable window onto a byte buffer.  The window never changes,
    but the underlying buffer is shared: a slice of a buffer that is
    later mutated observes the mutation.  Producers hand out slices only
    of buffers they no longer write (e.g. a finished encode). *)

val of_bytes : ?pos:int -> ?len:int -> Bytes.t -> t
(** View of [b.[pos .. pos+len)]; the whole buffer by default.  The
    bytes are {e not} copied. *)

val window : Bytes.t -> pos:int -> len:int -> t
(** {!of_bytes} with both bounds given, for hot paths: no optional
    argument to box. *)

val of_string : string -> t
(** Copies the string once (strings are immutable; the slice needs a
    byte base). *)

val length : t -> int

val get : t -> int -> char
(** [get s i] is byte [i] of the window; bounds-checked. *)

val base : t -> Bytes.t
(** The underlying buffer — with {!pos}, for handing the window to
    primitives that take [(bytes, pos, len)] without copying.  Callers
    must not write through it. *)

val pos : t -> int
(** Start offset of the window within {!base}. *)

val sub : t -> pos:int -> len:int -> t
(** Zero-copy sub-window, relative to the slice. *)

val iter : (char -> unit) -> t -> unit

val to_bytes : t -> Bytes.t
(** Materialize the window as fresh bytes (counted). *)

val to_string : t -> string

(** {1 Gather lists (iovecs)} *)

val iov_length : t list -> int
(** Total bytes across a gather list. *)

val concat : t list -> Bytes.t
(** Materialize a gather list into one fresh buffer (counted). *)

(** {1 Copy accounting} *)

val count_copy : int -> unit
(** Charge [n] bytes to the real-copy counter.  Called by every layer
    that materializes bytes (device reads/writes, codec [contents] /
    [get_raw], slice [to_bytes]). *)

val count_saved : int -> unit
(** Charge [n] bytes to the baseline-only counter: a copy the
    pre-slice data path performed at this site that the current path
    avoids. *)

val count_alloc : unit -> unit
(** Count one encode-path writer allocation. *)

val bytes_copied : unit -> int
val bytes_copied_baseline : unit -> int
(** [bytes_copied () + saved]: what the old data path would have
    copied. *)

val encode_allocs : unit -> int
val reset_counters : unit -> unit
