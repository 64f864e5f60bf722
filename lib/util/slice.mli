(** Zero-copy byte windows and the growable arena writer under them.

    A {!t} is an immutable view of a [Bytes.t] — base buffer, start
    offset, length.  Passing slices between layers (codec → log → wire)
    moves no bytes; only {!to_bytes} and {!concat} actually materialize
    data, and those are the operations the copy counters charge.

    The {!Arena} is the writer side: a growable byte buffer that exposes
    its contents as a slice without copying and supports true in-place
    patching of already-written words (what [Buffer] cannot do).

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
    - [encode_allocs]: number of writer/arena allocations on encode
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

(** {1 The arena writer} *)

module Arena : sig
  type slice = t

  type t
  (** A growable byte buffer.  Unlike [Buffer], its contents are
      exposed as a slice without copying and fixed-size fields written
      earlier can be patched in place. *)

  val create : ?capacity:int -> unit -> t
  (** Counted as one encode allocation. *)

  val length : t -> int
  val clear : t -> unit
  (** Forget the contents (capacity is kept).  Slices previously taken
      with {!contents} must not be used afterwards. *)

  val add_char : t -> char -> unit

  val add_u16 : t -> int -> unit
  (** The low 16 bits of the int, little-endian. *)

  val add_u32 : t -> int -> unit
  (** The low 32 bits of the int, little-endian. *)

  val add_u64 : t -> int64 -> unit
  (** Little-endian. *)

  val add_zeros : t -> int -> unit
  (** [n] zero bytes.  Raises [Invalid_argument] if [n] is negative. *)

  val add_bytes : t -> Bytes.t -> pos:int -> len:int -> unit
  val add_string : t -> string -> unit

  val patch : t -> at:int -> Bytes.t -> unit
  (** Overwrite already-written bytes at offset [at]; in place, O(len). *)

  val set_byte : t -> at:int -> int -> unit
  (** Overwrite one already-written byte; in place, O(1). *)

  val contents : t -> slice
  (** The bytes written so far, as a zero-copy window.  Valid until the
      arena is next written (a growth reallocates the base) or cleared. *)

  val sub : t -> pos:int -> len:int -> slice
  (** Zero-copy window of a range written so far; same validity. *)

  val to_bytes : t -> Bytes.t
  (** Materializing copy (counted). *)
end
