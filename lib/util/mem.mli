(** Typed access to a byte image: the one accessor every backing shares.

    A [t] reads and writes a region's bytes in place — a node's cached
    image under a transaction, a raw database image, a recovery session's
    device snapshot, the serializability oracle's spec image.  Reads
    allocate nothing: [get_int] is an 8-byte little-endian load narrowed
    to an OCaml int.  Every store first calls the backing's {e write
    declaration} with the range it is about to change — that is where a
    transaction records [set_range] and marks the region dirty, where
    Cpy/Cmp twins the page, where a recovery session marks the words
    it will write back — and then lands, bounds-checked.

    Out-of-bounds accesses and [get_int] of a value outside
    [[0, max_int]] raise {!Error}. *)

exception Error of string

type t

val of_bytes : ?declare:(offset:int -> len:int -> unit) -> Bytes.t -> t
(** Access to [image] itself (no copy).  [declare] (default: nothing)
    runs before every store, with the range the store covers; it may
    raise to refuse the store. *)

val size : t -> int
(** Addressable bytes. *)

val get_int : t -> int -> int
(** The 8 bytes at an offset as a non-negative int (pointers, counters,
    OO7 fields). *)

val set_int : t -> int -> int -> unit
(** Store a non-negative int as 8 bytes. *)

val get_u64 : t -> int -> int64
val set_u64 : t -> int -> int64 -> unit

val read : t -> offset:int -> len:int -> Bytes.t
(** Copy of a byte range (documents, whole-object reads). *)

val write : t -> offset:int -> Bytes.t -> unit

(** {1 Owning a growable image} *)

val extend : t -> int -> unit
(** Make the first [n] bytes addressable, zero-filling new ones; the
    image may move (see {!image}).  For backings whose length is not
    fixed, like a recovery session's snapshot of a device. *)

val image : t -> Bytes.t
(** The current backing bytes (not a copy): the owner's way to write its
    dirty words back.  Valid until the next {!extend}. *)
