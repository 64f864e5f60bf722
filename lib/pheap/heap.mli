(** A persistent heap inside a byte-addressed region.

    The heap is a bump allocator whose allocation pointer is itself stored
    in the region (offset 8), so the heap structure survives recovery and
    is shared by every node mapping the region.  Address 0 is the null
    pointer; the first allocatable byte is {!data_start}.

    The heap is access-agnostic: it is a view of a {!Lbc_util.Mem.t}, the
    accessor every backing shares, so the same code runs over a raw
    [Bytes.t] image during database construction ({!of_bytes}), over a
    transaction's view of a node's cache (stores declare [set_range]),
    and over a recovery image. *)

type t

exception Heap_error of string
(** The accessor's error ({!Lbc_util.Mem.Error}): an access outside the
    heap, an 8-byte field read as an int that holds no non-negative int,
    a bad header, or an exhausted allocator. *)

val header_size : int
val data_start : int

val format : Bytes.t -> unit
(** Initialize a fresh heap header in a raw image. *)

val of_bytes : Bytes.t -> t
(** Attach directly to a raw image (builder mode).  The image must have
    been {!format}ted (or be about to be: [of_bytes] formats an all-zero
    image). *)

val attach : Lbc_util.Mem.t -> t
(** Attach through an accessor; the header must be valid.  The heap
    spans the accessor's {!Lbc_util.Mem.size} bytes. *)

val mem : t -> Lbc_util.Mem.t
val size : t -> int

val alloc : t -> int -> int
(** Allocate [n] bytes, returning their address.
    @raise Heap_error when the region is exhausted. *)

val allocated : t -> int
(** Current allocation frontier. *)

(** {1 Typed accessors}

    The accessor's own operations, by heap address. *)

val get_u64 : t -> int -> int64
val set_u64 : t -> int -> int64 -> unit
val get_int : t -> int -> int
(** An 8-byte field as a non-negative OCaml int (pointers, counters);
    allocates nothing. *)

val set_int : t -> int -> int -> unit
val get_bytes : t -> int -> len:int -> Bytes.t
val set_bytes : t -> int -> Bytes.t -> unit
