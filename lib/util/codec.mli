(** Little-endian binary encoding and decoding.

    All on-disk and on-wire formats in this repository are built from these
    primitives.  A {!writer} is a growable arena whose contents can be
    taken as a zero-copy {!Slice.t} and whose words written earlier can
    be patched in place ({!patch_u32}); a {!reader} walks a byte range —
    or a gather list of slices — with bounds checking and reports
    malformed input with {!exception:Truncated} rather than
    [Invalid_argument], so callers can distinguish "corrupt input" from
    programming errors. *)

exception Truncated of string
(** Raised by readers when the input ends before a complete value. *)

(** {1 Writing} *)

type writer

val writer : ?capacity:int -> unit -> writer
val length : writer -> int

val clear : writer -> unit
(** Reset to empty, keeping capacity (for writer reuse on hot paths).
    Slices previously taken with {!slice} must not be used afterwards. *)

val contents : writer -> Bytes.t
(** Materializing copy of the bytes written so far (counted by the
    {!Slice} copy accounting; prefer {!slice} on hot paths). *)

val slice : writer -> Slice.t
(** The bytes written so far as a zero-copy window; valid until the
    writer is next written or cleared. *)

val slice_sub : writer -> pos:int -> len:int -> Slice.t
(** Zero-copy window of a range written so far; same validity. *)

val u8 : writer -> int -> unit

val u16 : writer -> int -> unit
(** The low 16 bits, as one store after one capacity check; likewise
    {!u32} (low 32 bits) and {!u64}. *)

val u32 : writer -> int -> unit
val u64 : writer -> int64 -> unit

val int_as_u64 : writer -> int -> unit
(** Native non-negative int written as 8 bytes. *)

val zeros : writer -> int -> unit
(** [zeros w n] writes [n] zero bytes with one fill (the RVM range
    header's pad). *)

val varint : writer -> int -> unit
(** LEB128 varint; accepts any non-negative OCaml int. *)

val varint_size : int -> int
(** Encoded size of [varint v], without writing. *)

val raw : writer -> Bytes.t -> pos:int -> len:int -> unit
val raw_string : writer -> string -> unit

val patch_u32 : writer -> at:int -> int -> unit
(** Overwrite 4 bytes previously written at offset [at]; in-place, O(1). *)

(** {1 Reading} *)

type reader

val reader : ?pos:int -> ?len:int -> Bytes.t -> reader

val reader_of_slice : Slice.t -> reader
(** Read the slice's window without copying it. *)

val reader_of_slices : Slice.t list -> reader
(** Read a gather list as one logical byte stream; values may span
    segment boundaries. *)

val pos : reader -> int
(** Absolute position in the current segment's buffer.  Only meaningful
    for single-buffer readers (created with {!reader}). *)

val remaining : reader -> int

val get_u8 : reader -> int

val get_u16 : reader -> int
(** One load when the word lies inside the current segment; a word that
    straddles a segment boundary is read a byte at a time, and one that
    runs past the end raises {!exception:Truncated}.  Likewise
    {!get_u32} and {!get_u64}. *)

val get_u32 : reader -> int
val get_u64 : reader -> int64
val get_int_as_u64 : reader -> int
val get_varint : reader -> int

val get_count : reader -> int
(** A varint count of elements that each take at least one byte.
    @raise Truncated if it is negative or exceeds {!remaining}, before
    the caller sizes anything by it. *)

val get_raw : reader -> len:int -> Bytes.t
(** Materializing copy of the next [len] bytes (counted). *)

val get_iov : reader -> len:int -> Slice.t list
(** The next [len] bytes as zero-copy windows, one per segment they
    touch.  Asked for the whole rest at a segment boundary, it returns
    the reader's unread tail list itself, so a decode that hands a long
    gather list on shares it instead of re-windowing it. *)

val skip : reader -> int -> unit
