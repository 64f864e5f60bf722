(** u32-prefixed message framing over a byte stream.

    Same frame layout the sim fabric accounts for ({!Lbc_core.Msg.size}
    counts the prefix): a little-endian u32 payload length, then the
    payload.  The writer gathers the payload from an iovec
    without concatenating; the reader tolerates arbitrary short reads. *)

val header_bytes : int

val write : Unix.file_descr -> Lbc_util.Slice.t list -> int
(** Write one frame; returns the total bytes on the wire (prefix +
    payload).  Each slice is written from its own backing buffer. *)

exception Torn of string
(** The stream ended mid-frame (peer died between the prefix and the
    last payload byte). *)

val read : Unix.file_descr -> Bytes.t option
(** Read one frame, reassembling across short reads.  [None] on a clean
    EOF at a frame boundary.
    @raise Torn on EOF inside a frame. *)
