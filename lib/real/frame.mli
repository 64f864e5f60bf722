(** u32-prefixed message framing over a byte stream.

    The frame the sim fabric charges ({!Lbc_core.Msg.frame_size}): a
    little-endian u32 body length ({!Lbc_core.Msg.prefix_bytes} bytes),
    then the {!Lbc_core.Msg.encode}d body.  The writer gathers the body
    from an iovec without concatenating; the reader tolerates arbitrary
    short reads. *)

val write : Unix.file_descr -> Lbc_util.Slice.t list -> int
(** Write one frame; returns the total bytes on the wire,
    [Msg.frame_size iov].  Each slice is written from its own backing
    buffer. *)

exception Torn of string
(** The stream ended mid-frame (peer died between the prefix and the
    last payload byte). *)

val read : Unix.file_descr -> Bytes.t option
(** Read one frame, reassembling across short reads.  [None] on a clean
    EOF at a frame boundary.
    @raise Torn on EOF inside a frame. *)
