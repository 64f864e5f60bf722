(** Messages exchanged between coherency nodes, and their one codec.

    One TCP channel per node pair carries lock traffic and coherency
    data, like the prototype's per-peer connections.  Both platforms
    carry the bytes {!encode} produces: the sockets write them, the sim
    fabric queues them and charges their {!frame_size}, and both
    dispatchers hand {!decode}'s value to the node.  The body is

    {v tag u8 | fields (Codec varints) | raw payload slices v}

    Data payloads are gather lists ({!Lbc_util.Slice.t} iovecs) of
    {!Wire}-encoded records, copied on neither side: [encode] returns
    them as the gather list's tail, and [decode] returns windows on the
    slices it reads. *)

type t =
  | Lock of Lbc_locks.Table.msg
  | Update of Lbc_util.Slice.t list
      (** a {!Wire}-encoded committed log tail, as a gather list (the
          concatenation of the slices is the wire image) *)
  | Fetch of { lock : int; have : int }
      (** lazy propagation: request records under [lock] newer than
          sequence number [have] *)
  | Fetched of { lock : int; payloads : Lbc_util.Slice.t list list }
      (** reply, oldest first; one gather list per record *)
  | LowWater of { applied : (int * int) list }
      (** low-water gossip: the sender's applied write sequence number
          per lock.  Receivers use it to decide which of their own
          committed records every peer has applied — those records can
          fall below the repair-retention mark and be trimmed. *)

val encode : t -> Lbc_util.Slice.t list
(** The message body as a gather list: the head slice holds the tag and
    fixed fields, the tail slices are the message's own record
    payloads, unchanged and uncopied. *)

val decode : Lbc_util.Slice.t list -> t
(** Inverse of {!encode}, over a body cut into any segments.  An
    [Update]'s payload is the body's tail list itself when the tag
    byte ends a segment, as in {!encode}'s output.
    @raise Lbc_util.Codec.Truncated on malformed input. *)

val prefix_bytes : int
(** The little-endian u32 length that frames each body on a channel. *)

val frame_size : Lbc_util.Slice.t list -> int
(** Bytes one body costs on a channel: {!prefix_bytes} plus its length. *)

val pp : Format.formatter -> t -> unit
