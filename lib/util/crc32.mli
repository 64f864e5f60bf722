(** CRC-32 (IEEE 802.3 polynomial, reflected), used to protect log records
    against partial or torn writes.  {!update} is slicing-by-8: eight
    256-entry [int] tables, built when the module initialises, fold eight
    bytes per step with two 32-bit loads and eight lookups, and the 0-7
    byte tail goes through the first table.  One call allocates only the
    boxed result. *)

type t = int32
(** A running CRC value. *)

val empty : t
(** CRC of the empty string. *)

val update : t -> Bytes.t -> pos:int -> len:int -> t
(** [update crc b ~pos ~len] extends [crc] with [len] bytes of [b] starting
    at [pos].  Raises [Invalid_argument] if the range is out of bounds. *)

val update_string : t -> string -> t
(** [update_string crc s] extends [crc] with all of [s]. *)

val finish : t -> int32
(** Final CRC value (post-conditioning applied). *)

val bytes : Bytes.t -> pos:int -> len:int -> int32
(** One-shot CRC of a byte range. *)

val string : string -> int32
(** One-shot CRC of a string. *)
