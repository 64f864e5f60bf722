(** Fixed record layouts for objects stored in a persistent heap.

    A layout names the fields of a record and assigns them consecutive
    offsets; [size] can be padded up (OO7 objects are "roughly 200 bytes"
    and we pad to exactly that so clustering matches the paper). *)

type t

val make : ?pad_to:int -> (string * int) list -> t
(** [make fields] lays the [(name, byte-size)] fields out consecutively.
    [pad_to] rounds the total size up.  Raises [Invalid_argument] on
    duplicate names or if [pad_to] is smaller than the fields. *)

val size : t -> int

val offset : t -> string -> int
(** Byte offset of a field.  @raise Not_found for unknown fields. *)

val fields : t -> string list
