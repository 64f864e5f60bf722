open Lbc_pheap

(** Construction of one composite-part cluster, for the database
    builder.

    A cluster is the composite record, its atomic parts (contiguous, so
    they share pages), their connection objects, and the document — just
    over 8 KB in the paper's configuration. *)

val set_field : Heap.t -> Layout.t -> addr:int -> string -> int -> unit
(** Store an 8-byte field by name.  For construction only: it searches
    the layout on every call, which is why no access path uses it. *)

val build_one :
  Heap.t -> Schema.config -> rng:Lbc_util.Rng.t -> id:int -> int
(** Allocate and initialize a cluster; returns the composite's address.
    Does {e not} touch the directory or the part index. *)

val index_parts : Database.t -> comp:int -> unit
(** Insert every atomic part of [comp] into the part index. *)
