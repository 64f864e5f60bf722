open Lbc_pheap

(** Handle to an OO7 database living in a persistent heap.

    The database can be attached three ways with identical semantics:
    over a raw [Bytes.t] image (construction, verification), over any
    {!Lbc_util.Mem.t} accessor (a recovery image, a detection
    transaction), or over a coherency transaction — in which case every
    store declares its [set_range] and propagates to peers at commit.

    Field offsets are resolved once (fixed layouts at module
    initialization, configuration-dependent ones at attach), so field
    access is an 8-byte load or store at a precomputed offset and
    allocates nothing. *)

type t

exception Bad_database of string

val attach_bytes : Schema.config -> Bytes.t -> t
val attach_mem : Schema.config -> Lbc_util.Mem.t -> t

val attach_txn : Schema.config -> Lbc_core.Node.Txn.t -> region:int -> t
(** Reads and writes go through the transaction's accessor (and must be
    covered by a lock the transaction holds). *)

val attach_node : Schema.config -> Lbc_core.Node.t -> region:int -> t
(** Read-only attachment to a node's cache, for verification; writes
    raise [Bad_database]. *)

val config : t -> Schema.config
val heap : t -> Heap.t
val root_assembly : t -> int
val num_composites : t -> int

val composite : t -> int -> int
(** Address of the i-th composite part (via the directory). *)

val index : t -> Iavl.t
(** The part index: atomic parts ordered by their (mutable) build-date
    field, read indirectly through the part — so a date change that keeps
    a part's ordering position writes no index bytes at all. *)

(** {1 Typed field access}

    Objects are addressed by their heap address. *)

val part_date : t -> int -> int
val set_part_date : t -> int -> int -> unit
val part_x : t -> int -> int
val set_part_x : t -> int -> int -> unit

val connection_target : t -> int -> int -> int
(** [connection_target db part k]: the atomic part the [k]-th outgoing
    connection of [part] leads to. *)

val composite_root : t -> int -> int
val composite_document : t -> int -> int

val composite_part : t -> int -> int -> int
(** [composite_part db comp i]: the composite's [i]-th atomic part. *)

val assembly_child : t -> int -> int -> int
(** [assembly_child db asm i]: the [i]-th child of an assembly — a
    sub-assembly, or a composite part at the base level. *)

val checksum : t -> int64
(** Order-independent digest of every atomic part's mutable fields
    (date, x, y) — equal iff two replicas agree on the data the
    traversals touch. *)
