open Lbc_pheap

(** The OO7 benchmark database schema (Carey, DeWitt & Naughton 1993), as
    used by the paper: a design library of composite parts, each a graph
    of atomic parts, under an assembly hierarchy; plus a part index over
    the atomic parts' build-date field.

    Object sizes follow the paper: composite and atomic part objects are
    "each roughly 200 bytes long" — we pad both to exactly 200 so that the
    atomic parts of one composite cluster on virtual-memory pages the way
    the paper's heap allocation did. *)

type config = {
  num_composites : int;  (** design-library size (paper: 500) *)
  atomics_per_composite : int;  (** graph size (paper: 20) *)
  connections_per_atomic : int;  (** out-degree (paper/OO7 small: 3) *)
  assembly_fanout : int;  (** children per complex assembly (3) *)
  assembly_levels : int;  (** hierarchy depth (7 → 729 base assemblies) *)
  composites_per_base : int;  (** composite parts per base assembly (3) *)
  date_range : int;  (** initial build dates drawn from [0, date_range) *)
  seed : int;
}

val small : config
(** The paper's configuration: 500 composites x 20 atomics, 729 base
    assemblies — 2187 composite-part visits per full traversal. *)

val tiny : config
(** A scaled-down database for unit tests. *)

val describe : config -> string
(** "small", "tiny", or a short summary of a custom configuration — for
    error messages. *)

val composite_visits : config -> int
(** Composite parts visited by a full traversal: the
    [fanout^(levels-1)] base assemblies times [composites_per_base]
    (2187 for [small]). *)

val atomic_part : Layout.t
(** id, date, x, y, doc_id, conn_to[i], conn_type[i] — padded to 200. *)

val conn_to : int -> string
(** Field name of the pointer to the i-th outgoing connection object. *)

val max_connections : int

val connection : Layout.t
(** A connection object: from, to, type, length — padded to 64 bytes, as
    in OO7's C++ heap. *)

val doc_size : int
(** Bytes of the per-composite document object (OO7: 2000). *)

val composite_part : config -> Layout.t
(** id, date, root_part, document, parts[atomics_per_composite] — padded
    to 200 when it fits. *)

val part_slot : int -> string

val assembly : config -> Layout.t
(** kind (0 complex / 1 base), id, children/components — padded to 64. *)

val child_slot : int -> string

val header : Layout.t
(** Region-resident database header: magic, root assembly, composite
    directory, object counts, index slots. *)

val db_magic : int64

val region_size : config -> int
(** A region size ample for the database plus index churn. *)
